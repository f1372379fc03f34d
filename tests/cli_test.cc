#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "align/aligner.h"
#include "assignment/sparse_lap.h"
#include "cli/cli.h"
#include "common/table.h"
#include "gateway/json.h"
#include "graph/io.h"
#include "metrics/metrics.h"

namespace graphalign {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult RunTool(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"graphalign"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  int code = RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/cli_" + name;
}

TEST(CliTest, NoArgsPrintsUsage) {
  CliResult r = RunTool({});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandRejected) {
  CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenerateRequiresFlags) {
  CliResult r = RunTool({"generate", "--model", "ba"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("requires"), std::string::npos);
}

TEST(CliTest, GenerateUnknownModelFails) {
  CliResult r = RunTool({"generate", "--model", "quantum", "--n", "10", "--out",
                     TempPath("x.txt")});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown model"), std::string::npos);
}

TEST(CliTest, GenerateAllModels) {
  for (const std::string model : {"er", "ba", "ws", "nw", "pl", "geometric"}) {
    const std::string path = TempPath("gen_" + model + ".txt");
    CliResult r = RunTool({"generate", "--model", model, "--n", "50", "--out",
                       path, "--seed", "3"});
    EXPECT_EQ(r.exit_code, 0) << model << ": " << r.err;
    EXPECT_NE(r.out.find("generated"), std::string::npos);
    std::remove(path.c_str());
  }
}

TEST(CliTest, FullPipelineRecoversAlignment) {
  const std::string g1 = TempPath("p_g1.txt");
  const std::string g2 = TempPath("p_g2.txt");
  const std::string truth = TempPath("p_truth.txt");
  const std::string mapping = TempPath("p_map.txt");

  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "80", "--m", "3",
                 "--seed", "5", "--out", g1})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"perturb", "--in", g1, "--level", "0.02", "--seed", "6",
                 "--out", g2, "--truth", truth})
                .exit_code,
            0);
  CliResult align = RunTool({"align", "--g1", g1, "--g2", g2, "--algo", "GWL",
                         "--assign", "JV", "--out", mapping});
  ASSERT_EQ(align.exit_code, 0) << align.err;
  EXPECT_NE(align.out.find("aligned"), std::string::npos);
  EXPECT_NE(align.out.find("MNC="), std::string::npos);

  CliResult eval = RunTool({"evaluate", "--g1", g1, "--g2", g2, "--mapping",
                        mapping, "--truth", truth});
  ASSERT_EQ(eval.exit_code, 0) << eval.err;
  // GWL at 2% noise on BA(80,3) recovers nearly everything.
  const size_t pos = eval.out.find("accuracy=");
  ASSERT_NE(pos, std::string::npos);
  const double acc = std::atof(eval.out.substr(pos + 9).c_str());
  EXPECT_GE(acc, 0.9) << eval.out;

  for (const std::string& p : {g1, g2, truth, mapping}) std::remove(p.c_str());
}

TEST(CliTest, AlignNativeExtraction) {
  const std::string g1 = TempPath("n_g1.txt");
  const std::string g2 = TempPath("n_g2.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "pl", "--n", "60", "--m", "3",
                 "--seed", "9", "--out", g1})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"perturb", "--in", g1, "--level", "0.02", "--out", g2})
                .exit_code,
            0);
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g2, "--algo", "REGAL",
                     "--assign", "native"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  std::remove(g1.c_str());
  std::remove(g2.c_str());
}

TEST(CliTest, AlignRejectsBadInputs) {
  EXPECT_EQ(RunTool({"align", "--g1", "/nonexistent", "--g2", "/nonexistent",
                 "--algo", "GWL"})
                .exit_code,
            1);
  const std::string g1 = TempPath("bad_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                 "--out", g1})
                .exit_code,
            0);
  EXPECT_EQ(
      RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NoSuchAlgo"}).exit_code,
      1);
  EXPECT_EQ(RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "GWL", "--assign",
                 "XX"})
                .exit_code,
            1);
  std::remove(g1.c_str());
}

TEST(CliTest, AlignIsolatedSucceedsUnderGenerousLimits) {
  const std::string g1 = TempPath("iso_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "60", "--m", "3",
                 "--seed", "3", "--out", g1})
                .exit_code,
            0);
  // The child's stdout is an in-process ostringstream the fork cannot share,
  // so only the exit code is observable here; 0 means the isolated alignment
  // ran to completion.
  EXPECT_EQ(RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                 "--isolate"})
                .exit_code,
            0);
  EXPECT_EQ(RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                 "--mem-limit", "16384"})
                .exit_code,
            0);
  std::remove(g1.c_str());
}

TEST(CliTest, AlignTinyMemLimitYieldsOomExitCode) {
  const std::string g1 = TempPath("oom_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "1500", "--m", "4",
                 "--seed", "3", "--out", g1})
                .exit_code,
            0);
  // An n x n similarity matrix needs ~18 MB; 4 MB of headroom cannot hold
  // it, so the child dies on allocation and the parent reports OOM via the
  // dedicated exit code.
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                         "--mem-limit", "4"});
  EXPECT_EQ(r.exit_code, 5) << r.err;
  EXPECT_NE(r.err.find("OOM"), std::string::npos) << r.err;
  std::remove(g1.c_str());
}

TEST(CliTest, AlignRejectsNonPositiveMemLimit) {
  const std::string g1 = TempPath("memflag_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                 "--out", g1})
                .exit_code,
            0);
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                         "--mem-limit", "0"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--mem-limit"), std::string::npos);
  std::remove(g1.c_str());
}

TEST(CliTest, PerturbRejectsUnknownNoise) {
  const std::string g1 = TempPath("noise_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                 "--out", g1})
                .exit_code,
            0);
  CliResult r =
      RunTool({"perturb", "--in", g1, "--noise", "gamma-ray", "--out", g1});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown noise type"), std::string::npos);
  std::remove(g1.c_str());
}

TEST(CliTest, StatsReportsBasics) {
  const std::string g1 = TempPath("stats_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "40", "--m", "2",
                 "--seed", "1", "--out", g1})
                .exit_code,
            0);
  CliResult r = RunTool({"stats", "--in", g1});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("n=40"), std::string::npos);
  EXPECT_NE(r.out.find("components="), std::string::npos);
  EXPECT_NE(r.out.find("hash="), std::string::npos);
  std::remove(g1.c_str());
}

TEST(CliTest, StatsHashIsContentAddressed) {
  // The same graph written twice hashes identically; one extra edge (--m 3
  // vs --m 2) changes it.
  const std::string g1 = TempPath("hash_g1.txt");
  const std::string g2 = TempPath("hash_g2.txt");
  const std::string g3 = TempPath("hash_g3.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "30", "--m", "2",
                     "--seed", "5", "--out", g1})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "30", "--m", "2",
                     "--seed", "5", "--out", g2})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"generate", "--model", "ba", "--n", "30", "--m", "3",
                     "--seed", "5", "--out", g3})
                .exit_code,
            0);
  auto hash_of = [](const CliResult& r) {
    size_t pos = r.out.find("hash=");
    EXPECT_NE(pos, std::string::npos);
    return r.out.substr(pos, 21);  // "hash=" + 16 hex digits.
  };
  CliResult r1 = RunTool({"stats", "--in", g1});
  CliResult r2 = RunTool({"stats", "--in", g2});
  CliResult r3 = RunTool({"stats", "--in", g3});
  EXPECT_EQ(hash_of(r1), hash_of(r2));
  EXPECT_NE(hash_of(r1), hash_of(r3));
  std::remove(g1.c_str());
  std::remove(g2.c_str());
  std::remove(g3.c_str());
}

TEST(CliTest, ThreadsFlagRejectsJunk) {
  const std::string g1 = TempPath("thr_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                     "--seed", "1", "--out", g1})
                .exit_code,
            0);
  for (const std::string bad : {"0", "-2", "4x", "x", "", "1.5", "2000"}) {
    CliResult r = RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                           "--threads", bad});
    EXPECT_EQ(r.exit_code, 1) << "'" << bad << "'";
    EXPECT_NE(r.err.find("--threads"), std::string::npos) << "'" << bad << "'";
  }
  std::remove(g1.c_str());
}

TEST(CliTest, ThreadsFlagAcceptsPositiveCount) {
  const std::string g1 = TempPath("thr_ok_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                     "--seed", "1", "--out", g1})
                .exit_code,
            0);
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                         "--threads", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  std::remove(g1.c_str());
}

TEST(CliTest, EvaluateWithoutTruthGivesStructuralScoresOnly) {
  const std::string g1 = TempPath("e_g1.txt");
  const std::string mapping = TempPath("e_map.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "ws", "--n", "30", "--k", "4",
                 "--seed", "2", "--out", g1})
                .exit_code,
            0);
  {
    std::ofstream f(mapping);
    for (int i = 0; i < 30; ++i) f << i << " " << i << "\n";
  }
  CliResult r = RunTool({"evaluate", "--g1", g1, "--g2", g1, "--mapping", mapping});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("EC=1.000"), std::string::npos);
  EXPECT_EQ(r.out.find("accuracy"), std::string::npos);
  std::remove(g1.c_str());
  std::remove(mapping.c_str());
}

// Tests below start pool workers in this process (the LSH signature blocks
// run on the pool). Each worker's malloc arena reserves up to 64 MiB of
// address space that a forked --mem-limit child inherits and can allocate
// from without growing its VmSize, so these stay after the --mem-limit
// tests when the binary runs as a whole (ctest runs each test alone).

// `align --sparse` end to end: the summary line, the --out mapping file and
// the structural-quality line all describe the alignment the library's
// sparse stages (LSH candidates + native NSD scoring + sparse LAP) produce.
TEST(CliTest, SparseAlignReportsCandidatesMappingAndMetrics) {
  const std::string g1 = TempPath("sp_g1.txt");
  const std::string g2 = TempPath("sp_g2.txt");
  const std::string mapping = TempPath("sp_map.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "pl", "--n", "150", "--m", "3",
                     "--seed", "21", "--out", g1})
                .exit_code,
            0);
  ASSERT_EQ(RunTool({"perturb", "--in", g1, "--level", "0.02", "--seed", "22",
                     "--out", g2})
                .exit_code,
            0);
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g2, "--algo", "NSD",
                         "--sparse", "--out", mapping});
  ASSERT_EQ(r.exit_code, 0) << r.err;

  auto graph1 = ReadEdgeList(g1);
  auto graph2 = ReadEdgeList(g2);
  ASSERT_TRUE(graph1.ok() && graph2.ok());
  auto aligner = MakeAligner("NSD");
  ASSERT_TRUE(aligner.ok());
  auto sim = (*aligner)->ComputeSparseSimilarity(*graph1, *graph2);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto expected = SparseLapAssign(graph1->num_nodes(), graph2->num_nodes(),
                                  sim->candidates);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  int matched = 0;
  std::string expected_file;
  for (size_t u = 0; u < expected->size(); ++u) {
    const int v = (*expected)[u];
    if (v < 0) continue;
    ++matched;
    expected_file += std::to_string(u) + " " + std::to_string(v) + "\n";
  }

  std::vector<std::string> lines;
  std::istringstream out(r.out);
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << r.out;
  const std::regex summary(
      "NSD/sparse aligned " + std::to_string(matched) + "/" +
      std::to_string(graph1->num_nodes()) + " nodes in [0-9.]+s \\(candidates=" +
      std::to_string(sim->candidates.size()) + ", native\\)");
  EXPECT_TRUE(std::regex_match(lines[0], summary)) << lines[0];
  EXPECT_EQ(lines[1], "mapping written to " + mapping);
  EXPECT_EQ(lines[2],
            "MNC=" +
                Table::Num(MeanMatchedNeighborhoodConsistency(
                    *graph1, *graph2, *expected)) +
                " EC=" + Table::Num(EdgeCorrectness(*graph1, *graph2,
                                                    *expected)) +
                " S3=" + Table::Num(SymmetricSubstructureScore(
                             *graph1, *graph2, *expected)));

  std::ifstream f(mapping);
  std::ostringstream written;
  written << f.rdbuf();
  EXPECT_EQ(written.str(), expected_file);
  for (const std::string& p : {g1, g2, mapping}) std::remove(p.c_str());
}

// Every path parses --assign with the same rules: --sparse does not make an
// unknown assignment name acceptable.
TEST(CliTest, SparseAlignRejectsUnknownAssignment) {
  const std::string g1 = TempPath("sp_bad_g1.txt");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                     "--out", g1})
                .exit_code,
            0);
  CliResult r = RunTool({"align", "--g1", g1, "--g2", g1, "--algo", "NSD",
                         "--sparse", "--assign", "XX"});
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.err.find("unknown assignment method: XX"), std::string::npos)
      << r.err;
  std::remove(g1.c_str());
}

// Numeric flags are read as whole strings and checked against their range.
// Each of these was once misread silently ("20x" as 20, "-1" as 2^64 - 1,
// "abc" as 0, "64MB" as 64); now each fails and the message names the flag.
TEST(CliTest, MalformedNumbersNameTheFlag) {
  const std::string g1 = TempPath("num_g1.txt");
  const std::string out = TempPath("num_out.txt");
  const std::string dir = TempPath("num_store");
  std::remove(out.c_str());  // A run that misread a flag may have left it.
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                     "--seed", "1", "--out", g1})
                .exit_code,
            0);
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{"generate", "--model", "er", "--n", "20x", "--out", out}, "--n"},
      {{"generate", "--model", "er", "--n", "20", "--p", "0.2x", "--out",
        out},
       "--p"},
      {{"generate", "--model", "er", "--n", "20", "--seed", "-1", "--out",
        out},
       "--seed"},
      {{"perturb", "--in", g1, "--level", "abc", "--out", out}, "--level"},
      {{"align", "--g1", g1, "--g2", g1, "--algo", "NSD", "--time-limit",
        "5x"},
       "--time-limit"},
      {{"align", "--g1", g1, "--g2", g1, "--algo", "NSD", "--isolate",
        "--mem-limit", "64MB"},
       "--mem-limit"},
      {{"align", "--g1", g1, "--g2", g1, "--algo", "NSD", "--sparse",
        "--lsh-bands", "8x"},
       "--lsh-bands"},
      {{"serve", "--port", "65536"}, "--port"},
      {{"serve", "--port", "0", "--quarantine", "-1"}, "--quarantine"},
      {{"serve", "--port", "0", "--grace", "nan"}, "--grace"},
      {{"submit", "--port", "0", "--ping"}, "--port"},
      {{"submit", "--port", "1", "--retries", "101", "--ping"}, "--retries"},
      {{"submit", "--port", "1", "--timeout", "inf", "--ping"}, "--timeout"},
      {{"jobs", "status", "--port", "70000", "--id", "0000000000000000"},
       "--port"},
      {{"store", "bench", "--dir", dir, "--in", g1, "--reps", "0"}, "--reps"},
  };
  for (const Case& c : cases) {
    CliResult r = RunTool(c.args);
    EXPECT_EQ(r.exit_code, 1) << c.flag << ": " << r.out;
    EXPECT_NE(r.err.find("invalid value"), std::string::npos)
        << c.flag << ": " << r.err;
    EXPECT_NE(r.err.find("for " + c.flag + " (expected"), std::string::npos)
        << r.err;
    // Flags are checked before any work: nothing was written.
    EXPECT_FALSE(std::ifstream(out).good()) << c.flag;
  }
  std::remove(g1.c_str());
}

// The bench report names each graph by its path; a path holding a quote
// and a backslash must still yield a JSON document that parses and gives
// the path back.
TEST(CliTest, StoreBenchJsonEscapesTheGraphPath) {
  const std::string g1 = TempPath("q\"uote\\slash.txt");
  const std::string dir = TempPath("escape_store");
  const std::string json = TempPath("escape_bench.json");
  ASSERT_EQ(RunTool({"generate", "--model", "er", "--n", "20", "--p", "0.2",
                     "--seed", "1", "--out", g1})
                .exit_code,
            0);
  CliResult r = RunTool({"store", "bench", "--dir", dir, "--in", g1,
                         "--reps", "1", "--json", json});
  ASSERT_EQ(r.exit_code, 0) << r.err;
  std::ifstream f(json);
  std::ostringstream text;
  text << f.rdbuf();
  auto report = ParseJson(text.str());
  ASSERT_TRUE(report.ok()) << report.status().ToString() << "\n"
                           << text.str();
  const std::vector<JsonValue>& rows = report->Get("rows").AsArray();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("graph").AsString(), g1);
  std::remove(g1.c_str());
  std::remove(json.c_str());
  std::filesystem::remove_all(dir);
}

TEST(CliTest, ValueTakingFlagWithoutValueFails) {
  CliResult r = RunTool({"generate", "--model", "er", "--n", "--out",
                         TempPath("novalue.txt")});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("missing value for --n"), std::string::npos) << r.err;
}

// The edges of each range still mean what they meant: seed 0, noise level 0
// and zero retries are accepted.
TEST(CliTest, EdgeValuesStillAccepted) {
  const std::string g1 = TempPath("edge_g1.txt");
  const std::string g2 = TempPath("edge_g2.txt");
  CliResult gen = RunTool({"generate", "--model", "er", "--n", "20", "--p",
                           "0.2", "--seed", "0", "--out", g1});
  ASSERT_EQ(gen.exit_code, 0) << gen.err;
  CliResult pert = RunTool({"perturb", "--in", g1, "--level", "0", "--seed",
                            "0", "--no-permute", "--out", g2});
  ASSERT_EQ(pert.exit_code, 0) << pert.err;
  EXPECT_NE(pert.out.find("level=0)"), std::string::npos) << pert.out;
  std::ifstream a(g1), b(g2);
  std::ostringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());  // Zero noise, no permutation: a copy.
  // Parsing succeeds; only the connection to the missing daemon fails.
  CliResult sub = RunTool({"submit", "--socket", TempPath("no_daemon.sock"),
                           "--retries", "0", "--timeout", "1", "--ping"});
  EXPECT_EQ(sub.exit_code, 1);
  EXPECT_EQ(sub.err.find("invalid value"), std::string::npos) << sub.err;
  std::remove(g1.c_str());
  std::remove(g2.c_str());
}

// loadgen reads its flags with the same reader and keeps its usage exit.
struct LoadgenRun {
  int exit_code;
  std::string err;
};

LoadgenRun RunLoadgen(const std::string& args) {
  const std::string cmd =
      std::string(GA_LOADGEN_PATH) + " " + args + " 2>&1 > /dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string err;
  char buf[512];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    err.append(buf, n);
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, err};
}

TEST(LoadgenFlagsTest, MalformedValuesExitWithUsage) {
  const std::string sock = "--socket " + TempPath("no_daemon.sock");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {sock + " --clients 2x --requests 1",
       "invalid value '2x' for --clients"},
      {sock + " --clients 1025 --requests 1",
       "invalid value '1025' for --clients"},
      {sock + " --mix miss:3x --clients 1 --requests 1",
       "bad --mix 'miss:3x'"},
      {sock + " --nodes 7", "invalid value '7' for --nodes"},
      {"--port 0", "invalid value '0' for --port"},
      {sock + " --bogus 1", "unknown flag '--bogus'"},
  };
  for (const auto& [args, message] : cases) {
    LoadgenRun r = RunLoadgen(args);
    EXPECT_EQ(r.exit_code, 1) << args;
    EXPECT_NE(r.err.find(message), std::string::npos) << args << ": " << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << args;
  }
}

}  // namespace
}  // namespace graphalign
