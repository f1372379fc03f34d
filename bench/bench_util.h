// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary accepts the common flags of BenchArgs (see
// bench_framework/experiment.h). By default benches run at reduced,
// smoke-test scale so that `for b in build/bench/*; do $b; done` finishes in
// minutes; pass --full for paper-scale sweeps (which also turns on per-cell
// process isolation — see DESIGN.md §10).
#ifndef GRAPHALIGN_BENCH_BENCH_UTIL_H_
#define GRAPHALIGN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/aligner.h"
#include "align/sgwl.h"
#include "bench_framework/experiment.h"
#include "bench_framework/journal.h"
#include "common/table.h"

namespace graphalign {
namespace bench {

// Prints the standard bench banner.
inline void Banner(const std::string& id, const std::string& what,
                   const BenchArgs& args) {
  std::printf("=== %s: %s ===\n", id.c_str(), what.c_str());
  std::printf("mode: %s (pass --full for paper-scale)\n",
              args.full ? "FULL" : "smoke");
  if (args.isolate) {
    if (args.mem_limit_mb > 0.0) {
      std::printf("isolation: per-cell subprocess, mem limit %.0f MB\n",
                  args.mem_limit_mb);
    } else {
      std::printf("isolation: per-cell subprocess\n");
    }
  }
}

// Instantiates an aligner; S-GWL gets the sparse-beta preset when requested
// (the paper tunes beta by density, §6.4.2). Fault-injection names
// (_CRASH/_OOM/_HANG) resolve to align's fault injectors.
inline std::unique_ptr<Aligner> MakeBenchAligner(const std::string& name,
                                                 bool sparse_graph = false) {
  if (auto fault = MakeFaultAligner(name)) return fault;
  if (name == "S-GWL" && sparse_graph) {
    return std::make_unique<SgwlAligner>(SgwlOptions::ForSparseGraphs());
  }
  auto aligner = MakeAligner(name);
  GA_CHECK_MSG(aligner.ok(), aligner.status().ToString());
  return *std::move(aligner);
}

// Emits the table and optional CSV/JSON. `meta` is embedded in the JSON
// output so a checked-in result file records how it was produced.
inline void Emit(const Table& table, const BenchArgs& args,
                 const std::vector<std::pair<std::string, std::string>>& meta =
                     {}) {
  table.Print(std::cout);
  if (!args.csv_path.empty()) {
    if (table.WriteCsv(args.csv_path)) {
      std::printf("csv written to %s\n", args.csv_path.c_str());
    } else {
      std::printf("FAILED to write csv %s\n", args.csv_path.c_str());
    }
  }
  if (!args.json_path.empty()) {
    if (table.WriteJson(args.json_path, meta)) {
      std::printf("json written to %s\n", args.json_path.c_str());
    } else {
      std::printf("FAILED to write json %s\n", args.json_path.c_str());
    }
  }
  std::printf("\n");
}

// Opens the sweep journal named by --journal (a disabled journal without
// the flag). Aborts on an unreadable/corrupt journal file: silently
// recomputing a sweep the user asked to resume would waste the hours the
// journal exists to save.
inline Journal MustOpenJournal(const BenchArgs& args) {
  if (args.journal_path.empty()) return Journal();
  auto journal = Journal::Open(args.journal_path, args.resume);
  GA_CHECK_MSG(journal.ok(), journal.status().ToString());
  if (args.resume && journal->loaded() > 0) {
    std::printf("journal: resuming, %zu cells already completed\n",
                journal->loaded());
  }
  return *std::move(journal);
}

// Joins the fields identifying one sweep cell into a journal key.
inline std::string CellKey(std::initializer_list<std::string> parts) {
  std::string key;
  for (const std::string& part : parts) {
    if (!key.empty()) key += '|';
    key += part;
  }
  return key;
}

// Produces one table row through the journal: a row already recorded under
// `key` (from a --resume'd journal) is replayed without running anything;
// otherwise `compute` runs and its cells are journaled before being added.
inline void JournaledRow(
    Table* table, Journal* journal, const std::string& key,
    const std::function<std::vector<std::string>()>& compute) {
  if (const std::vector<std::string>* cached = journal->Row(key)) {
    table->AddRow(*cached);
    return;
  }
  std::vector<std::string> cells = compute();
  Status recorded = journal->Record(key, cells);
  if (!recorded.ok()) {
    std::fprintf(stderr, "journal: %s\n", recorded.ToString().c_str());
  }
  table->AddRow(cells);
}

// Noise levels for the low-noise experiments (Figs 1-7).
inline std::vector<double> LowNoiseLevels(bool full) {
  if (full) return {0.00, 0.01, 0.02, 0.03, 0.04, 0.05};
  return {0.00, 0.02, 0.05};
}

// Noise levels for the high-noise experiments (Figs 8-9).
inline std::vector<double> HighNoiseLevels(bool full) {
  if (full) return {0.00, 0.05, 0.10, 0.15, 0.20, 0.25};
  return {0.00, 0.10, 0.25};
}

}  // namespace bench
}  // namespace graphalign

#endif  // GRAPHALIGN_BENCH_BENCH_UTIL_H_
