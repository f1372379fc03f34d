// Pins the exact on-disk bytes of the three durable formats: the GAR1
// cache log (DESIGN.md §14), the GAJ1 job journal (§17) and the GST1 graph
// file (§15). Files written by one build must replay in the next, so any
// change to framing, byte order, CRC placement or payload layout has to
// show up here as an edited hex literal, never as a silent format drift.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "jobs/journal.h"
#include "server/cache_store.h"
#include "store/gst.h"

namespace graphalign {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class DiskFormatGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_goldenXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  std::string dir_;
};

TEST_F(DiskFormatGoldenTest, CacheLogBytes) {
  {
    auto store = CacheStore::Open(dir_, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    (*store)->Append(1, "first");
    (*store)->Append(3, "");
    ASSERT_EQ((*store)->append_errors(), 0u);
  }
  EXPECT_EQ(Hex(ReadFile(dir_ + "/cache.log")),
            // magic   | len     | crc32c  | u64 key          | value
            "47415231" "0d000000" "e44ac543" "0100000000000000"
            "6669727374"  // "first"
            "47415231" "08000000" "e3356c57" "0300000000000000");
}

TEST_F(DiskFormatGoldenTest, JobJournalBytes) {
  {
    auto journal = JobJournal::Open(dir_, nullptr);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE((*journal)->Append("alpha").ok());
    ASSERT_TRUE((*journal)->Append("beta").ok());
  }
  EXPECT_EQ(Hex(ReadFile(dir_ + "/jobs.journal")),
            // magic   | len     | crc32c  | payload
            "47414a31" "05000000" "812fd978" "616c706861"  // "alpha"
            "47414a31" "04000000" "b9cb43f4" "62657461");  // "beta"
}

TEST(DiskFormatGolden, GstBytesOfAPathGraph) {
  auto g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(Hex(EncodeGst(*g)),
            // Preamble: magic, version, n, section_count, m, content hash,
            // header crc32c, padding.
            "47535431" "01000000" "03000000" "02000000" "0200000000000000"
            "d4d4a664c0c48719" "9ae8b20a" "00000000"
            // Section table: id, crc32c, offset, length, reserved.
            "01000000" "ba163b02" "6800000000000000" "2000000000000000"
            "0000000000000000"
            "02000000" "e2c741ff" "8800000000000000" "1000000000000000"
            "0000000000000000"
            // Offsets (i64 x 4), then adjacency (i32 x 4).
            "0000000000000000" "0100000000000000" "0300000000000000"
            "0400000000000000"
            "01000000" "00000000" "02000000" "01000000");
}

}  // namespace
}  // namespace graphalign
