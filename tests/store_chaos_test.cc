// Graph-store chaos suite (DESIGN.md §15): crash-shaped and injected
// faults against the content-addressed store, plus the daemon's degrade
// paths. Torn writes never publish, bit rot comes back as typed kCorrupt
// with the file quarantined — never a crash, never served — and a daemon
// whose --store-dir is unusable keeps serving the wire-graph path.
// Registered under the `store` and `chaos` ctest labels; tools/run_chaos.sh
// drives the same failpoint sites through the CLI.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/graph_store.h"
#include "store/gst.h"

namespace graphalign {
namespace {

Graph SmallGraph(uint64_t seed) {
  Rng rng(seed);
  auto g = ErdosRenyi(30, 0.2, &rng);
  GA_CHECK(g.ok());
  return *std::move(g);
}

class StoreChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ga_store_chaosXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    DeactivateAllFailpoints();
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  int CountFilesMatching(const std::string& pattern) const {
    std::string cmd =
        "ls -1 '" + dir_ + "' 2>/dev/null | grep -c -- '" + pattern + "'";
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) return -1;
    int count = -1;
    if (std::fscanf(p, "%d", &count) != 1) count = 0;
    ::pclose(p);
    return count;
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Injected write-path faults: Put fails typed, nothing partial is visible.

TEST_F(StoreChaosTest, WriteErrorFailsPutWithoutPublishing) {
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Graph g = SmallGraph(1);
  ASSERT_TRUE(ActivateFailpoint("store.write.error", "once").ok());
  auto put = (*store)->Put(g);
  ASSERT_FALSE(put.ok());
  EXPECT_FALSE((*store)->Has(g.ContentHash()));
  EXPECT_EQ(CountFilesMatching("\\.gst$"), 0);
  // The store is not poisoned: the next Put succeeds.
  auto again = (*store)->Put(g);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE((*store)->Has(g.ContentHash()));
}

TEST_F(StoreChaosTest, FsyncErrorFailsPutWithoutPublishing) {
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(ActivateFailpoint("store.fsync.error", "once").ok());
  auto put = (*store)->Put(SmallGraph(2));
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(CountFilesMatching("\\.gst$"), 0);
}

TEST_F(StoreChaosTest, TornWriteLeavesTempInvisibleAndGcSweepsIt) {
  // A crash between fsync and rename (simulated by the rename failpoint,
  // which deliberately leaves the temp file behind) must never produce a
  // visible `.gst` entry — and `store gc` reclaims the leftover.
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Graph g = SmallGraph(3);
  ASSERT_TRUE(ActivateFailpoint("store.rename.error", "once").ok());
  auto put = (*store)->Put(g);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(CountFilesMatching("\\.gst$"), 0);
  EXPECT_EQ(CountFilesMatching("tmp-"), 1);
  EXPECT_FALSE((*store)->Has(g.ContentHash()));

  auto gc = (*store)->Gc();
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc->removed, 1);
  EXPECT_EQ(CountFilesMatching("tmp-"), 0);

  // Recovery: the same graph publishes cleanly afterwards.
  auto again = (*store)->Put(g);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto got = (*store)->Get(*again);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ContentHash(), g.ContentHash());
}

TEST_F(StoreChaosTest, MmapErrorIsUnavailableAndNeverQuarantines) {
  // Transient IO trouble must not destroy a good file: no quarantine, and
  // the entry is served normally once the fault clears.
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto hash = (*store)->Put(SmallGraph(4));
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(ActivateFailpoint("store.mmap.error", "once").ok());
  auto got = (*store)->Get(*hash);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
      << got.status().ToString();
  EXPECT_EQ(CountFilesMatching("\\.corrupt$"), 0);
  EXPECT_EQ((*store)->counters().corrupt, 0u);
  auto healthy = (*store)->Get(*hash);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
}

TEST_F(StoreChaosTest, EnospcFailsPutAsUnavailableAndNeverQuarantines) {
  // A full disk is a transient-environment failure: the Put comes back as
  // a typed kUnavailable — never kCorrupt, never a quarantine — and the
  // store serves normally once space exists again.
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Graph g = SmallGraph(6);
  ASSERT_TRUE(ActivateFailpoint("store.write.enospc", "once").ok());
  auto put = (*store)->Put(g);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kUnavailable)
      << put.status().ToString();
  EXPECT_NE(put.status().ToString().find("No space left"), std::string::npos)
      << put.status().ToString();
  EXPECT_EQ(CountFilesMatching("\\.gst$"), 0);
  EXPECT_EQ(CountFilesMatching("\\.corrupt$"), 0);
  EXPECT_EQ((*store)->counters().corrupt, 0u);
  EXPECT_FALSE((*store)->Has(g.ContentHash()));
  // Space back: the same graph publishes and round-trips.
  auto again = (*store)->Put(g);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto got = (*store)->Get(*again);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ContentHash(), g.ContentHash());
}

TEST_F(StoreChaosTest, InjectedVerifyCorruptQuarantinesLikeRealRot) {
  auto store = GraphStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Graph g = SmallGraph(5);
  auto hash = (*store)->Put(g);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(ActivateFailpoint("store.verify.corrupt", "once").ok());
  auto got = (*store)->Get(*hash);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(CountFilesMatching("\\.corrupt$"), 1);
  EXPECT_FALSE((*store)->Has(*hash));
  // Never retried in a loop: the next Get is a clean NotFound, not another
  // verification attempt against the corpse.
  auto after = (*store)->Get(*hash);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Daemon paths: submit-by-hash against corruption and an unusable store.

std::string TempSocketPath(const char* tag) {
  return "/tmp/ga_schaos_" + std::string(tag) + "_" + std::to_string(getpid());
}

class StoreServerChaosTest : public StoreChaosTest {
 protected:
  void StartServer(ServerOptions options) {
    socket_path_ = options.socket_path;
    auto server = Server::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
    StoreChaosTest::TearDown();
  }

  Result<Client> Connect() {
    ClientOptions copts;
    copts.socket_path = socket_path_;
    copts.timeout_seconds = 60.0;
    return Client::Connect(copts);
  }

  static Request PutRequest(const Graph& g) {
    Request req;
    req.type = RequestType::kPutGraph;
    req.put_graph.g = ToWire(g);
    return req;
  }

  static Request ByHashRequest(uint64_t h1, uint64_t h2) {
    Request req;
    req.type = RequestType::kAlign;
    req.align.algo = "GRASP";
    req.align.assign = "JV";
    req.align.by_hash = true;
    req.align.g1_hash = h1;
    req.align.g2_hash = h2;
    return req;
  }

  static Request WireAlignRequest(const Graph& g1, const Graph& g2) {
    Request req;
    req.type = RequestType::kAlign;
    req.align.algo = "GRASP";
    req.align.assign = "JV";
    req.align.g1 = ToWire(g1);
    req.align.g2 = ToWire(g2);
    return req;
  }

  // A one-job batch over a two-entry graph table; each entry is a store
  // hash, or inline when its graph is given.
  static Request BatchRequest(const Graph& g1, bool g1_by_hash,
                              const Graph& g2, bool g2_by_hash) {
    Request req;
    req.type = RequestType::kAlignBatch;
    for (const auto& [g, by_hash] :
         {std::pair(&g1, g1_by_hash), std::pair(&g2, g2_by_hash)}) {
      BatchGraphRef ref;
      ref.by_hash = by_hash;
      if (by_hash) {
        ref.hash = g->ContentHash();
      } else {
        ref.inline_graph = ToWire(*g);
      }
      req.align_batch.graphs.push_back(ref);
    }
    BatchJob job;
    job.g1 = 0;
    job.g2 = 1;
    job.algo = "GRASP";
    job.assign = "JV";
    req.align_batch.jobs.push_back(job);
    return req;
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(StoreServerChaosTest, BitFlipThenByHashAlignIsNoGraphAndDaemonLives) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("rot");
  opts.workers = 2;
  opts.store_dir = dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(10);
  const Graph g2 = SmallGraph(11);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto put1 = client->Call(PutRequest(g1));
  auto put2 = client->Call(PutRequest(g2));
  ASSERT_TRUE(put1.ok() && put2.ok());
  ASSERT_EQ(put1->code, ResponseCode::kOk);
  ASSERT_EQ(put2->code, ResponseCode::kOk);

  // Rot g1's stored bytes behind the daemon's back.
  const std::string path =
      dir_ + "/" + GraphStore::HashName(g1.ContentHash()) + ".gst";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(150);
    f.put('\x55');
  }

  // The by-hash align gets a typed NO_GRAPH (corrupt = not held), the file
  // is quarantined aside, and the corrupt bytes are never served.
  auto rotted =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(rotted.ok()) << rotted.status().ToString();
  EXPECT_EQ(rotted->code, ResponseCode::kNoGraph) << rotted->message;
  EXPECT_NE(rotted->message.find("re-upload"), std::string::npos)
      << rotted->message;
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(::stat((path + ".corrupt").c_str(), &st), 0);

  // The daemon is fully alive: wire-graph aligns still succeed, and after
  // re-upload the same by-hash request is served.
  auto wire = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->code, ResponseCode::kOk) << wire->message;
  auto reput = client->Call(PutRequest(g1));
  ASSERT_TRUE(reput.ok());
  ASSERT_EQ(reput->code, ResponseCode::kOk);
  auto healed =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->code, ResponseCode::kOk) << healed->message;
}

TEST_F(StoreServerChaosTest, UnusableStoreDirDegradesToWirePath) {
  // Point --store-dir at a path under a regular *file*: the store can
  // never open. The daemon must start anyway, serve wire-graph aligns,
  // and answer by-hash requests with a typed NO_GRAPH.
  const std::string blocker = dir_ + "/blocker";
  { std::ofstream f(blocker); f << "i am a file"; }
  ServerOptions opts;
  opts.socket_path = TempSocketPath("nodir");
  opts.workers = 2;
  opts.store_dir = blocker + "/store";
  StartServer(opts);

  const Graph g1 = SmallGraph(12);
  const Graph g2 = SmallGraph(13);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto wire = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->code, ResponseCode::kOk) << wire->message;

  auto by_hash =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(by_hash.ok());
  EXPECT_EQ(by_hash->code, ResponseCode::kNoGraph) << by_hash->message;

  auto put = client->Call(PutRequest(g1));
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->code, ResponseCode::kError) << put->message;
  EXPECT_NE(put->message.find("store disabled"), std::string::npos)
      << put->message;
}

TEST_F(StoreServerChaosTest, ByHashHitsShareTheResultCacheWithWirePath) {
  // The cache key is content-addressed, so a by-hash align and a wire
  // align of the same pair are the same entry: upload + by-hash compute
  // once, then the wire-path request is a cache hit.
  ServerOptions opts;
  opts.socket_path = TempSocketPath("cache");
  opts.workers = 2;
  opts.store_dir = dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(14);
  const Graph g2 = SmallGraph(15);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Call(PutRequest(g1))->code, ResponseCode::kOk);
  ASSERT_EQ(client->Call(PutRequest(g2))->code, ResponseCode::kOk);

  auto first =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->code, ResponseCode::kOk) << first->message;
  EXPECT_FALSE(first->cache_hit);

  auto second = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->code, ResponseCode::kOk);
  EXPECT_TRUE(second->cache_hit);
}

TEST_F(StoreServerChaosTest, CacheLogEnospcDegradesDurabilityNotService) {
  // Disk-full on the durable cache log: every append is dropped and
  // counted, the in-memory cache keeps serving hits, alignments keep
  // succeeding, and nothing is ever quarantined or corrupted.
  ServerOptions opts;
  opts.socket_path = TempSocketPath("enospc");
  opts.workers = 2;
  opts.cache_dir = dir_ + "/cache";
  StartServer(opts);

  ASSERT_TRUE(ActivateFailpoint("server.cache.append.enospc", "error").ok());
  const Graph g1 = SmallGraph(20);
  const Graph g2 = SmallGraph(21);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto first = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, ResponseCode::kOk) << first->message;
  EXPECT_FALSE(first->cache_hit);
  // Durability is lost, service is not: the in-memory entry still hits.
  auto second = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, ResponseCode::kOk);
  EXPECT_TRUE(second->cache_hit);

  Request stats_req;
  stats_req.type = RequestType::kServerStats;
  auto stats_resp = client->Call(stats_req);
  ASSERT_TRUE(stats_resp.ok());
  ASSERT_EQ(stats_resp->code, ResponseCode::kOk);
  auto stats = DecodeServerStatsResult(stats_resp->body);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->cache_append_errors, 1u);

  // The fault clears: appends work again and the daemon never noticed at
  // the service level.
  DeactivateAllFailpoints();
  auto third = client->Call(WireAlignRequest(g2, g1));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->code, ResponseCode::kOk) << third->message;
}

// ---------------------------------------------------------------------------
// One per-job align path: kAlign and batch jobs probe quarantine and the
// cache once, by content hash, before any store graph is opened.

TEST_F(StoreServerChaosTest, RepeatedByHashAlignHitsWithoutOpeningTheStore) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("rehit");
  opts.workers = 2;
  opts.store_dir = dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(30);
  const Graph g2 = SmallGraph(31);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_EQ(client->Call(PutRequest(g1))->code, ResponseCode::kOk);
  ASSERT_EQ(client->Call(PutRequest(g2))->code, ResponseCode::kOk);

  auto first =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->code, ResponseCode::kOk) << first->message;
  EXPECT_FALSE(first->cache_hit);

  const uint64_t gets_before = server_->stats().store_gets;
  auto second =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->code, ResponseCode::kOk) << second->message;
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(server_->stats().store_gets, gets_before);
}

TEST_F(StoreServerChaosTest, UncachedByHashBatchJobCountsOneMiss) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("onemiss");
  opts.workers = 2;
  opts.store_dir = dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(32);
  const Graph g2 = SmallGraph(33);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_EQ(client->Call(PutRequest(g1))->code, ResponseCode::kOk);
  ASSERT_EQ(client->Call(PutRequest(g2))->code, ResponseCode::kOk);

  const uint64_t misses_before = server_->cache_stats().misses;
  auto batch = client->Call(BatchRequest(g1, true, g2, true));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->code, ResponseCode::kOk) << batch->message;
  auto result = DecodeAlignBatchResult(batch->body);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->jobs.size(), 1u);
  EXPECT_FALSE(result->jobs[0].cache_hit);
  EXPECT_EQ(result->graph_loads, 2u);
  EXPECT_EQ(server_->cache_stats().misses - misses_before, 1u);
}

TEST_F(StoreServerChaosTest, MixedBatchJobOnACachedPairOpensNoStoreGraph) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("mixed");
  opts.workers = 2;
  opts.store_dir = dir_;
  StartServer(opts);

  const Graph g1 = SmallGraph(34);
  const Graph g2 = SmallGraph(35);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_EQ(client->Call(PutRequest(g2))->code, ResponseCode::kOk);
  auto warm = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->code, ResponseCode::kOk) << warm->message;

  // g1 inline, g2 by hash: the inline graph is parsed to learn its content
  // hash, the probe hits, and the store graph is never opened.
  const uint64_t gets_before = server_->stats().store_gets;
  auto batch = client->Call(BatchRequest(g1, false, g2, true));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->code, ResponseCode::kOk) << batch->message;
  auto result = DecodeAlignBatchResult(batch->body);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->jobs.size(), 1u);
  EXPECT_TRUE(result->jobs[0].cache_hit);
  EXPECT_EQ(result->graph_loads, 1u);
  EXPECT_EQ(server_->stats().store_gets, gets_before);
}

TEST_F(StoreServerChaosTest, ByHashBatchJobWithoutAStoreIsNoGraphEvenIfCached) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("nostore");
  opts.workers = 2;
  StartServer(opts);

  const Graph g1 = SmallGraph(36);
  const Graph g2 = SmallGraph(37);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto warm = client->Call(WireAlignRequest(g1, g2));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->code, ResponseCode::kOk) << warm->message;

  // The pair is cached, but a by-hash reference needs a store, exactly as
  // a by-hash kAlign does.
  auto batch = client->Call(BatchRequest(g1, true, g2, true));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->code, ResponseCode::kNoGraph) << batch->message;
  auto result = DecodeAlignBatchResult(batch->body);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->jobs.size(), 1u);
  EXPECT_EQ(result->jobs[0].code, ResponseCode::kNoGraph);
  EXPECT_NE(result->jobs[0].message.find("--store-dir"), std::string::npos)
      << result->jobs[0].message;
  auto by_hash =
      client->Call(ByHashRequest(g1.ContentHash(), g2.ContentHash()));
  ASSERT_TRUE(by_hash.ok());
  EXPECT_EQ(by_hash->code, ResponseCode::kNoGraph);
  EXPECT_EQ(by_hash->message.substr(by_hash->message.find(':')),
            result->jobs[0].message.substr(
                result->jobs[0].message.find(':')));
}

}  // namespace
}  // namespace graphalign
