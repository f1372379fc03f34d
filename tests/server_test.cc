// Tests for the alignment service daemon: protocol framing (table-driven
// over malformed inputs), payload codecs, the content-addressed LRU result
// cache, and an end-to-end daemon exercising isolation, caching, admission
// control, and shutdown over a real Unix socket.

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace graphalign {
namespace {

// ---------------------------------------------------------------------------
// Framing: the parser must map every byte sequence to a typed outcome.

std::string FrameHeader(uint32_t declared_len) {
  std::string h(kFrameMagic, sizeof(kFrameMagic));
  for (int i = 0; i < 4; ++i) {
    h.push_back(static_cast<char>((declared_len >> (8 * i)) & 0xff));
  }
  return h;
}

struct FrameCase {
  const char* name;
  std::string input;
  FrameStatus want;
};

TEST(FramingTest, MalformedInputsYieldTypedOutcomes) {
  const std::string good = EncodeFrame("hello");
  const FrameCase cases[] = {
      {"empty buffer", "", FrameStatus::kIncomplete},
      {"partial magic", "GA", FrameStatus::kIncomplete},
      {"magic only", std::string(kFrameMagic, 4), FrameStatus::kIncomplete},
      {"truncated header", good.substr(0, 6), FrameStatus::kIncomplete},
      {"truncated payload", good.substr(0, good.size() - 1),
       FrameStatus::kIncomplete},
      {"garbage magic", "XXXXXXXXXXXX", FrameStatus::kBadMagic},
      {"garbage partial magic", "QQ", FrameStatus::kBadMagic},
      {"http request", "GET / HTTP/1.1\r\n\r\n", FrameStatus::kBadMagic},
      {"near-miss magic", "GAF2" + good.substr(4), FrameStatus::kBadMagic},
      {"zero-length payload", FrameHeader(0), FrameStatus::kEmpty},
      {"oversized declaration", FrameHeader(kMaxFramePayload + 1),
       FrameStatus::kOversized},
      {"huge declaration", FrameHeader(0xffffffffu), FrameStatus::kOversized},
      {"complete frame", good, FrameStatus::kComplete},
      {"frame plus trailing bytes", good + "junk", FrameStatus::kComplete},
  };
  for (const FrameCase& c : cases) {
    std::string payload;
    size_t consumed = 0;
    EXPECT_EQ(TryParseFrame(c.input, &payload, &consumed), c.want) << c.name;
    if (c.want == FrameStatus::kComplete) {
      EXPECT_EQ(payload, "hello") << c.name;
      EXPECT_EQ(consumed, good.size()) << c.name;
    }
  }
}

TEST(FramingTest, OversizedDeclarationRejectedBeforeBuffering) {
  // An attacker declaring a 4 GB payload must be rejected from the 8-byte
  // header alone, not after the parser tries to buffer the declared length.
  std::string header = FrameHeader(0xfffffff0u);
  std::string payload;
  size_t consumed = 0;
  EXPECT_EQ(TryParseFrame(header, &payload, &consumed),
            FrameStatus::kOversized);
}

TEST(FramingTest, RoundTripsBinaryPayloads) {
  std::string binary;
  for (int i = 0; i < 512; ++i) binary.push_back(static_cast<char>(i & 0xff));
  std::string framed = EncodeFrame(binary);
  std::string payload;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(framed, &payload, &consumed), FrameStatus::kComplete);
  EXPECT_EQ(payload, binary);
  EXPECT_EQ(consumed, framed.size());
}

TEST(FramingTest, BackToBackFramesParseSequentially) {
  std::string buf = EncodeFrame("first") + EncodeFrame("second");
  std::string payload;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(buf, &payload, &consumed), FrameStatus::kComplete);
  EXPECT_EQ(payload, "first");
  buf.erase(0, consumed);
  ASSERT_EQ(TryParseFrame(buf, &payload, &consumed), FrameStatus::kComplete);
  EXPECT_EQ(payload, "second");
  EXPECT_EQ(consumed, buf.size());
}

TEST(FramingTest, StatusNamesAreDistinct) {
  EXPECT_STREQ(FrameStatusName(FrameStatus::kComplete), "COMPLETE");
  EXPECT_STRNE(FrameStatusName(FrameStatus::kBadMagic),
               FrameStatusName(FrameStatus::kOversized));
}

// ---------------------------------------------------------------------------
// ByteReader: underflow poisons the reader instead of reading junk.

TEST(ByteReaderTest, UnderflowPoisons) {
  ByteWriter w;
  w.U32(7);
  std::string bytes = w.Take();
  ByteReader r(bytes);
  uint32_t v = 0;
  EXPECT_TRUE(r.U32(&v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(r.AtEnd());
  uint64_t big = 0;
  EXPECT_FALSE(r.U64(&big));  // Past the end.
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.U32(&v));  // Stays poisoned.
  EXPECT_FALSE(r.AtEnd());
}

TEST(ByteReaderTest, StringLengthIsBoundsChecked) {
  ByteWriter w;
  w.U32(0xffffffffu);  // Declares a 4 GB string with no bytes behind it.
  std::string bytes = w.Take();
  ByteReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.Str(&s, 1u << 20));
  EXPECT_TRUE(r.failed());
}

TEST(ByteReaderTest, StringMaxLenEnforced) {
  ByteWriter w;
  w.Str("this string is too long");
  std::string bytes = w.Take();
  ByteReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.Str(&s, 4));
}

// ---------------------------------------------------------------------------
// Request/response codecs: total decoding of hostile payloads.

Graph MustGraph(int n, const std::vector<Edge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  GA_CHECK(g.ok());
  return *std::move(g);
}

Request MakeAlignRequest(const Graph& g1, const Graph& g2,
                         const std::string& algo) {
  Request req;
  req.type = RequestType::kAlign;
  req.align.algo = algo;
  req.align.assign = "JV";
  req.align.g1 = ToWire(g1);
  req.align.g2 = ToWire(g2);
  return req;
}

TEST(CodecTest, RequestRoundTrip) {
  Graph g1 = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph g2 = MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Request req = MakeAlignRequest(g1, g2, "NSD");
  req.align.deadline_ms = 1500;
  req.align.mem_limit_mb = 256;
  req.align.no_cache = true;

  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, RequestType::kAlign);
  EXPECT_EQ(decoded->align.algo, "NSD");
  EXPECT_EQ(decoded->align.assign, "JV");
  EXPECT_EQ(decoded->align.deadline_ms, 1500u);
  EXPECT_EQ(decoded->align.mem_limit_mb, 256u);
  EXPECT_TRUE(decoded->align.no_cache);
  EXPECT_EQ(decoded->align.g1.num_nodes, 4);
  EXPECT_EQ(decoded->align.g1.edges.size(), 3u);
  EXPECT_EQ(decoded->align.g2.edges.size(), 4u);
}

TEST(CodecTest, MalformedRequestsAreTypedErrors) {
  const std::string good =
      EncodeRequest(MakeAlignRequest(MustGraph(3, {{0, 1}, {1, 2}}),
                                     MustGraph(3, {{0, 1}}), "NSD"));
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"empty payload", ""},
      {"single byte", "\x02"},
      {"bad version", std::string("\xff", 1) + good.substr(1)},
      {"unknown request type", [&] {
         ByteWriter w;
         w.U32(kProtocolVersion);
         w.U8(99);
         return w.Take();
       }()},
      {"truncated align body", good.substr(0, good.size() / 2)},
      {"trailing junk", good + "zzz"},
      {"random garbage", "\x01\x00\x00\x00\x02garbagegarbage"},
  };
  for (const auto& [name, payload] : cases) {
    auto decoded = DecodeRequest(payload);
    ASSERT_FALSE(decoded.ok()) << name;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(CodecTest, RequestWithAbsurdNodeCountRejected) {
  ByteWriter w;
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(RequestType::kStats));
  w.I32(0x7fffffff);  // num_nodes far beyond the wire bound.
  w.U32(0);           // no edges
  auto decoded = DecodeRequest(w.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, ResponseRoundTrip) {
  Response resp;
  resp.code = ResponseCode::kCrash;
  resp.cache_hit = false;
  resp.elapsed_us = 123456;
  resp.message = "the aligner crashed (signal 11)";
  resp.body = std::string("\x00\x01\x02", 3);
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, ResponseCode::kCrash);
  EXPECT_EQ(decoded->elapsed_us, 123456u);
  EXPECT_EQ(decoded->message, resp.message);
  EXPECT_EQ(decoded->body, resp.body);
}

// The code byte is range-checked: the codes are dense from OK (0) to
// CONFLICT (15), and anything past that is named in the error.
TEST(CodecTest, ResponseCodeByteIsRangeChecked) {
  const std::vector<std::pair<uint8_t, bool>> cases = {
      {0, true}, {15, true}, {16, false}, {255, false}};
  for (const auto& [code, valid] : cases) {
    Response resp;
    resp.code = static_cast<ResponseCode>(code);
    auto decoded = DecodeResponse(EncodeResponse(resp));
    if (valid) {
      ASSERT_TRUE(decoded.ok()) << int{code} << ": "
                                << decoded.status().ToString();
      EXPECT_EQ(static_cast<int>(decoded->code), code);
    } else {
      ASSERT_FALSE(decoded.ok()) << int{code};
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(decoded.status().message().find("unknown response code " +
                                                std::to_string(code)),
                std::string::npos)
          << decoded.status().ToString();
    }
  }
}

TEST(CodecTest, AlignResultRoundTrip) {
  AlignResult r;
  r.mapping = {2, 0, 1, -1};
  r.mnc = 0.75;
  r.ec = 0.5;
  r.s3 = 0.25;
  r.align_seconds = 0.125;
  auto decoded = DecodeAlignResult(EncodeAlignResult(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->mapping, r.mapping);
  EXPECT_DOUBLE_EQ(decoded->mnc, 0.75);
  EXPECT_DOUBLE_EQ(decoded->align_seconds, 0.125);
}

TEST(CodecTest, ResponseCodesMatchExitCodes) {
  // The submit subcommand exits with the raw response code; the meanings
  // must stay aligned with common/exit_codes.h forever.
  EXPECT_EQ(static_cast<int>(ResponseCode::kDnf), kExitDnf);
  EXPECT_EQ(static_cast<int>(ResponseCode::kCrash), kExitCrash);
  EXPECT_EQ(static_cast<int>(ResponseCode::kOom), kExitOom);
  EXPECT_EQ(static_cast<int>(ResponseCode::kBusy), kExitBusy);
  EXPECT_EQ(static_cast<int>(ResponseCode::kShuttingDown), kExitShuttingDown);
  EXPECT_EQ(static_cast<int>(ResponseCode::kShed), kExitShed);
  EXPECT_EQ(static_cast<int>(ResponseCode::kQuarantined), kExitQuarantined);
}

TEST(CodecTest, RequestCarriesClientIdentity) {
  Request req;
  req.type = RequestType::kPing;
  req.client = "tenant-a";
  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->type, RequestType::kPing);
  EXPECT_EQ(decoded->client, "tenant-a");
}

TEST(CodecTest, ServerStatsResultRoundTrips) {
  ServerStatsResult r;
  r.workers = 4;
  r.uptime_seconds = 321.5;
  r.accepted = 1000;
  r.served = 998;
  r.busy_rejected = 7;
  r.quota_rejected = 3;
  r.shed = 2;
  r.quarantined = 5;
  r.quarantined_signatures = 1;
  r.watchdog_kills = 2;
  r.queue_depth = 4;
  r.in_flight = 4;
  r.cache_replayed = 12;
  r.cache_crc_skipped = 1;
  r.cache_truncated_bytes = 37;
  r.cache_append_errors = 2;
  r.cache_open_errors = 0;
  r.store_puts = 9;
  r.store_gets = 15;
  r.store_corrupt = 1;
  r.store_missing = 2;
  r.store_unavailable = 1;
  r.worker_restarts = {0, 2, 0, 1};
  auto decoded = DecodeServerStatsResult(EncodeServerStatsResult(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->workers, 4u);
  EXPECT_DOUBLE_EQ(decoded->uptime_seconds, 321.5);
  EXPECT_EQ(decoded->accepted, 1000u);
  EXPECT_EQ(decoded->served, 998u);
  EXPECT_EQ(decoded->busy_rejected, 7u);
  EXPECT_EQ(decoded->quota_rejected, 3u);
  EXPECT_EQ(decoded->shed, 2u);
  EXPECT_EQ(decoded->quarantined, 5u);
  EXPECT_EQ(decoded->quarantined_signatures, 1u);
  EXPECT_EQ(decoded->watchdog_kills, 2u);
  EXPECT_EQ(decoded->cache_replayed, 12u);
  EXPECT_EQ(decoded->cache_crc_skipped, 1u);
  EXPECT_EQ(decoded->cache_truncated_bytes, 37u);
  EXPECT_EQ(decoded->cache_append_errors, 2u);
  EXPECT_EQ(decoded->store_puts, 9u);
  EXPECT_EQ(decoded->store_gets, 15u);
  EXPECT_EQ(decoded->store_corrupt, 1u);
  EXPECT_EQ(decoded->store_missing, 2u);
  EXPECT_EQ(decoded->store_unavailable, 1u);
  EXPECT_EQ(decoded->worker_restarts, (std::vector<uint64_t>{0, 2, 0, 1}));
}

// ---------------------------------------------------------------------------
// Result cache.

TEST(CacheTest, KeyDependsOnEveryComponent) {
  const uint64_t base = ResultCache::Key(1, 2, "NSD", "JV");
  EXPECT_NE(base, ResultCache::Key(3, 2, "NSD", "JV"));
  EXPECT_NE(base, ResultCache::Key(1, 3, "NSD", "JV"));
  EXPECT_NE(base, ResultCache::Key(2, 1, "NSD", "JV"));  // Order matters.
  EXPECT_NE(base, ResultCache::Key(1, 2, "GRASP", "JV"));
  EXPECT_NE(base, ResultCache::Key(1, 2, "NSD", "MWM"));
  EXPECT_EQ(base, ResultCache::Key(1, 2, "NSD", "JV"));
  // Length-prefixing keeps ("AB","C") distinct from ("A","BC").
  EXPECT_NE(ResultCache::Key(1, 2, "AB", "C"), ResultCache::Key(1, 2, "A", "BC"));
}

TEST(CacheTest, GetPutAndStats) {
  ResultCache cache(1 << 20);
  std::string value;
  EXPECT_FALSE(cache.Get(42, &value));
  cache.Put(42, "result-a");
  ASSERT_TRUE(cache.Get(42, &value));
  EXPECT_EQ(value, "result-a");
  cache.Put(42, "result-b");  // Replace.
  ASSERT_TRUE(cache.Get(42, &value));
  EXPECT_EQ(value, "result-b");

  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
  EXPECT_EQ(stats.capacity_bytes, static_cast<uint64_t>(1 << 20));
}

TEST(CacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(30);  // Room for three 10-byte values.
  const std::string ten(10, 'x');
  cache.Put(1, ten);
  cache.Put(2, ten);
  cache.Put(3, ten);
  std::string value;
  ASSERT_TRUE(cache.Get(1, &value));  // Refresh 1: LRU order is now 2,3,1.
  cache.Put(4, ten);                  // Evicts 2.
  EXPECT_FALSE(cache.Get(2, &value));
  EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_TRUE(cache.Get(3, &value));
  EXPECT_TRUE(cache.Get(4, &value));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(CacheTest, ValueLargerThanCapacityNeverCached) {
  ResultCache cache(16);
  cache.Put(1, "tiny");
  cache.Put(2, std::string(64, 'y'));  // Larger than the whole cache.
  std::string value;
  EXPECT_FALSE(cache.Get(2, &value));
  EXPECT_TRUE(cache.Get(1, &value));  // The resident survived.
}

TEST(CacheTest, SnapshotIsLeastRecentlyUsedFirst) {
  ResultCache cache(1 << 20);
  cache.Put(1, "a");
  cache.Put(2, "b");
  cache.Put(3, "c");
  std::string v;
  ASSERT_TRUE(cache.Get(1, &v));  // 1 becomes most recent.
  const auto snapshot = cache.Snapshot();
  // LRU-first, so replaying the snapshot in order (as startup compaction
  // does) restores both the contents and the recency ranking.
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, 2u);
  EXPECT_EQ(snapshot[1].first, 3u);
  EXPECT_EQ(snapshot[2].first, 1u);
  EXPECT_EQ(snapshot[2].second, "a");
}

TEST(CacheTest, ConcurrentAccessIsSafe) {
  ResultCache cache(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      std::string value;
      for (int i = 0; i < 500; ++i) {
        uint64_t key = static_cast<uint64_t>((t * 131 + i) % 64);
        cache.Put(key, std::string(32, static_cast<char>('a' + t)));
        cache.Get(key, &value);
      }
    });
  }
  for (auto& th : threads) th.join();
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
  EXPECT_LE(stats.bytes, static_cast<uint64_t>(1 << 16));
}

// ---------------------------------------------------------------------------
// End-to-end daemon over a Unix socket.

std::string TempSocketPath(const char* tag) {
  // sockaddr_un caps paths at ~107 bytes, so keep it short and unique.
  return "/tmp/ga_srv_" + std::string(tag) + "_" + std::to_string(getpid());
}

class ServerFixture : public ::testing::Test {
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
  }

  Result<Client> Connect(double timeout_seconds = 60.0) {
    ClientOptions copts;
    copts.socket_path = socket_path_;
    copts.timeout_seconds = timeout_seconds;
    return Client::Connect(copts);
  }

  Response MustCall(Client& client, const Request& req) {
    auto resp = client.Call(req);
    GA_CHECK(resp.ok());
    return *std::move(resp);
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerFixture, RejectsBadOptions) {
  ServerOptions opts;  // Neither socket nor port.
  EXPECT_FALSE(Server::Create(opts).ok());
  opts.socket_path = "/tmp/x";
  opts.port = 4242;  // Both transports at once.
  EXPECT_FALSE(Server::Create(opts).ok());
  opts.port = -1;
  opts.workers = 0;
  EXPECT_FALSE(Server::Create(opts).ok());
  opts.workers = 2;
  opts.socket_path = std::string(300, 'p');  // Exceeds sockaddr_un.
  EXPECT_FALSE(Server::Create(opts).ok());
}

TEST_F(ServerFixture, ConnectToMissingSocketFails) {
  ClientOptions copts;
  copts.socket_path = TempSocketPath("nonexistent");
  auto client = Client::Connect(copts);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerFixture, PingAndStatsAndEvaluate) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("basic");
  opts.workers = 2;
  StartServer(opts);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request ping;
  ping.type = RequestType::kPing;
  Response resp = MustCall(*client, ping);
  EXPECT_EQ(resp.code, ResponseCode::kOk);
  EXPECT_EQ(resp.message, "pong");

  // Stats over the wire must agree with local Graph computation.
  Graph g = MustGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  Request stats;
  stats.type = RequestType::kStats;
  stats.stats.g = ToWire(g);
  resp = MustCall(*client, stats);
  ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
  auto sr = DecodeStatsResult(resp.body);
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr->num_nodes, 5);
  EXPECT_EQ(sr->num_edges, 5);
  EXPECT_EQ(sr->components, 1);
  EXPECT_EQ(sr->content_hash, g.ContentHash());

  // Evaluate the identity mapping of a graph against itself: perfect scores.
  Request eval;
  eval.type = RequestType::kEvaluate;
  eval.evaluate.g1 = ToWire(g);
  eval.evaluate.g2 = ToWire(g);
  eval.evaluate.mapping = {0, 1, 2, 3, 4};
  eval.evaluate.truth = {0, 1, 2, 3, 4};
  resp = MustCall(*client, eval);
  ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
  auto er = DecodeEvaluateResult(resp.body);
  ASSERT_TRUE(er.ok());
  EXPECT_DOUBLE_EQ(er->ec, 1.0);
  ASSERT_TRUE(er->has_accuracy);
  EXPECT_DOUBLE_EQ(er->accuracy, 1.0);
}

TEST_F(ServerFixture, EvaluateRejectsMalformedMapping) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("badmap");
  opts.workers = 1;
  StartServer(opts);
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  Graph g = MustGraph(3, {{0, 1}, {1, 2}});
  Request eval;
  eval.type = RequestType::kEvaluate;
  eval.evaluate.g1 = ToWire(g);
  eval.evaluate.g2 = ToWire(g);
  eval.evaluate.mapping = {0, 1};  // Wrong size.
  Response resp = MustCall(*client, eval);
  EXPECT_EQ(resp.code, ResponseCode::kBadRequest);

  // The connection was closed after the bad request; a fresh one works.
  auto client2 = Connect();
  ASSERT_TRUE(client2.ok());
  Request ping;
  ping.type = RequestType::kPing;
  EXPECT_EQ(MustCall(*client2, ping).code, ResponseCode::kOk);
}

TEST_F(ServerFixture, AlignCachesAndIsolatesFaults) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("align");
  opts.workers = 2;
  opts.wall_slack_seconds = 5.0;
  StartServer(opts);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Rng rng(7);
  auto gen1 = ErdosRenyi(60, 0.15, &rng);
  auto gen2 = ErdosRenyi(60, 0.15, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Graph g1 = *std::move(gen1);
  Graph g2 = *std::move(gen2);
  Request align = MakeAlignRequest(g1, g2, "NSD");

  // Cold: a real isolated alignment.
  Response cold = MustCall(*client, align);
  ASSERT_EQ(cold.code, ResponseCode::kOk) << cold.message;
  EXPECT_FALSE(cold.cache_hit);
  auto cold_result = DecodeAlignResult(cold.body);
  ASSERT_TRUE(cold_result.ok());
  EXPECT_EQ(cold_result->mapping.size(), 60u);

  // Identical request: served from cache with an identical body.
  Response warm = MustCall(*client, align);
  ASSERT_EQ(warm.code, ResponseCode::kOk) << warm.message;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.body, cold.body);

  // no_cache bypasses the cache even though the entry exists.
  Request uncached = align;
  uncached.align.no_cache = true;
  Response fresh = MustCall(*client, uncached);
  ASSERT_EQ(fresh.code, ResponseCode::kOk) << fresh.message;
  EXPECT_FALSE(fresh.cache_hit);

  // A crashing alignment yields a typed CRASH response on its own
  // connection...
  Request crash = MakeAlignRequest(g1, g2, "_CRASH");
  Response crash_resp = MustCall(*client, crash);
  EXPECT_EQ(crash_resp.code, ResponseCode::kCrash) << crash_resp.message;

  // ...and the daemon keeps serving: the cached result is still there.
  Response after = MustCall(*client, align);
  ASSERT_EQ(after.code, ResponseCode::kOk) << after.message;
  EXPECT_TRUE(after.cache_hit);

  // An OOM-ing alignment under a memory cap is classified as OOM.
  Request oom = MakeAlignRequest(g1, g2, "_OOM");
  oom.align.mem_limit_mb = 256;
  Response oom_resp = MustCall(*client, oom);
  EXPECT_EQ(oom_resp.code, ResponseCode::kOom) << oom_resp.message;

  // A non-cooperative hang is SIGKILLed by the wall backstop → DNF.
  Request hang = MakeAlignRequest(g1, g2, "_HANG");
  hang.align.deadline_ms = 200;  // Backstop = 2 * 0.2 s + 5 s slack.
  Response hang_resp = MustCall(*client, hang);
  EXPECT_EQ(hang_resp.code, ResponseCode::kDnf) << hang_resp.message;

  // Unknown algorithm: an in-request error, not a dead daemon.
  Request bogus = MakeAlignRequest(g1, g2, "NO_SUCH_ALGO");
  Response bogus_resp = MustCall(*client, bogus);
  EXPECT_EQ(bogus_resp.code, ResponseCode::kError);

  ResultCache::Stats stats = server_->cache_stats();
  EXPECT_GE(stats.hits, 2u);
  EXPECT_GE(stats.entries, 1u);
}

TEST_F(ServerFixture, AdmissionControlSendsBusy) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("busy");
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.io_timeout_seconds = 30.0;
  StartServer(opts);

  // Occupy the single worker: ServeConnection holds the connection between
  // requests, so a client that has completed a ping owns the worker until
  // it disconnects.
  auto holder = Connect();
  ASSERT_TRUE(holder.ok());
  Request ping;
  ping.type = RequestType::kPing;
  ASSERT_EQ(MustCall(*holder, ping).code, ResponseCode::kOk);

  // Fill the admission queue with a second connection (accepted, queued,
  // never dispatched while the worker is held).
  auto queued = Connect();
  ASSERT_TRUE(queued.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The third connection must be refused immediately with a typed BUSY
  // response, not stalled.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  struct timeval tv = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string payload;
  auto got = ReadFrameFromFd(fd, &payload);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto busy = DecodeResponse(payload);
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(busy->code, ResponseCode::kBusy);
  EXPECT_NE(busy->message.find("admission queue full"), std::string::npos)
      << busy->message;
}

TEST_F(ServerFixture, GarbageBytesGetBadRequestNotCrash) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("garbage");
  opts.workers = 1;
  StartServer(opts);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[] = "not a frame at all, definitely not GAF1";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  struct timeval tv = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string payload;
  auto got = ReadFrameFromFd(fd, &payload);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, ResponseCode::kBadRequest);

  // The daemon survived the garbage.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  Request ping;
  ping.type = RequestType::kPing;
  EXPECT_EQ(MustCall(*client, ping).code, ResponseCode::kOk);
}

TEST_F(ServerFixture, ShutdownRequestStopsTheDaemon) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("shutdown");
  opts.workers = 2;
  StartServer(opts);

  auto client = Connect();
  ASSERT_TRUE(client.ok());
  Request shutdown;
  shutdown.type = RequestType::kShutdown;
  Response resp = MustCall(*client, shutdown);
  EXPECT_EQ(resp.code, ResponseCode::kOk);

  server_->Wait();  // Must return: the daemon stopped itself.
  server_.reset();
}

TEST_F(ServerFixture, ConcurrentClientsAreServed) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("conc");
  opts.workers = 4;
  StartServer(opts);

  Rng rng(11);
  auto gen1 = ErdosRenyi(40, 0.2, &rng);
  auto gen2 = ErdosRenyi(40, 0.2, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Graph g1 = *std::move(gen1);
  Graph g2 = *std::move(gen2);

  std::vector<std::thread> threads;
  std::vector<int> oks(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Connect();
      if (!client.ok()) return;
      // Mix of inline (stats) and isolated (align) work per client.
      Request stats;
      stats.type = RequestType::kStats;
      stats.stats.g = ToWire(g1);
      auto r1 = client->Call(stats);
      Request align = MakeAlignRequest(g1, g2, "NSD");
      auto r2 = client->Call(align);
      if (r1.ok() && r1->code == ResponseCode::kOk && r2.ok() &&
          r2->code == ResponseCode::kOk) {
        oks[t] = 1;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(oks[t], 1) << "client " << t;
}

TEST_F(ServerFixture, ForeignThreadsDoNotBlockIsolatedAligns) {
  // Isolated aligns run in helpers forked from the zygote, never in a fork
  // of this multi-threaded process, so threads nobody accounts for (here
  // two idle ones) cannot make the daemon refuse an alignment.
  std::atomic<bool> stop{false};
  std::vector<std::thread> foreign;
  for (int t = 0; t < 2; ++t) {
    foreign.emplace_back([&stop] {
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  ServerOptions opts;
  opts.socket_path = TempSocketPath("foreign");
  opts.workers = 2;
  StartServer(opts);

  Rng rng(23);
  auto g1 = ErdosRenyi(30, 0.2, &rng);
  auto g2 = ErdosRenyi(30, 0.2, &rng);
  GA_CHECK(g1.ok() && g2.ok());
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Request align = MakeAlignRequest(*g1, *g2, "NSD");
  align.align.no_cache = true;
  Response resp = MustCall(*client, align);
  EXPECT_EQ(resp.code, ResponseCode::kOk) << resp.message;

  stop.store(true);
  for (std::thread& t : foreign) t.join();
}

TEST_F(ServerFixture, WaitLeavesNoChildProcess) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("reap");
  opts.workers = 2;
  StartServer(opts);
  Rng rng(29);
  auto g1 = ErdosRenyi(30, 0.2, &rng);
  auto g2 = ErdosRenyi(30, 0.2, &rng);
  GA_CHECK(g1.ok() && g2.ok());
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(MustCall(*client, MakeAlignRequest(*g1, *g2, "NSD")).code,
            ResponseCode::kOk);

  // The zygote is this process's only child; Wait() reaps it, and its
  // helpers and their children die with it.
  server_->Shutdown();
  server_->Wait();
  errno = 0;
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------------------------------
// Overload robustness (DESIGN.md §14): quarantine, shedding, quotas, and the
// kServerStats introspection request.

TEST_F(ServerFixture, QuarantineTripsAtThresholdAndIsPerSignature) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("quar");
  opts.workers = 2;
  opts.wall_slack_seconds = 5.0;
  opts.quarantine_threshold = 2;
  StartServer(opts);

  Rng rng(17);
  auto gen1 = ErdosRenyi(40, 0.15, &rng);
  auto gen2 = ErdosRenyi(40, 0.15, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Graph g1 = *std::move(gen1);
  Graph g2 = *std::move(gen2);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Below the threshold every attempt really forks and gets a typed CRASH.
  Request crash = MakeAlignRequest(g1, g2, "_CRASH");
  EXPECT_EQ(MustCall(*client, crash).code, ResponseCode::kCrash);
  EXPECT_EQ(MustCall(*client, crash).code, ResponseCode::kCrash);

  // At the threshold the signature is quarantined: typed QUARANTINED, no
  // fork, and it stays that way on every further attempt.
  Response quarantined = MustCall(*client, crash);
  EXPECT_EQ(quarantined.code, ResponseCode::kQuarantined)
      << quarantined.message;
  EXPECT_NE(quarantined.message.find("quarantined"), std::string::npos)
      << quarantined.message;
  EXPECT_EQ(MustCall(*client, crash).code, ResponseCode::kQuarantined);

  // Quarantine is per (g1, g2, algo) signature: a healthy align of the very
  // same graph pair is untouched.
  Response healthy = MustCall(*client, MakeAlignRequest(g1, g2, "NSD"));
  EXPECT_EQ(healthy.code, ResponseCode::kOk) << healthy.message;

  ServerStatsResult stats = server_->stats();
  EXPECT_EQ(stats.quarantined_signatures, 1u);
  EXPECT_GE(stats.quarantined, 2u);
}

TEST_F(ServerFixture, SuccessResetsTheConsecutiveFaultCount) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("quarclr");
  opts.workers = 2;
  opts.wall_slack_seconds = 5.0;
  opts.quarantine_threshold = 2;
  StartServer(opts);

  // _CRASH and NSD on the same pair are different signatures, so interleave
  // crashes of one signature with its own successes via no_cache: impossible
  // — a signature either crashes or it doesn't. Instead verify the clearing
  // path with the quarantine disabled counter: one crash, then stats shows
  // no quarantined signature (count 1 < threshold 2).
  Rng rng(19);
  auto gen1 = ErdosRenyi(40, 0.15, &rng);
  auto gen2 = ErdosRenyi(40, 0.15, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Graph g1 = *std::move(gen1);
  Graph g2 = *std::move(gen2);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(MustCall(*client, MakeAlignRequest(g1, g2, "_CRASH")).code,
            ResponseCode::kCrash);
  ServerStatsResult stats = server_->stats();
  EXPECT_EQ(stats.quarantined_signatures, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(ServerFixture, ShedAnswersRequestsWhoseQueueWaitAteTheDeadline) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("shed");
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.shed = true;
  StartServer(opts);

  // Occupy the single worker with a connected client that already completed
  // a request (it holds its worker until it disconnects).
  auto holder_conn = Connect();
  ASSERT_TRUE(holder_conn.ok());
  auto holder = std::make_unique<Client>(*std::move(holder_conn));
  Request ping;
  ping.type = RequestType::kPing;
  ASSERT_EQ(MustCall(*holder, ping).code, ResponseCode::kOk);

  // Park a raw connection with an already-written align request carrying a
  // 100 ms deadline; it sits in the admission queue while the worker is
  // held, far past that deadline.
  Rng rng(23);
  auto gen1 = ErdosRenyi(30, 0.2, &rng);
  auto gen2 = ErdosRenyi(30, 0.2, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Request align = MakeAlignRequest(*gen1, *gen2, "NSD");
  align.align.deadline_ms = 100;

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  struct timeval tv = {10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ASSERT_TRUE(WriteFrameToFd(fd, EncodeRequest(align)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Release the worker; the dequeued request has outwaited its deadline and
  // must be shed, not forked into guaranteed-late work.
  holder.reset();
  std::string payload;
  auto got = ReadFrameFromFd(fd, &payload);
  ::close(fd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  auto resp = DecodeResponse(payload);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, ResponseCode::kShed) << resp->message;
  EXPECT_NE(resp->message.find("shed"), std::string::npos) << resp->message;
  EXPECT_EQ(server_->stats().shed, 1u);
}

TEST_F(ServerFixture, QuotaRejectsOnlyTheGreedyClient) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("quota");
  opts.workers = 2;
  opts.wall_slack_seconds = 5.0;
  opts.quota_rps = 0.5;  // Burst of 1 token; ~2 s to refill.
  StartServer(opts);

  Rng rng(29);
  auto gen1 = ErdosRenyi(20, 0.2, &rng);
  auto gen2 = ErdosRenyi(20, 0.2, &rng);
  GA_CHECK(gen1.ok() && gen2.ok());
  Graph g1 = *std::move(gen1);
  Graph g2 = *std::move(gen2);

  auto greedy = Connect();
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  Request align = MakeAlignRequest(g1, g2, "NSD");
  align.client = "greedy";
  EXPECT_EQ(MustCall(*greedy, align).code, ResponseCode::kOk);

  // The burst is spent; the immediate follow-up from the same client is a
  // typed BUSY naming the quota.
  Response over = MustCall(*greedy, align);
  EXPECT_EQ(over.code, ResponseCode::kBusy) << over.message;
  EXPECT_NE(over.message.find("quota"), std::string::npos) << over.message;

  // Another client has its own bucket and is unaffected (cache hit from the
  // greedy client's successful align — quota is checked before the cache).
  auto polite = Connect();
  ASSERT_TRUE(polite.ok()) << polite.status().ToString();
  Request polite_align = align;
  polite_align.client = "polite";
  EXPECT_EQ(MustCall(*polite, polite_align).code, ResponseCode::kOk);

  // Pings are never quota-gated: health checks keep working while a client
  // is throttled.
  Request ping;
  ping.type = RequestType::kPing;
  ping.client = "greedy";
  EXPECT_EQ(MustCall(*greedy, ping).code, ResponseCode::kOk);

  EXPECT_GE(server_->stats().quota_rejected, 1u);
}

TEST_F(ServerFixture, ServerStatsRequestReportsLiveCounters) {
  ServerOptions opts;
  opts.socket_path = TempSocketPath("sstats");
  opts.workers = 3;
  StartServer(opts);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Request ping;
  ping.type = RequestType::kPing;
  ASSERT_EQ(MustCall(*client, ping).code, ResponseCode::kOk);

  Request stats_req;
  stats_req.type = RequestType::kServerStats;
  Response resp = MustCall(*client, stats_req);
  ASSERT_EQ(resp.code, ResponseCode::kOk) << resp.message;
  auto stats = DecodeServerStatsResult(resp.body);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->workers, 3u);
  EXPECT_GE(stats->uptime_seconds, 0.0);
  EXPECT_GE(stats->accepted, 1u);
  EXPECT_GE(stats->served, 1u);  // The ping that preceded this request.
  EXPECT_EQ(stats->in_flight, 1u);  // This very request.
  EXPECT_EQ(stats->watchdog_kills, 0u);
  ASSERT_EQ(stats->worker_restarts.size(), 3u);
  for (uint64_t restarts : stats->worker_restarts) {
    EXPECT_EQ(restarts, 0u);
  }
  // The wire payload and the in-process accessor agree.
  EXPECT_EQ(server_->stats().workers, stats->workers);
}

}  // namespace
}  // namespace graphalign
