// Tests for the HTTP/JSON gateway (DESIGN.md §16): the hand-rolled HTTP
// parser (table-driven over hostile inputs), the strict JSON codec, the
// pinned ResponseCode→HTTP status mapping, the kAlignBatch execution path
// (amortized graph resolution, partial outcomes), and an end-to-end
// gateway+daemon pair exercised over real TCP sockets — every route, every
// error mapping, oversize/slowloris/overload hardening, and concurrent
// clients.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/exit_codes.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "gateway/gateway.h"
#include "gateway/http.h"
#include "gateway/json.h"
#include "graph/graph.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/graph_store.h"

namespace graphalign {
namespace {

// ---------------------------------------------------------------------------
// HTTP parser: every byte sequence maps to a typed outcome.

struct HttpCase {
  const char* name;
  std::string input;
  HttpParseStatus want;
};

TEST(HttpParserTest, TableOfHostileInputs) {
  const HttpLimits limits;
  const HttpCase cases[] = {
      {"empty", "", HttpParseStatus::kIncomplete},
      {"partial request line", "GET /heal", HttpParseStatus::kIncomplete},
      {"head without blank line", "GET / HTTP/1.1\r\nHost: x\r\n",
       HttpParseStatus::kIncomplete},
      {"minimal GET", "GET /healthz HTTP/1.1\r\n\r\n",
       HttpParseStatus::kComplete},
      {"http 1.0", "GET / HTTP/1.0\r\n\r\n", HttpParseStatus::kComplete},
      {"unsupported version", "GET / HTTP/2.0\r\n\r\n", HttpParseStatus::kBad},
      {"one space", "GET/ HTTP/1.1\r\n\r\n", HttpParseStatus::kBad},
      {"three spaces", "GET / x HTTP/1.1\r\n\r\n", HttpParseStatus::kBad},
      {"empty method", " / HTTP/1.1\r\n\r\n", HttpParseStatus::kBad},
      {"method with ctl", "G\x01T / HTTP/1.1\r\n\r\n", HttpParseStatus::kBad},
      {"absolute-form target", "GET http://x/ HTTP/1.1\r\n\r\n",
       HttpParseStatus::kBad},
      {"control byte in target", "GET /a\tb HTTP/1.1\r\n\r\n",
       HttpParseStatus::kBad},
      {"header without colon", "GET / HTTP/1.1\r\nHostx\r\n\r\n",
       HttpParseStatus::kBad},
      {"empty header name", "GET / HTTP/1.1\r\n: v\r\n\r\n",
       HttpParseStatus::kBad},
      // Space before the colon is the classic request-smuggling shape.
      {"space in header name", "GET / HTTP/1.1\r\nHost : x\r\n\r\n",
       HttpParseStatus::kBad},
      {"transfer-encoding",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       HttpParseStatus::kUnsupported},
      {"bad content-length", "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
       HttpParseStatus::kBad},
      {"negative content-length",
       "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", HttpParseStatus::kBad},
      {"conflicting content-lengths",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx",
       HttpParseStatus::kBad},
      {"duplicate equal content-lengths",
       "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
       HttpParseStatus::kComplete},
      {"body not yet arrived", "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
       HttpParseStatus::kIncomplete},
      {"body complete", "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
       HttpParseStatus::kComplete},
      {"declared body over cap",
       "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
       HttpParseStatus::kBodyTooLarge},
      {"huge content-length",
       "POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
       HttpParseStatus::kBad},
  };
  for (const HttpCase& c : cases) {
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseHttpRequest(c.input, limits, &request, &consumed, &error),
              c.want)
        << c.name << " error=" << error;
  }
}

TEST(HttpParserTest, HeadFloodIsRejectedAtTheCap) {
  // A drip of headers with no terminating blank line must flip from
  // kIncomplete to kTooLarge the moment the cap is crossed — the parser
  // never asks the caller to buffer an unbounded head.
  HttpLimits limits;
  limits.max_head_bytes = 256;
  std::string flood = "GET / HTTP/1.1\r\n";
  HttpRequest request;
  size_t consumed = 0;
  std::string error;
  while (flood.size() <= limits.max_head_bytes) {
    EXPECT_EQ(ParseHttpRequest(flood, limits, &request, &consumed, &error),
              HttpParseStatus::kIncomplete);
    flood += "X-Pad: yyyyyyyyyyyyyyyy\r\n";
  }
  EXPECT_EQ(ParseHttpRequest(flood, limits, &request, &consumed, &error),
            HttpParseStatus::kTooLarge);
  // Same cap when the terminator did arrive but the head is oversized.
  flood += "\r\n";
  EXPECT_EQ(ParseHttpRequest(flood, limits, &request, &consumed, &error),
            HttpParseStatus::kTooLarge);
}

TEST(HttpParserTest, TooManyHeaders) {
  HttpLimits limits;
  limits.max_headers = 4;
  std::string req = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) req += "H" + std::to_string(i) + ": v\r\n";
  req += "\r\n";
  HttpRequest request;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(ParseHttpRequest(req, limits, &request, &consumed, &error),
            HttpParseStatus::kTooLarge);
}

TEST(HttpParserTest, ParsesFieldsAndConsumesExactly) {
  const std::string raw =
      "POST /v1/align HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type:  application/json \r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "bodyNEXT";
  HttpRequest request;
  size_t consumed = 0;
  std::string error;
  const HttpLimits limits;
  ASSERT_EQ(ParseHttpRequest(raw, limits, &request, &consumed, &error),
            HttpParseStatus::kComplete);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/align");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.Header("host"), "localhost");
  EXPECT_EQ(request.Header("content-type"), "application/json");
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(consumed, raw.size() - 4);  // "NEXT" belongs to the next request.
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParserTest, KeepAliveSemantics) {
  const HttpLimits limits;
  HttpRequest request;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
                             limits, &request, &consumed, &error),
            HttpParseStatus::kComplete);
  EXPECT_FALSE(request.KeepAlive());
  ASSERT_EQ(ParseHttpRequest("GET / HTTP/1.0\r\n\r\n", limits, &request,
                             &consumed, &error),
            HttpParseStatus::kComplete);
  EXPECT_FALSE(request.KeepAlive());
  ASSERT_EQ(ParseHttpRequest("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                             limits, &request, &consumed, &error),
            HttpParseStatus::kComplete);
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParserTest, RandomBlobsAreTyped) {
  // Cheap in-binary fuzz (the ASan pass re-covers this via
  // protocol_fuzz_test): random bytes must never crash the parser.
  uint64_t state = 0x687474705f66757aull;  // "http_fuz"
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    return z ^ (z >> 31);
  };
  const HttpLimits limits;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob;
    const size_t len = next() % 200;
    for (size_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(next() & 0xff));
    }
    if (next() % 2 == 0) blob = "GET / HTTP/1.1\r\n" + blob;
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    (void)ParseHttpRequest(blob, limits, &request, &consumed, &error);
  }
}

TEST(HttpResponseTest, EncodesFraming) {
  const std::string resp = EncodeHttpResponse(404, "application/json",
                                              "{\"a\":1}", false);
  EXPECT_EQ(resp.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 7), "{\"a\":1}");
  const std::string keep = EncodeHttpResponse(200, "text/plain", "ok", true);
  EXPECT_EQ(keep.find("Connection: close"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON codec.

TEST(JsonTest, ParsesAndDumpsRoundTrip) {
  auto v = ParseJson(
      R"({"algo":"NSD","n":3,"edges":[[0,1],[1,2]],"flag":true,"null":null,)"
      R"("f":-2.5})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Get("algo").AsString(), "NSD");
  EXPECT_EQ(v->Get("edges").AsArray().size(), 2u);
  EXPECT_TRUE(v->Get("flag").AsBool());
  EXPECT_TRUE(v->Get("null").is_null());
  EXPECT_TRUE(v->Has("null"));
  EXPECT_FALSE(v->Has("absent"));
  EXPECT_TRUE(v->Get("absent").is_null());
  EXPECT_EQ(v->Get("f").AsNumber(), -2.5);
  auto again = ParseJson(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(), v->Dump());
}

TEST(JsonTest, StringEscapes) {
  auto v = ParseJson(R"(["a\"b\\c\n\t\u0041\u00e9"])");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsArray()[0].AsString(), "a\"b\\c\n\tA\xc3\xa9");
  EXPECT_EQ(JsonEscape("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
}

TEST(JsonTest, RejectionsAreTyped) {
  const char* bad[] = {
      "",           "{",           "[1,]",       "{\"a\":}",  "tru",
      "01",         "1.",          "\"\\x\"",    "\"",        "[1] trailing",
      "{\"a\" 1}",  "nan",         "infinity",   "+1",        "1e999",
  };
  for (const char* text : bad) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "'" << text << "' parsed";
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JsonTest, DepthCapHolds) {
  std::string deep(kMaxJsonDepth + 8, '[');
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string nested;
  for (size_t i = 0; i < kMaxJsonDepth + 8; ++i) nested += "{\"a\":";
  EXPECT_FALSE(ParseJson(nested).ok());
  // At the cap it still parses.
  std::string ok_depth(kMaxJsonDepth - 1, '[');
  ok_depth += std::string(kMaxJsonDepth - 1, ']');
  EXPECT_TRUE(ParseJson(ok_depth).ok());
}

TEST(JsonTest, AsInt64EnforcesIntegralityAndRange) {
  int64_t out = 0;
  EXPECT_TRUE(JsonValue::Number(42).AsInt64(&out, 0, 100));
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(JsonValue::Number(42.5).AsInt64(&out, 0, 100));
  EXPECT_FALSE(JsonValue::Number(101).AsInt64(&out, 0, 100));
  EXPECT_FALSE(JsonValue::Number(-1).AsInt64(&out, 0, 100));
  EXPECT_FALSE(JsonValue::Str("42").AsInt64(&out, 0, 100));
}

// ---------------------------------------------------------------------------
// The pinned status mapping.

TEST(StatusMappingTest, EveryResponseCodeMapsToItsPinnedStatus) {
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kOk), 200);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kAccepted), 202);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kPartial), 207);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kBadRequest), 400);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kNoGraph), 404);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kNoJob), 404);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kQuarantined), 409);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kConflict), 409);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kBusy), 429);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kShed), 503);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kShuttingDown), 503);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kDnf), 504);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kError), 500);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kCrash), 500);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kOom), 500);
  EXPECT_EQ(HttpStatusForResponseCode(ResponseCode::kNumerical), 500);
}

TEST(StatusMappingTest, PartialSharesTheExitCode) {
  EXPECT_EQ(static_cast<int>(ResponseCode::kPartial), kExitPartial);
  EXPECT_STREQ(ResponseCodeName(ResponseCode::kPartial), "PARTIAL");
}

// ---------------------------------------------------------------------------
// Batch codec + request building.

TEST(BatchCodecTest, ResultRoundTrips) {
  AlignBatchResult batch;
  batch.graph_loads = 2;
  BatchJobOutcome ok;
  ok.code = ResponseCode::kOk;
  ok.cache_hit = true;
  AlignResult inner;
  inner.mapping = {1, 0};
  inner.mnc = 0.5;
  ok.body = EncodeAlignResult(inner);
  batch.jobs.push_back(ok);
  BatchJobOutcome failed;
  failed.code = ResponseCode::kDnf;
  failed.message = "deadline exceeded";
  batch.jobs.push_back(failed);
  auto decoded = DecodeAlignBatchResult(EncodeAlignBatchResult(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph_loads, 2u);
  ASSERT_EQ(decoded->jobs.size(), 2u);
  EXPECT_EQ(decoded->jobs[0].code, ResponseCode::kOk);
  EXPECT_TRUE(decoded->jobs[0].cache_hit);
  EXPECT_EQ(decoded->jobs[1].code, ResponseCode::kDnf);
  EXPECT_EQ(decoded->jobs[1].message, "deadline exceeded");
  auto inner2 = DecodeAlignResult(decoded->jobs[0].body);
  ASSERT_TRUE(inner2.ok());
  EXPECT_EQ(inner2->mapping, inner.mapping);
}

TEST(BatchCodecTest, RequestRoundTripsAndValidates) {
  Request req;
  req.type = RequestType::kAlignBatch;
  req.client = "batcher";
  BatchGraphRef by_hash;
  by_hash.by_hash = true;
  by_hash.hash = 0x1122334455667788ull;
  req.align_batch.graphs.push_back(by_hash);
  BatchGraphRef inline_ref;
  inline_ref.inline_graph.num_nodes = 3;
  inline_ref.inline_graph.edges = {{0, 1}, {1, 2}};
  req.align_batch.graphs.push_back(inline_ref);
  BatchJob job;
  job.g1 = 0;
  job.g2 = 1;
  job.algo = "NSD";
  req.align_batch.jobs.push_back(job);
  auto decoded = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->align_batch.graphs.size(), 2u);
  EXPECT_TRUE(decoded->align_batch.graphs[0].by_hash);
  EXPECT_EQ(decoded->align_batch.graphs[0].hash, by_hash.hash);
  EXPECT_EQ(decoded->align_batch.graphs[1].inline_graph.edges.size(), 2u);
  ASSERT_EQ(decoded->align_batch.jobs.size(), 1u);
  EXPECT_EQ(decoded->align_batch.jobs[0].algo, "NSD");

  // A job referencing a graph outside the table must not decode.
  req.align_batch.jobs[0].g2 = 7;
  EXPECT_FALSE(DecodeRequest(EncodeRequest(req)).ok());
}

TEST(BatchCodecTest, JsonSchemaBuildsTheSameRequest) {
  auto doc = ParseJson(
      R"({"graphs":[{"hash":"1122334455667788"},{"n":3,"edges":[[0,1],[1,2]]}],)"
      R"("jobs":[{"g1":0,"g2":1,"algo":"NSD","deadline_ms":250,)"
      R"("no_cache":true}],"client":"batcher"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Request req;
  Status built = BatchRequestFromJson(*doc, &req);
  ASSERT_TRUE(built.ok()) << built.ToString();
  EXPECT_EQ(req.type, RequestType::kAlignBatch);
  EXPECT_EQ(req.client, "batcher");
  ASSERT_EQ(req.align_batch.graphs.size(), 2u);
  EXPECT_TRUE(req.align_batch.graphs[0].by_hash);
  EXPECT_EQ(req.align_batch.graphs[0].hash, 0x1122334455667788ull);
  ASSERT_EQ(req.align_batch.jobs.size(), 1u);
  EXPECT_EQ(req.align_batch.jobs[0].deadline_ms, 250u);
  EXPECT_TRUE(req.align_batch.jobs[0].no_cache);

  // Violations are named: job index out of range, missing algo, bad hash.
  for (const char* bad : {
           R"({"graphs":[{"n":2,"edges":[]}],"jobs":[{"g1":0,"g2":5,"algo":"NSD"}]})",
           R"({"graphs":[{"n":2,"edges":[]}],"jobs":[{"g1":0,"g2":0}]})",
           R"({"graphs":[{"hash":"xyz"}],"jobs":[{"g1":0,"g2":0,"algo":"NSD"}]})",
           R"({"graphs":[],"jobs":[{"g1":0,"g2":0,"algo":"NSD"}]})",
           R"({"graphs":[{"n":2,"edges":[]}],"jobs":[]})",
       }) {
    Request r;
    EXPECT_FALSE(BatchRequestFromJson(*ParseJson(bad), &r).ok()) << bad;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: daemon + gateway over real sockets.

std::string TempPath(const char* tag) {
  return "/tmp/ga_gw_" + std::string(tag) + "_" + std::to_string(getpid());
}

Graph MustGraph(int n, const std::vector<Edge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  GA_CHECK(g.ok());
  return *std::move(g);
}

// Blocking HTTP exchange: connect, send raw bytes, read to EOF, split the
// status code and body out of the response.
struct HttpReply {
  bool ok = false;
  int status = 0;
  std::string raw;
  std::string body;
};

int ConnectTcp(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

HttpReply ReadReply(int fd) {
  HttpReply reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.raw.append(chunk, static_cast<size_t>(n));
  }
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() >= 12) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
    reply.ok = true;
  }
  const size_t body = reply.raw.find("\r\n\r\n");
  if (body != std::string::npos) reply.body = reply.raw.substr(body + 4);
  return reply;
}

HttpReply DoRaw(int port, const std::string& bytes) {
  HttpReply reply;
  const int fd = ConnectTcp(port);
  if (fd < 0) return reply;
  (void)send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  shutdown(fd, SHUT_WR);
  reply = ReadReply(fd);
  close(fd);
  return reply;
}

HttpReply Get(int port, const std::string& path) {
  return DoRaw(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n"
                     "Connection: close\r\n\r\n");
}

HttpReply Post(int port, const std::string& path, const std::string& body) {
  return DoRaw(port, "POST " + path + " HTTP/1.1\r\nHost: t\r\n"
                     "Content-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body);
}

class GatewayFixture : public ::testing::Test {
 protected:
  void StartDaemon(ServerOptions options) {
    if (options.socket_path.empty()) {
      options.socket_path = TempPath("sock");
    }
    socket_path_ = options.socket_path;
    auto server = Server::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = *std::move(server);
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartGateway(GatewayOptions options = {}) {
    options.backend.socket_path = socket_path_;
    auto gateway = Gateway::Create(options);
    ASSERT_TRUE(gateway.ok()) << gateway.status().ToString();
    gateway_ = *std::move(gateway);
    ASSERT_TRUE(gateway_->Start().ok());
    ASSERT_GT(gateway_->port(), 0);
  }

  void TearDown() override {
    if (gateway_ != nullptr) {
      gateway_->Shutdown();
      gateway_->Wait();
    }
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }

  // The daemon's own counters, fetched over GAF1 like any client would.
  ServerStatsResult DaemonStats() {
    ClientOptions copts;
    copts.socket_path = socket_path_;
    auto client = Client::Connect(copts);
    GA_CHECK(client.ok());
    Request req;
    req.type = RequestType::kServerStats;
    auto resp = client->Call(req);
    GA_CHECK(resp.ok());
    auto stats = DecodeServerStatsResult(resp->body);
    GA_CHECK(stats.ok());
    return *stats;
  }

  int port() const { return gateway_->port(); }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Gateway> gateway_;
};

constexpr char kInlineAlignBody[] =
    R"({"algo":"NSD","g1":{"n":4,"edges":[[0,1],[1,2],[2,3]]},)"
    R"("g2":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}})";

TEST_F(GatewayFixture, HealthzAndRoutingAndErrors) {
  StartDaemon({});
  StartGateway();

  HttpReply reply = Get(port(), "/healthz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "ok\n");

  EXPECT_EQ(Get(port(), "/nope").status, 404);
  EXPECT_EQ(Get(port(), "/v1/align").status, 405);  // GET on a POST route.
  EXPECT_EQ(Post(port(), "/healthz", "").status, 405);
  EXPECT_EQ(Post(port(), "/v1/align", "not json").status, 400);
  EXPECT_EQ(Post(port(), "/v1/align", "{}").status, 400);  // No algo.
  EXPECT_EQ(Post(port(), "/v1/align",
                 R"({"algo":"NSD","g1":{"n":2,"edges":[]},)"
                 R"("g2_hash":"0011223344556677"})")
                .status,
            400);  // Mixed inline + hash.
  EXPECT_EQ(DoRaw(port(), "BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(DoRaw(port(), "POST /v1/align HTTP/1.1\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n")
                .status,
            501);

  const GatewayStats stats = gateway_->stats();
  EXPECT_GE(stats.requests, 9u);
  EXPECT_GE(stats.bad_requests, 5u);
}

TEST_F(GatewayFixture, AlignInlineMatchesDirectSubmit) {
  StartDaemon({});
  StartGateway();

  HttpReply reply = Post(port(), "/v1/align", kInlineAlignBody);
  ASSERT_EQ(reply.status, 200) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->Get("status").AsString(), "OK");
  ASSERT_EQ(body->Get("mapping").AsArray().size(), 4u);

  // The identical job over GAF1 must produce the identical mapping (the
  // smoke script re-proves this byte-for-byte against the CLI).
  ClientOptions copts;
  copts.socket_path = socket_path_;
  auto client = Client::Connect(copts);
  ASSERT_TRUE(client.ok());
  Request req;
  req.type = RequestType::kAlign;
  req.align.algo = "NSD";
  req.align.g1 = ToWire(MustGraph(4, {{0, 1}, {1, 2}, {2, 3}}));
  req.align.g2 = ToWire(MustGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  auto resp = client->Call(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->code, ResponseCode::kOk);
  auto direct = DecodeAlignResult(resp->body);
  ASSERT_TRUE(direct.ok());
  for (size_t i = 0; i < direct->mapping.size(); ++i) {
    int64_t via_http = -2;
    ASSERT_TRUE(body->Get("mapping").AsArray()[i].AsInt64(&via_http, -1,
                                                          1 << 20));
    EXPECT_EQ(via_http, direct->mapping[i]) << "node " << i;
  }

  // Unknown aligner: the daemon's typed ERROR surfaces as 500 with the
  // code name in the JSON body.
  reply = Post(port(), "/v1/align",
               R"({"algo":"BOGUS","g1":{"n":2,"edges":[[0,1]]},)"
               R"("g2":{"n":2,"edges":[[0,1]]}})");
  EXPECT_EQ(reply.status, 500);
  auto err_body = ParseJson(reply.body);
  ASSERT_TRUE(err_body.ok());
  EXPECT_EQ(err_body->Get("status").AsString(), "ERROR");
}

TEST_F(GatewayFixture, GraphStoreRoutesAndAlignByHash) {
  ServerOptions sopts;
  sopts.store_dir = TempPath("store");
  StartDaemon(sopts);
  StartGateway();

  HttpReply put = Post(port(), "/v1/graphs",
                       R"({"n":4,"edges":[[0,1],[1,2],[2,3]]})");
  ASSERT_EQ(put.status, 200) << put.raw;
  auto put_body = ParseJson(put.body);
  ASSERT_TRUE(put_body.ok());
  const std::string h1 = put_body->Get("hash").AsString();
  ASSERT_EQ(h1.size(), 16u);

  HttpReply put2 = Post(port(), "/v1/graphs",
                        R"({"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]})");
  ASSERT_EQ(put2.status, 200);
  const std::string h2 = ParseJson(put2.body)->Get("hash").AsString();

  EXPECT_EQ(Get(port(), "/v1/graphs/" + h1).status, 200);
  EXPECT_EQ(Get(port(), "/v1/graphs/0000000000000000").status, 404);
  EXPECT_EQ(Get(port(), "/v1/graphs/zz").status, 400);  // Not a hash.

  HttpReply align = Post(port(), "/v1/align",
                         R"({"algo":"NSD","g1_hash":")" + h1 +
                             R"(","g2_hash":")" + h2 + R"("})");
  ASSERT_EQ(align.status, 200) << align.raw;
  EXPECT_EQ(ParseJson(align.body)->Get("mapping").AsArray().size(), 4u);

  // A hash the store never held: NO_GRAPH → 404, name in the body.
  HttpReply missing = Post(port(), "/v1/align",
                           R"({"algo":"NSD","g1_hash":"00000000000000ff",)"
                           R"("g2_hash":")" + h2 + R"("})");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(ParseJson(missing.body)->Get("status").AsString(), "NO_GRAPH");
}

TEST_F(GatewayFixture, BatchAmortizesGraphLoads) {
  ServerOptions sopts;
  sopts.store_dir = TempPath("batchstore");
  StartDaemon(sopts);
  StartGateway();

  const std::string h1 =
      ParseJson(Post(port(), "/v1/graphs",
                     R"({"n":5,"edges":[[0,1],[1,2],[2,3],[3,4]]})")
                    .body)
          ->Get("hash")
          .AsString();
  const std::string h2 =
      ParseJson(Post(port(), "/v1/graphs",
                     R"({"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]})")
                    .body)
          ->Get("hash")
          .AsString();

  const uint64_t gets_before = DaemonStats().store_gets;

  // K=5 no_cache jobs over two store graphs: every job executes, yet the
  // graph table resolves each hash exactly once — the acceptance criterion
  // (≤ 2 opens for the whole batch, not 2K).
  std::string jobs;
  for (int i = 0; i < 5; ++i) {
    if (i > 0) jobs += ",";
    jobs += R"({"g1":0,"g2":1,"algo":"NSD","no_cache":true})";
  }
  HttpReply reply = Post(port(), "/v1/align:batch",
                         R"({"graphs":[{"hash":")" + h1 + R"("},{"hash":")" +
                             h2 + R"("}],"jobs":[)" + jobs + "]}");
  ASSERT_EQ(reply.status, 200) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  int64_t loads = -1;
  ASSERT_TRUE(body->Get("graph_loads").AsInt64(&loads, 0, 1000));
  EXPECT_EQ(loads, 2);
  ASSERT_EQ(body->Get("jobs").AsArray().size(), 5u);
  for (const JsonValue& job : body->Get("jobs").AsArray()) {
    EXPECT_EQ(job.Get("status").AsString(), "OK");
    EXPECT_EQ(job.Get("mapping").AsArray().size(), 5u);
  }

  const ServerStatsResult after = DaemonStats();
  EXPECT_EQ(after.store_gets - gets_before, 2u);
  EXPECT_GE(after.batches, 1u);
  EXPECT_GE(after.batch_jobs, 5u);
  EXPECT_EQ(after.batch_graph_loads, 2u);

  // Same batch with caching on: the first pass executes once and populates
  // the cache (2 more loads), the second is answered entirely from the
  // cache — an all-cached batch never touches the graph table at all.
  jobs.clear();
  for (int i = 0; i < 5; ++i) {
    if (i > 0) jobs += ",";
    jobs += R"({"g1":0,"g2":1,"algo":"NSD"})";
  }
  const std::string cached_batch = R"({"graphs":[{"hash":")" + h1 +
                                   R"("},{"hash":")" + h2 +
                                   R"("}],"jobs":[)" + jobs + "]}";
  reply = Post(port(), "/v1/align:batch", cached_batch);
  ASSERT_EQ(reply.status, 200) << reply.raw;
  reply = Post(port(), "/v1/align:batch", cached_batch);
  ASSERT_EQ(reply.status, 200) << reply.raw;
  body = ParseJson(reply.body);
  ASSERT_TRUE(body->Get("graph_loads").AsInt64(&loads, 0, 1000));
  EXPECT_EQ(loads, 0);
  for (const JsonValue& job : body->Get("jobs").AsArray()) {
    EXPECT_TRUE(job.Get("cache_hit").AsBool());
  }
  EXPECT_EQ(DaemonStats().store_gets - gets_before, 4u);
}

TEST_F(GatewayFixture, BatchPartialAndUniformFailures) {
  StartDaemon({});
  StartGateway();

  // Mixed outcomes: top-level 207 PARTIAL, per-job codes preserved.
  HttpReply reply = Post(
      port(), "/v1/align:batch",
      R"({"graphs":[{"n":3,"edges":[[0,1],[1,2]]}],)"
      R"("jobs":[{"g1":0,"g2":0,"algo":"NSD"},{"g1":0,"g2":0,"algo":"BOGUS"}]})");
  ASSERT_EQ(reply.status, 207) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("status").AsString(), "PARTIAL");
  ASSERT_EQ(body->Get("jobs").AsArray().size(), 2u);
  EXPECT_EQ(body->Get("jobs").AsArray()[0].Get("status").AsString(), "OK");
  EXPECT_EQ(body->Get("jobs").AsArray()[1].Get("status").AsString(), "ERROR");

  // Uniform failure: the shared code surfaces at the top (500 here), so
  // retry classification still works on whole batches.
  reply = Post(
      port(), "/v1/align:batch",
      R"({"graphs":[{"n":3,"edges":[[0,1],[1,2]]}],)"
      R"("jobs":[{"g1":0,"g2":0,"algo":"BOGUS"},{"g1":0,"g2":0,"algo":"NOPE"}]})");
  ASSERT_EQ(reply.status, 500) << reply.raw;
  body = ParseJson(reply.body);
  EXPECT_EQ(body->Get("status").AsString(), "ERROR");
  ASSERT_EQ(body->Get("jobs").AsArray().size(), 2u);
}

TEST_F(GatewayFixture, OversizeBodyAnswers413BeforeBuffering) {
  StartDaemon({});
  GatewayOptions gopts;
  gopts.limits.max_body_bytes = 1024;
  StartGateway(gopts);

  // Declaring past the cap is refused from the header alone — no body sent.
  HttpReply reply = DoRaw(port(),
                          "POST /v1/align HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 1000000\r\n\r\n");
  EXPECT_EQ(reply.status, 413);
  EXPECT_EQ(gateway_->stats().oversized, 1u);

  HttpLimits defaults;
  std::string huge_header =
      "GET /healthz HTTP/1.1\r\nX-Pad: " +
      std::string(defaults.max_head_bytes, 'y') + "\r\n\r\n";
  EXPECT_EQ(DoRaw(port(), huge_header).status, 431);
}

TEST_F(GatewayFixture, SlowRequestAnswers408) {
  StartDaemon({});
  GatewayOptions gopts;
  gopts.io_timeout_seconds = 0.4;
  StartGateway(gopts);

  // Send half a request and stall: the gateway must give up with 408
  // instead of holding the worker forever.
  const int fd = ConnectTcp(port());
  ASSERT_GE(fd, 0);
  const std::string half = "POST /v1/align HTTP/1.1\r\nContent-Le";
  ASSERT_EQ(send(fd, half.data(), half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(half.size()));
  HttpReply reply = ReadReply(fd);
  close(fd);
  EXPECT_EQ(reply.status, 408) << reply.raw;
  EXPECT_EQ(gateway_->stats().timeouts, 1u);
}

TEST_F(GatewayFixture, ConnectionLimitAnswers503AtAccept) {
  StartDaemon({});
  GatewayOptions gopts;
  gopts.workers = 1;
  gopts.max_connections = 1;
  gopts.io_timeout_seconds = 5.0;
  StartGateway(gopts);

  // Occupy the single slot with a half-sent request, then connect again:
  // the second connection must be turned away with a typed 503 now, not
  // queued behind the stalled one.
  const int held = ConnectTcp(port());
  ASSERT_GE(held, 0);
  const std::string half = "GET /healthz HTT";
  ASSERT_GT(send(held, half.data(), half.size(), MSG_NOSIGNAL), 0);
  // Give the worker a moment to claim the held connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  HttpReply reply = Get(port(), "/healthz");
  EXPECT_EQ(reply.status, 503) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("status").AsString(), "BUSY");
  // The accept-time rejection carries the standard backoff hint.
  EXPECT_NE(reply.raw.find("Retry-After:"), std::string::npos) << reply.raw;
  EXPECT_GE(gateway_->stats().rejected_overload, 1u);
  close(held);
}

TEST_F(GatewayFixture, KeepAliveServesSequentialRequests) {
  StartDaemon({});
  StartGateway();

  const int fd = ConnectTcp(port());
  ASSERT_GE(fd, 0);
  const std::string two =
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(send(fd, two.data(), two.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(two.size()));
  HttpReply reply = ReadReply(fd);
  close(fd);
  // Both pipelined requests answered on one connection.
  size_t first = reply.raw.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(reply.raw.find("HTTP/1.1 200", first + 1), std::string::npos);
}

TEST_F(GatewayFixture, StatsReportsBothLayers) {
  ServerOptions sopts;
  sopts.workers = 2;
  sopts.jobs_dir = TempPath("statsjobs");
  sopts.job_workers = 1;
  StartDaemon(sopts);
  StartGateway();

  ASSERT_EQ(Get(port(), "/healthz").status, 200);
  ASSERT_EQ(Post(port(), "/v1/align", kInlineAlignBody).status, 200);

  HttpReply reply = Get(port(), "/stats");
  ASSERT_EQ(reply.status, 200) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  const JsonValue& gw = body->Get("gateway");
  int64_t v = 0;
  ASSERT_TRUE(gw.Get("requests").AsInt64(&v, 1, 1 << 20));
  const JsonValue& daemon = body->Get("daemon");
  ASSERT_TRUE(daemon.is_object());
  // Forwarded calls carry the HTTP transport tag, so the daemon's
  // per-transport counter moves.
  ASSERT_TRUE(daemon.Get("served_http").AsInt64(&v, 1, 1 << 20));
  ASSERT_TRUE(daemon.Get("served").AsInt64(&v, 1, 1 << 20));
  // The durable-cache and restart counters `submit --stats` prints.
  for (const char* key : {"cache_crc_skipped", "cache_truncated_bytes",
                          "cache_append_errors", "cache_open_errors"}) {
    EXPECT_TRUE(daemon.Get(key).AsInt64(&v, 0, 1 << 20)) << key;
  }
  // One restart count per watchdog slot: two workers plus one job runner.
  const JsonValue& restarts = daemon.Get("worker_restarts");
  ASSERT_EQ(restarts.AsArray().size(), 3u);
  for (const JsonValue& r : restarts.AsArray()) {
    EXPECT_TRUE(r.AsInt64(&v, 0, 1 << 20));
  }
}

TEST_F(GatewayFixture, ConcurrentClientsAllSucceed) {
  StartDaemon({});
  GatewayOptions gopts;
  gopts.workers = 4;
  StartGateway(gopts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  const int p = port();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, p, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        HttpReply reply = (t + i) % 2 == 0
                              ? Get(p, "/healthz")
                              : Post(p, "/v1/align", kInlineAlignBody);
        if (reply.status != 200) ++failures[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

TEST_F(GatewayFixture, GatewayWithDeadBackendAnswers503) {
  // No daemon at all: the gateway stays up and reports the outage as a
  // typed 503, never a hang or a crash.
  socket_path_ = TempPath("deadsock");
  StartGateway();
  HttpReply reply = Get(port(), "/healthz");
  EXPECT_EQ(reply.status, 503);
  EXPECT_GE(gateway_->stats().backend_errors, 1u);
}

// ---------------------------------------------------------------------------
// Async jobs over HTTP (DESIGN.md §17).

HttpReply Delete(int port, const std::string& path) {
  return DoRaw(port, "DELETE " + path + " HTTP/1.1\r\nHost: t\r\n"
                     "Connection: close\r\n\r\n");
}

TEST_F(GatewayFixture, JobRoutesEndToEnd) {
  ServerOptions sopts;
  sopts.jobs_dir = TempPath("jobs");
  StartDaemon(sopts);
  StartGateway();

  // Submit: 202 with the job envelope, job id rendered as 16 hex digits.
  const std::string job_body =
      R"({"idem_key":"e2e-key",)" + std::string(kInlineAlignBody).substr(1);
  HttpReply sub = Post(port(), "/v1/jobs", job_body);
  ASSERT_EQ(sub.status, 202) << sub.raw;
  auto sub_json = ParseJson(sub.body);
  ASSERT_TRUE(sub_json.ok()) << sub.body;
  EXPECT_EQ(sub_json->Get("status").AsString(), "ACCEPTED");
  const std::string id = sub_json->Get("job_id").AsString();
  ASSERT_EQ(id.size(), 16u);

  // Resubmitting the identical content dedupes onto the same job id.
  HttpReply dup = Post(port(), "/v1/jobs", job_body);
  ASSERT_EQ(dup.status, 202) << dup.raw;
  auto dup_json = ParseJson(dup.body);
  ASSERT_TRUE(dup_json.ok());
  EXPECT_EQ(dup_json->Get("job_id").AsString(), id);
  EXPECT_TRUE(dup_json->Get("existing").AsBool());

  // The same key bound to different content is a typed 409 CONFLICT.
  const std::string clashing =
      R"({"idem_key":"e2e-key","algo":"NSD","g1":{"n":2,"edges":[[0,1]]},)"
      R"("g2":{"n":2,"edges":[[0,1]]}})";
  HttpReply clash = Post(port(), "/v1/jobs", clashing);
  EXPECT_EQ(clash.status, 409) << clash.raw;
  EXPECT_EQ(ParseJson(clash.body)->Get("status").AsString(), "CONFLICT");

  // Malformed and unknown ids get their own typed answers.
  EXPECT_EQ(Get(port(), "/v1/jobs/zz").status, 400);
  HttpReply missing = Get(port(), "/v1/jobs/00000000000000ff");
  EXPECT_EQ(missing.status, 404) << missing.raw;
  EXPECT_EQ(ParseJson(missing.body)->Get("status").AsString(), "NO_JOB");

  // Poll the job to DONE; the status answer then embeds the result.
  JsonValue done;
  for (int i = 0; i < 200; ++i) {
    HttpReply poll = Get(port(), "/v1/jobs/" + id);
    ASSERT_TRUE(poll.ok) << poll.raw;
    auto poll_json = ParseJson(poll.body);
    ASSERT_TRUE(poll_json.ok()) << poll.body;
    const std::string state = poll_json->Get("state").AsString();
    ASSERT_NE(state, "FAILED") << poll.body;
    if (state == "DONE") {
      ASSERT_EQ(poll.status, 200);
      done = *poll_json;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(done.is_object()) << "job never reached DONE";
  EXPECT_EQ(done.Get("terminal_status").AsString(), "OK");
  // The embedded mapping is the same alignment a synchronous POST
  // /v1/align of the identical body produces.
  ASSERT_EQ(done.Get("result").Get("mapping").AsArray().size(), 4u);
  HttpReply sync = Post(port(), "/v1/align", kInlineAlignBody);
  ASSERT_EQ(sync.status, 200);
  auto sync_json = ParseJson(sync.body);
  ASSERT_TRUE(sync_json.ok());
  for (size_t i = 0; i < 4; ++i) {
    int64_t via_job = -2, via_sync = -3;
    ASSERT_TRUE(done.Get("result").Get("mapping").AsArray()[i].AsInt64(
        &via_job, -1, 1 << 20));
    ASSERT_TRUE(sync_json->Get("mapping").AsArray()[i].AsInt64(&via_sync, -1,
                                                               1 << 20));
    EXPECT_EQ(via_job, via_sync) << "node " << i;
  }

  // Cancelling a finished job is a typed 409; the daemon's job counters
  // are visible through GET /stats.
  HttpReply cancel = Delete(port(), "/v1/jobs/" + id);
  EXPECT_EQ(cancel.status, 409) << cancel.raw;
  HttpReply stats = Get(port(), "/stats");
  ASSERT_EQ(stats.status, 200);
  auto stats_json = ParseJson(stats.body);
  ASSERT_TRUE(stats_json.ok());
  int64_t v = 0;
  ASSERT_TRUE(
      stats_json->Get("daemon").Get("jobs_submitted").AsInt64(&v, 1, 1 << 20));
  ASSERT_TRUE(
      stats_json->Get("daemon").Get("jobs_deduped").AsInt64(&v, 1, 1 << 20));
}

TEST_F(GatewayFixture, CancelAcceptedJobBeforeItRuns) {
  ServerOptions sopts;
  sopts.jobs_dir = TempPath("canceljobs");
  sopts.job_workers = 1;
  StartDaemon(sopts);
  StartGateway();

  // Wedge the single job worker with a slow job, then submit and cancel a
  // second one while it is still ACCEPTED.
  ASSERT_TRUE(
      ActivateFailpoint("jobs.exec.delay", "delay-ms:700").ok());
  ASSERT_EQ(Post(port(), "/v1/jobs", kInlineAlignBody).status, 202);
  const std::string second =
      R"({"algo":"NSD","g1":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4]]},)"
      R"("g2":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]}})";
  HttpReply sub = Post(port(), "/v1/jobs", second);
  ASSERT_EQ(sub.status, 202) << sub.raw;
  const std::string id = ParseJson(sub.body)->Get("job_id").AsString();
  HttpReply cancel = Delete(port(), "/v1/jobs/" + id);
  ASSERT_EQ(cancel.status, 200) << cancel.raw;
  auto cancel_json = ParseJson(cancel.body);
  ASSERT_TRUE(cancel_json.ok());
  EXPECT_EQ(cancel_json->Get("state").AsString(), "CANCELLED");
  // A cancelled job stays cancelled: polling reports the terminal verdict.
  HttpReply poll = Get(port(), "/v1/jobs/" + id);
  EXPECT_EQ(ParseJson(poll.body)->Get("state").AsString(), "CANCELLED");
  DeactivateAllFailpoints();
}

TEST_F(GatewayFixture, JobsDisabledDaemonAnswersTypedError) {
  StartDaemon({});  // No --jobs-dir: synchronous-only.
  StartGateway();
  HttpReply reply = Post(port(), "/v1/jobs", kInlineAlignBody);
  EXPECT_EQ(reply.status, 500) << reply.raw;
  auto body = ParseJson(reply.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("status").AsString(), "ERROR");
}

TEST_F(GatewayFixture, QuotaRejectionCarriesRetryAfterHint) {
  ServerOptions sopts;
  sopts.quota_rps = 0.5;  // Burst max(1, 2*0.5) = 1: the second align trips.
  StartDaemon(sopts);
  StartGateway();

  const std::string body =
      R"({"client":"quota-tester",)" + std::string(kInlineAlignBody).substr(1);
  HttpReply first = Post(port(), "/v1/align", body);
  ASSERT_EQ(first.status, 200) << first.raw;
  HttpReply second = Post(port(), "/v1/align", body);
  ASSERT_EQ(second.status, 429) << second.raw;
  auto json = ParseJson(second.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Get("status").AsString(), "BUSY");
  // The daemon's backoff hint reaches HTTP clients twice: as a standard
  // Retry-After header (delta-seconds, rounded up) and verbatim in the
  // body for sub-second precision.
  EXPECT_NE(second.raw.find("Retry-After:"), std::string::npos) << second.raw;
  int64_t hint_ms = 0;
  ASSERT_TRUE(json->Get("retry_after_ms").AsInt64(&hint_ms, 1, 60000));
}

}  // namespace
}  // namespace graphalign
