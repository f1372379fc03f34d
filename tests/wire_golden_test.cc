// Golden bytes for every message that crosses a process boundary: one GAF1
// request frame per RequestType, a Response, every result body, the durable
// align spec (the job id is derived from these bytes), and the isolation
// helper's request and reply. Each message sets a non-default value in every
// field, so a codec that drops, reorders or resizes a field changes the hex.
// Encoding must give the literal; decoding the literal and encoding again
// must give it back. tools/run_sanitize.sh runs this suite under
// AddressSanitizer.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/subprocess.h"
#include "server/isolation.h"
#include "server/protocol.h"

namespace graphalign {
namespace {

// Golden hex, one literal per message, in test order.
constexpr char kPing[] =
    "4741463110000000050000000106000000676f6c64656e01";

constexpr char kCacheInfo[] =
    "4741463110000000050000000506000000676f6c64656e01";

constexpr char kShutdown[] =
    "4741463110000000050000000606000000676f6c64656e01";

constexpr char kServerStats[] =
    "4741463110000000050000000706000000676f6c64656e01";

constexpr char kAlign[] =
    "4741463187000000050000000206000000676f6c64656e01030000004e534402"
    "0000005347dc0500000000000000010000000000000100080706050403020118"
    "1716151413121103000000030000000000000000000000010000000100000002"
    "0000000000000002000000040000000300000000000000000000000100000001"
    "000000020000000200000003000000";

constexpr char kEvaluate[] =
    "4741463178000000050000000306000000676f6c64656e010300000003000000"
    "0000000000000000010000000100000002000000000000000200000004000000"
    "0300000000000000000000000100000001000000020000000200000003000000"
    "030000000200000000000000ffffffff03000000000000000100000002000000";

constexpr char kStats[] =
    "4741463134000000050000000406000000676f6c64656e010300000003000000"
    "00000000000000000100000001000000020000000000000002000000";

constexpr char kPutGraph[] =
    "4741463134000000050000000806000000676f6c64656e010400000003000000"
    "00000000000000000100000001000000020000000200000003000000";

constexpr char kHasGraph[] =
    "4741463118000000050000000906000000676f6c64656e01efcdab8967452301";

constexpr char kAlignBatch[] =
    "4741463181000000050000000a06000000676f6c64656e01020000000100ffee"
    "ddccbbaa99000000000000000000000000000000000000000000030000000300"
    "0000000000000000000001000000010000000200000000000000020000000100"
    "00000100000001000000040000004c524541020000004e4ebc02000000000000"
    "400000000000000001";

constexpr char kSubmitJob[] =
    "4741463164000000050000000b06000000676f6c64656e010500000047524153"
    "50030000004d574dc40900000000000000020000000000000101282726252423"
    "2221383736353433323100000000000000000000000000000000000000000000"
    "0000060000006964656d2d37";

constexpr char kJobStatus[] =
    "4741463118000000050000000c06000000676f6c64656e011032547698badcfe";

constexpr char kJobResult[] =
    "4741463118000000050000000d06000000676f6c64656e011032547698badcfe";

constexpr char kCancelJob[] =
    "4741463118000000050000000e06000000676f6c64656e011032547698badcfe";

constexpr char kResponse[] =
    "050000000c01e110000000000000fa00000000000000030000006d7367040000"
    "00626f6479";

constexpr char kAlignResult[] =
    "0300000002000000ffffffff00000000000000000000e03f000000000000d03f"
    "000000000000c03f000000000000f83f010e000000656967656e2066616c6c62"
    "61636b";

constexpr char kAlignBatchResult[] =
    "0300000002000000000100000000430000000300000002000000ffffffff0000"
    "0000000000000000e03f000000000000d03f000000000000c03f000000000000"
    "f83f010e000000656967656e2066616c6c6261636b0300040000006c61746500"
    "000000";

constexpr char kEvaluateResult[] =
    "000000000000e83f000000000000e03f000000000000d03f000000000000c03f"
    "01000000000000ec3f";

constexpr char kStatsResult[] =
    "3c000000ab00000000000000cdcccccccccc16400c000000020000000df0feca"
    "efbeadde";

constexpr char kPutGraphResult[] =
    "c1ee44dd8df4f12701";

constexpr char kHasGraphResult[] =
    "01";

constexpr char kJobInfo[] =
    "11100f0e0d0c0b0a04000000060000004641494c454402000000030000000068"
    "e5cf8b010000f469e5cf8b01000004000000070000006372617368656401";

constexpr char kCacheInfoResult[] =
    "0100000000000000020000000000000003000000000000000400000000000000"
    "05000000000000000600000000000000";

constexpr char kServerStatsResult[] =
    "01000000000000000000000000e0584002000000000000000300000000000000"
    "0400000000000000050000000000000006000000000000000700000000000000"
    "080000000000000009000000000000000a000000000000000b00000000000000"
    "0c000000000000000d000000000000000e000000000000000f00000000000000"
    "1000000000000000110000000000000012000000000000001300000000000000"
    "1400000000000000150000000000000016000000000000001700000000000000"
    "180000000000000019000000000000001a000000000000001b00000000000000"
    "1c000000000000001d000000000000001e000000000000001f00000000000000"
    "2000000000000000210000000000000022000000000000002300000000000000"
    "2400000000000000020000006400000000000000c800000000000000";

constexpr char kAlignSpecInline[] =
    "030000004e5344020000005347dc050000000000000001000000000000010008"
    "0706050403020118171615141312110300000003000000000000000000000001"
    "0000000100000002000000000000000200000004000000030000000000000000"
    "0000000100000001000000020000000200000003000000";

constexpr char kAlignSpecByHash[] =
    "050000004752415350030000004d574dc4090000000000000002000000000000"
    "0101282726252423222138373635343332310000000000000000000000000000"
    "00000000000000000000";

constexpr char kHelperRequest[] =
    "77000000030000004e5344020000005347dc0500000000000000010000000000"
    "0001000807060504030201181716151413121103000000030000000000000000"
    "0000000100000001000000020000000000000002000000040000000300000000"
    "0000000000000001000000010000000200000002000000030000000000000000"
    "0029400000004000000000010200000009000000612e623d6572726f720c0000"
    "00632e643d64656c6179283529";

constexpr char kHelperReplyRan[] =
    "0102030000000b000000000000000000d03f0101070000007061796c6f61641d"
    "0000006b696c6c6564206279207369676e616c20313120285349475345475629";

constexpr char kHelperReplyStatus[] =
    "000a000000070000006e6f20666f726b";

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

std::string FromHex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

// Checks `encoded` against the golden hex, then decodes the golden bytes and
// re-encodes them.
template <typename Decode, typename Encode>
void ExpectGolden(const char* name, const std::string& encoded,
                  const std::string& golden, Decode decode, Encode encode) {
  EXPECT_EQ(ToHex(encoded), golden) << name;
  auto decoded = decode(FromHex(golden));
  ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
  EXPECT_EQ(ToHex(encode(*decoded)), golden) << name;
}

WireGraph Triangle() {
  WireGraph g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}, {0, 2}};
  return g;
}

WireGraph Path() {
  WireGraph g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}};
  return g;
}

AlignRequest InlineAlign() {
  AlignRequest a;
  a.algo = "NSD";
  a.assign = "SG";
  a.deadline_ms = 1500;
  a.mem_limit_mb = 256;
  a.no_cache = true;
  a.g1_hash = 0x0102030405060708ull;  // Carried but unused when inline.
  a.g2_hash = 0x1112131415161718ull;
  a.g1 = Triangle();
  a.g2 = Path();
  return a;
}

AlignRequest ByHashAlign() {
  AlignRequest a;
  a.algo = "GRASP";
  a.assign = "MWM";
  a.deadline_ms = 2500;
  a.mem_limit_mb = 512;
  a.no_cache = true;
  a.by_hash = true;
  a.g1_hash = 0x2122232425262728ull;
  a.g2_hash = 0x3132333435363738ull;
  return a;
}

Request Header(RequestType type) {
  Request r;
  r.type = type;
  r.client = "golden";
  r.transport = Transport::kHttp;
  return r;
}

std::string EncodeRequestFrame(const Request& r) {
  return EncodeFrame(EncodeRequest(r));
}

Result<Request> DecodeRequestFrame(std::string_view frame) {
  std::string payload;
  size_t consumed = 0;
  if (TryParseFrame(frame, &payload, &consumed) != FrameStatus::kComplete ||
      consumed != frame.size()) {
    return Status::InvalidArgument("not one whole frame");
  }
  return DecodeRequest(payload);
}

void ExpectRequestGolden(const char* name, const Request& r,
                         const std::string& golden) {
  ExpectGolden(name, EncodeRequestFrame(r), golden, DecodeRequestFrame,
               EncodeRequestFrame);
}

TEST(WireGoldenTest, RequestFrames) {
  ExpectRequestGolden("ping", Header(RequestType::kPing), kPing);
  ExpectRequestGolden("cache_info", Header(RequestType::kCacheInfo),
                      kCacheInfo);
  ExpectRequestGolden("shutdown", Header(RequestType::kShutdown), kShutdown);
  ExpectRequestGolden("server_stats", Header(RequestType::kServerStats),
                      kServerStats);

  Request align = Header(RequestType::kAlign);
  align.align = InlineAlign();
  ExpectRequestGolden("align", align, kAlign);

  Request evaluate = Header(RequestType::kEvaluate);
  evaluate.evaluate.g1 = Triangle();
  evaluate.evaluate.g2 = Path();
  evaluate.evaluate.mapping = {2, 0, -1};
  evaluate.evaluate.truth = {0, 1, 2};
  ExpectRequestGolden("evaluate", evaluate, kEvaluate);

  Request stats = Header(RequestType::kStats);
  stats.stats.g = Triangle();
  ExpectRequestGolden("stats", stats, kStats);

  Request put = Header(RequestType::kPutGraph);
  put.put_graph.g = Path();
  ExpectRequestGolden("put_graph", put, kPutGraph);

  Request has = Header(RequestType::kHasGraph);
  has.has_graph.hash = 0x0123456789abcdefull;
  ExpectRequestGolden("has_graph", has, kHasGraph);

  Request batch = Header(RequestType::kAlignBatch);
  BatchGraphRef by_hash;
  by_hash.by_hash = true;
  by_hash.hash = 0x99aabbccddeeff00ull;
  BatchGraphRef inline_ref;
  inline_ref.inline_graph = Triangle();
  batch.align_batch.graphs = {by_hash, inline_ref};
  BatchJob job;
  job.g1 = 1;
  job.g2 = 1;
  job.algo = "LREA";
  job.assign = "NN";
  job.deadline_ms = 700;
  job.mem_limit_mb = 64;
  job.no_cache = true;
  batch.align_batch.jobs = {job};
  ExpectRequestGolden("align_batch", batch, kAlignBatch);

  Request submit = Header(RequestType::kSubmitJob);
  submit.submit_job.align = ByHashAlign();
  submit.submit_job.idem_key = "idem-7";
  ExpectRequestGolden("submit_job", submit, kSubmitJob);

  for (const auto& [type, name, golden] :
       std::vector<std::tuple<RequestType, const char*, std::string>>{
           {RequestType::kJobStatus, "job_status", kJobStatus},
           {RequestType::kJobResult, "job_result", kJobResult},
           {RequestType::kCancelJob, "cancel_job", kCancelJob}}) {
    Request r = Header(type);
    r.job_id.job_id = 0xfedcba9876543210ull;
    ExpectRequestGolden(name, r, golden);
  }
}

TEST(WireGoldenTest, Response) {
  Response r;
  r.code = ResponseCode::kPartial;
  r.cache_hit = true;
  r.elapsed_us = 4321;
  r.retry_after_ms = 250;
  r.message = "msg";
  r.body = "body";
  ExpectGolden("response", EncodeResponse(r), kResponse, DecodeResponse,
               EncodeResponse);
}

AlignResult SampleAlignResult() {
  AlignResult r;
  r.mapping = {2, -1, 0};
  r.mnc = 0.5;
  r.ec = 0.25;
  r.s3 = 0.125;
  r.align_seconds = 1.5;
  r.degraded = true;
  r.degrade_reason = "eigen fallback";
  return r;
}

TEST(WireGoldenTest, ResultBodies) {
  ExpectGolden("align_result", EncodeAlignResult(SampleAlignResult()),
               kAlignResult, DecodeAlignResult, EncodeAlignResult);

  AlignBatchResult batch;
  batch.graph_loads = 3;
  BatchJobOutcome ok;
  ok.cache_hit = true;
  ok.body = EncodeAlignResult(SampleAlignResult());
  BatchJobOutcome failed;
  failed.code = ResponseCode::kDnf;
  failed.message = "late";
  batch.jobs = {ok, failed};
  ExpectGolden("align_batch_result", EncodeAlignBatchResult(batch),
               kAlignBatchResult, DecodeAlignBatchResult,
               EncodeAlignBatchResult);

  EvaluateResult evaluate;
  evaluate.mnc = 0.75;
  evaluate.ec = 0.5;
  evaluate.ics = 0.25;
  evaluate.s3 = 0.125;
  evaluate.has_accuracy = true;
  evaluate.accuracy = 0.875;
  ExpectGolden("evaluate_result", EncodeEvaluateResult(evaluate),
               kEvaluateResult, DecodeEvaluateResult,
               EncodeEvaluateResult);

  StatsResult stats;
  stats.num_nodes = 60;
  stats.num_edges = 171;
  stats.avg_degree = 5.7;
  stats.max_degree = 12;
  stats.components = 2;
  stats.content_hash = 0xdeadbeefcafef00dull;
  ExpectGolden("stats_result", EncodeStatsResult(stats), kStatsResult,
               DecodeStatsResult, EncodeStatsResult);

  PutGraphResult put;
  put.content_hash = 0x27f1f48ddd44eec1ull;
  put.already_present = true;
  ExpectGolden("put_graph_result", EncodePutGraphResult(put),
               kPutGraphResult, DecodePutGraphResult,
               EncodePutGraphResult);

  HasGraphResult has;
  has.present = true;
  ExpectGolden("has_graph_result", EncodeHasGraphResult(has),
               kHasGraphResult, DecodeHasGraphResult,
               EncodeHasGraphResult);

  JobInfo info;
  info.job_id = 0x0a0b0c0d0e0f1011ull;
  info.state = 4;
  info.state_name = "FAILED";
  info.attempts = 2;
  info.max_attempts = 3;
  info.submitted_unix_ms = 1700000000000ull;
  info.updated_unix_ms = 1700000000500ull;
  info.terminal_code = 4;
  info.message = "crashed";
  info.existing = true;
  ExpectGolden("job_info", EncodeJobInfo(info), kJobInfo, DecodeJobInfo,
               EncodeJobInfo);

  CacheInfoResult cache;
  cache.hits = 1;
  cache.misses = 2;
  cache.evictions = 3;
  cache.entries = 4;
  cache.bytes = 5;
  cache.capacity_bytes = 6;
  ExpectGolden("cache_info_result", EncodeCacheInfoResult(cache),
               kCacheInfoResult, DecodeCacheInfoResult,
               EncodeCacheInfoResult);

  // Every counter distinct: a swapped pair of fields changes the hex.
  ServerStatsResult s;
  uint64_t next = 1;
  for (uint64_t* counter :
       {&s.workers, &s.accepted, &s.served, &s.busy_rejected,
        &s.quota_rejected, &s.shed, &s.quarantined, &s.quarantined_signatures,
        &s.watchdog_kills, &s.queue_depth, &s.in_flight, &s.cache_replayed,
        &s.cache_crc_skipped, &s.cache_truncated_bytes, &s.cache_append_errors,
        &s.cache_open_errors, &s.store_puts, &s.store_gets, &s.store_corrupt,
        &s.store_missing, &s.store_unavailable, &s.served_http,
        &s.quota_rejected_http, &s.shed_http, &s.batches, &s.batch_jobs,
        &s.batch_cache_hits, &s.batch_graph_loads, &s.jobs_submitted,
        &s.jobs_deduped, &s.jobs_done, &s.jobs_failed, &s.jobs_cancelled,
        &s.jobs_executions, &s.jobs_recovered, &s.jobs_pending}) {
    *counter = next++;
  }
  s.uptime_seconds = 99.5;
  s.worker_restarts = {100, 200};
  ExpectGolden("server_stats_result", EncodeServerStatsResult(s),
               kServerStatsResult, DecodeServerStatsResult,
               EncodeServerStatsResult);
}

TEST(WireGoldenTest, AlignSpec) {
  ExpectGolden("align_spec_inline", EncodeAlignSpec(InlineAlign()),
               kAlignSpecInline, DecodeAlignSpec, EncodeAlignSpec);
  ExpectGolden("align_spec_by_hash", EncodeAlignSpec(ByHashAlign()),
               kAlignSpecByHash, DecodeAlignSpec, EncodeAlignSpec);
}

TEST(WireGoldenTest, IsolationHelperRequestAndReply) {
  HelperRequest req;
  req.spec = InlineAlign();
  req.wall_limit_seconds = 12.5;
  req.mem_limit_bytes = 1 << 30;
  req.exit_before_reply = true;
  req.failpoints = {"a.b=error", "c.d=delay(5)"};
  ExpectGolden("helper_request", EncodeHelperRequest(req), kHelperRequest,
               DecodeHelperRequest, EncodeHelperRequest);

  SubprocessResult run;
  run.status = RunStatus::kCrash;
  run.exit_code = 3;
  run.term_signal = 11;
  run.wall_seconds = 0.25;
  run.killed_on_cancel = true;
  run.payload_valid = true;
  run.payload = "payload";
  run.detail = "killed by signal 11 (SIGSEGV)";
  auto reencode = [](const Result<SubprocessResult>& r) {
    return EncodeHelperReply(r);
  };
  ExpectGolden("helper_reply_ran", EncodeHelperReply(run),
               kHelperReplyRan, DecodeHelperReply, reencode);

  // A reply whose helper could not run the child carries the Status.
  const std::string golden = kHelperReplyStatus;
  EXPECT_EQ(ToHex(EncodeHelperReply(Status::Unavailable("no fork"))), golden);
  auto decoded = DecodeHelperReply(FromHex(golden));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.status().message(), "no fork");
}

// The isolated child's report on its payload pipe: a result, or a typed
// error. Its encoder lives inside the child; the daemon decodes.
TEST(WireGoldenTest, IsolatedChildOutcome) {
  Response ok;
  ASSERT_TRUE(DecodeAlignOutcome(FromHex("01" "0400000061626364"), &ok));
  EXPECT_EQ(ok.code, ResponseCode::kOk);
  EXPECT_EQ(ok.body, "abcd");

  Response failed;
  ASSERT_TRUE(DecodeAlignOutcome(FromHex("00" "03" "0300000064" "6e66"),
                                 &failed));
  EXPECT_EQ(failed.code, ResponseCode::kDnf);
  EXPECT_EQ(failed.message, "dnf");
}

}  // namespace
}  // namespace graphalign
