// Wire protocol of the alignment service daemon (DESIGN.md §11).
//
// Transport: a stream socket (Unix or TCP) carrying length-prefixed binary
// frames. Each frame is
//
//   "GAF1" (4-byte magic) | u32 payload length (LE) | payload bytes
//
// and each payload is one request or one response, encoded with the
// bounds-checked ByteWriter/ByteReader below. The parser is total: any
// sequence of bytes — truncated, oversized, zero-length, garbage — yields a
// typed outcome, never a crash, an allocation blow-up, or a hang (the frame
// length is validated against kMaxFramePayload before anything is
// buffered).
//
// Requests carry graphs inline as edge lists, so the daemon needs no
// filesystem access and the content-addressed result cache can key directly
// on what arrived. All integers are little-endian; the protocol is
// host-endianness-symmetric in practice (every supported target is LE) and
// version-gated by kProtocolVersion for everything else.
#ifndef GRAPHALIGN_SERVER_PROTOCOL_H_
#define GRAPHALIGN_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/exit_codes.h"
#include "common/status.h"
#include "common/wire.h"
#include "graph/graph.h"

namespace graphalign {

// Version 2 added the top-level `client` identity field on every request
// (admission quotas key on it) and the SHED/QUARANTINED response codes plus
// the kServerStats request. Version 3 added the graph store surface:
// kPutGraph/kHasGraph, align-by-hash (AlignRequest.by_hash + g1_hash/
// g2_hash), the NO_GRAPH response code, and the store_* counters in
// kServerStats. Version 4 added the top-level `transport` tag (GAF1 vs the
// HTTP gateway, for per-transport serving counters), kAlignBatch with the
// PARTIAL response code, and the batch/transport counters in kServerStats.
// Version 5 added the durable async job surface: kSubmitJob/kJobStatus/
// kJobResult/kCancelJob with the ACCEPTED/NO_JOB/CONFLICT response codes,
// Response.retry_after_ms (server-provided backoff hint on BUSY/SHED/
// SHUTTING_DOWN), and the jobs_* counters in kServerStats.
// Peers speaking a different version are rejected with a typed BAD_REQUEST
// naming the version.
inline constexpr uint32_t kProtocolVersion = 5;

// Frames beyond this payload size are rejected before buffering (a 64 MB
// frame holds an ~4M-edge graph pair; bigger graphs belong in the offline
// sweep harness, not a serving request).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

inline constexpr char kFrameMagic[4] = {'G', 'A', 'F', '1'};
inline constexpr size_t kFrameHeaderBytes = sizeof(kFrameMagic) + sizeof(uint32_t);

// Cap on short identifier strings in requests (algorithm names, assignment
// methods, client identities). Shared with the CLI so it can reject an
// over-long --client before the daemon does.
inline constexpr size_t kMaxNameLen = 64;

// ---------------------------------------------------------------------------
// Framing.

enum class FrameStatus {
  kComplete,    // One whole frame parsed; *consumed bytes were used.
  kIncomplete,  // Prefix of a valid frame; read more bytes and retry.
  kBadMagic,    // The first bytes are not a frame; the stream is garbage.
  kOversized,   // Declared length exceeds kMaxFramePayload.
  kEmpty,       // Zero-length payload (no valid message is empty).
};

const char* FrameStatusName(FrameStatus status);

// Attempts to parse one frame from the front of `buf`. On kComplete,
// *payload receives the payload bytes and *consumed the total frame size.
// Never reads past buf, never allocates more than the declared (validated)
// payload length.
FrameStatus TryParseFrame(std::string_view buf, std::string* payload,
                          size_t* consumed);

// Wraps `payload` in a frame header. Payload must fit kMaxFramePayload.
std::string EncodeFrame(std::string_view payload);

// Blocking frame IO over a socket fd, through common/socket's SendAll and
// RecvExact (no SIGPIPE, resumes on EINTR). WriteFrameToFd sends the whole
// frame as one buffer, so header and body never leave as separate writes.
// ReadFrameFromFd returns true with a frame, false on a clean peer close
// before any byte, and a Status on truncation, bad magic, oversized or
// empty frames, timeouts (DeadlineExceeded when the socket has a receive
// timeout), and IO errors.
Result<bool> ReadFrameFromFd(int fd, std::string* payload);
Status WriteFrameToFd(int fd, std::string_view payload);

// Payload (de)serialization uses the shared bounds-checked ByteWriter/
// ByteReader (common/wire.h), the same primitives behind the cache log and
// the job journal.

// ---------------------------------------------------------------------------
// Requests.

enum class RequestType : uint8_t {
  kPing = 1,
  kAlign = 2,
  kEvaluate = 3,
  kStats = 4,
  kCacheInfo = 5,
  kShutdown = 6,
  kServerStats = 7,
  kPutGraph = 8,   // Upload a graph into the daemon's mapped store.
  kHasGraph = 9,   // Probe whether the store holds a content hash.
  kAlignBatch = 10,  // K align jobs over a shared graph table (one frame).
  kSubmitJob = 11,   // Enqueue an align as a durable async job (DESIGN §17).
  kJobStatus = 12,   // Poll a job's state/attempt counters by job id.
  kJobResult = 13,   // Fetch a DONE job's AlignResult (ACCEPTED until then).
  kCancelJob = 14,   // Cancel a job that has not finished yet.
};

// Transport over which a request reached the daemon. The HTTP gateway tags
// the GAF1 calls it forwards so kServerStats can attribute served/quota/
// shed counts per transport; direct GAF1 clients leave the default. The
// tag is advisory (a raw client can claim kHttp) — it skews stats only,
// never admission or execution.
enum class Transport : uint8_t {
  kGaf1 = 0,
  kHttp = 1,
};

// A graph shipped inline: node count plus canonical-orientation edges.
struct WireGraph {
  int num_nodes = 0;
  std::vector<Edge> edges;
};

WireGraph ToWire(const Graph& g);

struct AlignRequest {
  std::string algo;          // Aligner name, or a _CRASH/_OOM/_HANG fault.
  std::string assign = "JV"; // NN | SG | MWM | JV | native.
  uint64_t deadline_ms = 0;  // 0 = no cooperative deadline.
  uint64_t mem_limit_mb = 0; // 0 = no memory cap on the isolated child.
  bool no_cache = false;     // Bypass (and do not populate) the cache.
  // Submit-by-hash: when set, g1/g2 are empty on the wire and the daemon
  // resolves g1_hash/g2_hash against its mapped store (uploaded earlier via
  // kPutGraph). An unknown or quarantined hash answers NO_GRAPH.
  bool by_hash = false;
  uint64_t g1_hash = 0, g2_hash = 0;
  WireGraph g1, g2;
};

struct PutGraphRequest {
  WireGraph g;
};

// Caps on batch shape, enforced by the decoder before any job runs. A batch
// amortizes graph resolution and admission, not compute: 256 jobs over 64
// graphs is already far past what one worker should serialize.
inline constexpr size_t kMaxBatchGraphs = 64;
inline constexpr size_t kMaxBatchJobs = 256;

// One entry of the batch graph table: either a store hash or an inline
// edge list (exactly one; by_hash entries carry an empty inline graph).
struct BatchGraphRef {
  bool by_hash = false;
  uint64_t hash = 0;   // Valid when by_hash.
  WireGraph inline_graph;  // Valid when !by_hash.
};

// One alignment job of a batch; g1/g2 index into the shared graph table.
struct BatchJob {
  uint32_t g1 = 0, g2 = 0;
  std::string algo;
  std::string assign = "JV";
  uint64_t deadline_ms = 0;
  uint64_t mem_limit_mb = 0;
  bool no_cache = false;
};

// kAlignBatch: K jobs over a shared graph table. Each referenced graph is
// resolved (store open / inline construction) at most once per batch, and
// the whole batch pays one admission + quota decision.
struct AlignBatchRequest {
  std::vector<BatchGraphRef> graphs;
  std::vector<BatchJob> jobs;
};

struct HasGraphRequest {
  uint64_t hash = 0;
};

// kSubmitJob: the align spec to run asynchronously, plus an optional client
// idempotency key (<= kMaxNameLen). The daemon derives the job id from the
// spec content, so resubmitting the same work — by key or byte-identical
// spec — returns the existing job instead of executing twice.
struct SubmitJobRequest {
  AlignRequest align;
  std::string idem_key;
};

// kJobStatus / kJobResult / kCancelJob: the job id as printed by submit
// (16 lowercase hex digits).
struct JobIdRequest {
  uint64_t job_id = 0;
};

struct EvaluateRequest {
  WireGraph g1, g2;
  std::vector<int32_t> mapping;  // mapping[u] = node of g2, -1 unmatched.
  std::vector<int32_t> truth;    // Optional ground truth; empty = none.
};

struct StatsRequest {
  WireGraph g;
};

struct Request {
  RequestType type = RequestType::kPing;
  // Client identity for per-client admission quotas (--quota). Free-form,
  // at most 64 bytes; empty means the shared "anon" bucket. Carried on
  // every request type so quota accounting never depends on the payload.
  std::string client;
  // Which transport delivered this request (set by the HTTP gateway on
  // forwarded calls; stats attribution only).
  Transport transport = Transport::kGaf1;
  AlignRequest align;        // Valid when type == kAlign.
  EvaluateRequest evaluate;  // Valid when type == kEvaluate.
  StatsRequest stats;        // Valid when type == kStats.
  PutGraphRequest put_graph; // Valid when type == kPutGraph.
  HasGraphRequest has_graph; // Valid when type == kHasGraph.
  AlignBatchRequest align_batch;  // Valid when type == kAlignBatch.
  SubmitJobRequest submit_job;    // Valid when type == kSubmitJob.
  JobIdRequest job_id;   // Valid for kJobStatus/kJobResult/kCancelJob.
};

std::string EncodeRequest(const Request& request);
// Total decode: malformed payloads yield InvalidArgument naming what broke.
Result<Request> DecodeRequest(std::string_view payload);

// ---------------------------------------------------------------------------
// Responses.

// DNF/CRASH/OOM deliberately share numeric values with the process exit
// codes (common/exit_codes.h): `graphalign submit` exits with the response
// code and the meaning is identical to a local `graphalign align --isolate`.
enum class ResponseCode : uint8_t {
  kOk = kExitOk,
  kError = kExitError,             // In-request error (bad algo, IO, ...).
  kBadRequest = kExitUsage,        // Protocol/decoding violation.
  kDnf = kExitDnf,                 // Deadline exceeded.
  kCrash = kExitCrash,             // The isolated alignment crashed.
  kOom = kExitOom,                 // The isolated alignment exceeded memory.
  kBusy = kExitBusy,               // Admission control refused the request.
  kNumerical = kExitNumerical,     // Recoverable numerics; no fallback left.
  kShuttingDown = kExitShuttingDown,  // Draining; retry against a live peer.
  kShed = kExitShed,               // Queue wait consumed the deadline; the
                                   // request was shed unserved (transient).
  kQuarantined = kExitQuarantined,  // The request signature is quarantined
                                    // after repeated CRASH/OOM (permanent).
  kNoGraph = kExitNoGraph,  // A submit-by-hash named a graph the store does
                            // not hold (never held, or its copy failed
                            // verification and was quarantined). Permanent
                            // until the client re-uploads: not retried.
  kPartial = kExitPartial,  // A batch finished with mixed per-job outcomes;
                            // the body carries each job's typed code. Never
                            // retried as a whole (re-submit the failed jobs).
  kAccepted = kExitAccepted,  // An async job was accepted (or deduplicated
                              // onto an existing one) and has not finished:
                              // the body is a JobInfo, not a result. Poll
                              // kJobStatus/kJobResult for completion.
  kNoJob = kExitNoJob,        // kJobStatus/kJobResult/kCancelJob named a job
                              // id the daemon does not hold (never submitted,
                              // or already GC'd past its TTL).
  kConflict = kExitConflict,  // The request conflicts with the job's current
                              // state: cancelling a finished job, or reusing
                              // an idempotency key for different content.
};

// The code's name, e.g. "DNF" (ExitCodeName in common/outcome.h).
const char* ResponseCodeName(ResponseCode code);

// Whether a byte read back from the wire or the job journal names a
// ResponseCode. The codes are dense from kOk to kConflict (common/outcome.cc
// asserts its name table covers exactly that range), so a range check is
// the whole test.
inline constexpr bool IsResponseCode(uint32_t code) {
  return code <= static_cast<uint32_t>(ResponseCode::kConflict);
}

struct Response {
  ResponseCode code = ResponseCode::kOk;
  bool cache_hit = false;
  uint64_t elapsed_us = 0;  // Server-side handling time for this request.
  // Server-provided backoff hint in milliseconds, set on transient
  // rejections (BUSY/SHED/SHUTTING_DOWN): the client should wait this long
  // before retrying instead of guessing with its own jitter schedule. 0 =
  // no hint (non-transient codes, or an older peer).
  uint64_t retry_after_ms = 0;
  std::string message;      // Error detail / human-readable note.
  std::string body;         // Type-specific encoded result (below).
};

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view payload);

// Body of a successful kAlign response (also the cached value).
struct AlignResult {
  std::vector<int32_t> mapping;
  double mnc = 0.0, ec = 0.0, s3 = 0.0;
  double align_seconds = 0.0;  // Compute time inside the isolated child.
  bool degraded = false;       // Produced via a numerical fallback.
  std::string degrade_reason;  // Empty unless degraded.
};

std::string EncodeAlignResult(const AlignResult& result);
Result<AlignResult> DecodeAlignResult(std::string_view body);

// One job's outcome inside a kAlignBatch response body. `body` holds an
// encoded AlignResult when code == kOk, else it is empty and `message`
// names what went wrong — the same pair a standalone kAlign would return.
struct BatchJobOutcome {
  ResponseCode code = ResponseCode::kOk;
  bool cache_hit = false;
  std::string message;
  std::string body;
};

// Body of a kAlignBatch response (codes kOk, kPartial, or any shared
// failure code; the per-job detail is always present). graph_loads counts
// the distinct graph-table entries actually resolved — the amortization
// the batch exists for (K jobs over 2 store graphs load 2, not 2K).
struct AlignBatchResult {
  uint32_t graph_loads = 0;
  std::vector<BatchJobOutcome> jobs;
};

std::string EncodeAlignBatchResult(const AlignBatchResult& result);
Result<AlignBatchResult> DecodeAlignBatchResult(std::string_view body);

// Body of a successful kEvaluate response.
struct EvaluateResult {
  double mnc = 0.0, ec = 0.0, ics = 0.0, s3 = 0.0;
  bool has_accuracy = false;
  double accuracy = 0.0;
};

std::string EncodeEvaluateResult(const EvaluateResult& result);
Result<EvaluateResult> DecodeEvaluateResult(std::string_view body);

// Body of a successful kStats response.
struct StatsResult {
  int32_t num_nodes = 0;
  int64_t num_edges = 0;
  double avg_degree = 0.0;
  int32_t max_degree = 0;
  int32_t components = 0;
  uint64_t content_hash = 0;
};

std::string EncodeStatsResult(const StatsResult& result);
Result<StatsResult> DecodeStatsResult(std::string_view body);

// Body of a successful kPutGraph response.
struct PutGraphResult {
  uint64_t content_hash = 0;
  bool already_present = false;  // Deduplicated: the store had this graph.
};

std::string EncodePutGraphResult(const PutGraphResult& result);
Result<PutGraphResult> DecodePutGraphResult(std::string_view body);

// Body of a successful kHasGraph response.
struct HasGraphResult {
  bool present = false;
};

std::string EncodeHasGraphResult(const HasGraphResult& result);
Result<HasGraphResult> DecodeHasGraphResult(std::string_view body);

// Body of a kSubmitJob / kJobStatus / kCancelJob response (and of a
// kJobResult answered kAccepted, i.e. polled before completion). Mirrors
// jobs/manager.h's JobRecord without the spec/result payloads.
struct JobInfo {
  uint64_t job_id = 0;
  uint32_t state = 0;         // jobs/manager.h JobState numeric value.
  std::string state_name;     // ACCEPTED/RUNNING/DONE/FAILED/...
  uint32_t attempts = 0;      // Executions started (including recoveries).
  uint32_t max_attempts = 0;
  uint64_t submitted_unix_ms = 0;
  uint64_t updated_unix_ms = 0;
  uint32_t terminal_code = 0;  // ResponseCode of the terminal outcome
                               // (kOk for DONE); meaningless until terminal.
  std::string message;         // Failure/cancel detail; empty otherwise.
  bool existing = false;       // Submit was deduplicated onto a prior job.
};

std::string EncodeJobInfo(const JobInfo& info);
Result<JobInfo> DecodeJobInfo(std::string_view body);

// Canonical byte encoding of an AlignRequest on its own — the durable job
// spec. The job id is content-derived from exactly these bytes, and the
// journal replays them to re-enqueue work after a crash, so this encoding
// must stay stable across daemon versions that share a journal.
std::string EncodeAlignSpec(const AlignRequest& align);
Result<AlignRequest> DecodeAlignSpec(std::string_view spec);

// Body of a successful kCacheInfo response.
struct CacheInfoResult {
  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t entries = 0, bytes = 0, capacity_bytes = 0;
};

std::string EncodeCacheInfoResult(const CacheInfoResult& result);
Result<CacheInfoResult> DecodeCacheInfoResult(std::string_view body);

// Body of a successful kServerStats response: the daemon's admission,
// quarantine, watchdog, and durable-cache counters since startup.
struct ServerStatsResult {
  uint64_t workers = 0;
  double uptime_seconds = 0.0;
  uint64_t accepted = 0;         // Connections admitted to the queue.
  uint64_t served = 0;           // Requests answered (any code).
  uint64_t busy_rejected = 0;    // Typed BUSY: admission queue full.
  uint64_t quota_rejected = 0;   // Typed BUSY: per-client quota exceeded.
  uint64_t shed = 0;             // Typed SHED: queue wait ate the deadline.
  uint64_t quarantined = 0;      // Typed QUARANTINED responses.
  uint64_t quarantined_signatures = 0;  // Signatures currently quarantined.
  uint64_t watchdog_kills = 0;   // Hung children SIGKILLed past grace.
  uint64_t queue_depth = 0;      // Connections waiting right now.
  uint64_t in_flight = 0;        // Requests being served right now.
  uint64_t cache_replayed = 0;        // Records restored from the cache log.
  uint64_t cache_crc_skipped = 0;     // Records skipped on CRC mismatch.
  uint64_t cache_truncated_bytes = 0; // Torn tail bytes dropped at replay.
  uint64_t cache_append_errors = 0;   // Failed log appends (cache stays hot).
  uint64_t cache_open_errors = 0;     // Log open/replay failures (cold start).
  uint64_t store_puts = 0;        // kPutGraph uploads accepted.
  uint64_t store_gets = 0;        // Store lookups by align-by-hash.
  uint64_t store_corrupt = 0;     // Entries quarantined after failing verify.
  uint64_t store_missing = 0;     // By-hash lookups that found no entry.
  uint64_t store_unavailable = 0; // 1 when --store-dir was given but could
                                  // not be opened (wire-graph path only).
  uint64_t served_http = 0;         // Served requests tagged Transport::kHttp.
  uint64_t quota_rejected_http = 0; // Quota rejections on HTTP-tagged calls.
  uint64_t shed_http = 0;           // Sheds on HTTP-tagged align calls.
  uint64_t batches = 0;             // kAlignBatch requests served.
  uint64_t batch_jobs = 0;          // Jobs carried by those batches.
  uint64_t batch_cache_hits = 0;    // Batch jobs answered from the cache.
  uint64_t batch_graph_loads = 0;   // Graph-table resolutions (amortized).
  uint64_t jobs_submitted = 0;      // kSubmitJob requests that created a job.
  uint64_t jobs_deduped = 0;        // Submits answered with an existing job.
  uint64_t jobs_done = 0;           // Jobs that reached DONE.
  uint64_t jobs_failed = 0;         // Jobs that reached FAILED/QUARANTINED.
  uint64_t jobs_cancelled = 0;      // Jobs cancelled before completion.
  uint64_t jobs_executions = 0;     // Execution attempts started (retries
                                    // and crash recoveries included).
  uint64_t jobs_recovered = 0;      // RUNNING jobs re-enqueued at replay.
  uint64_t jobs_pending = 0;        // Jobs queued or running right now.
  std::vector<uint64_t> worker_restarts;  // Watchdog kills per worker slot.
};

std::string EncodeServerStatsResult(const ServerStatsResult& result);
Result<ServerStatsResult> DecodeServerStatsResult(std::string_view body);

}  // namespace graphalign

#endif  // GRAPHALIGN_SERVER_PROTOCOL_H_
