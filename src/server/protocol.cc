#include "server/protocol.h"

#include <cerrno>
#include <cstring>

#include "common/outcome.h"
#include "common/socket.h"

namespace graphalign {

namespace {

// Decoding bounds: a request that declares more than these is rejected
// before any proportional allocation happens. The frame cap already bounds
// the true byte count; these bound the *declared* counts so a 16-byte
// garbage frame cannot request a 4-billion-entry reserve.
constexpr uint32_t kMaxWireNodes = 8u << 20;    // 8M nodes.
constexpr uint64_t kMaxWireEdges = 32u << 20;   // 32M edges (256 MB decoded).
constexpr size_t kMaxMessageLen = 4096;

Status BadPayload(const std::string& what) {
  return Status::InvalidArgument("protocol: " + what);
}

// ---------------------------------------------------------------------------
// Field lists (common/wire.h), one per message, in wire order.

template <typename Ar>
void CheckVersion(Ar& ar, uint32_t version) {
  if (version != kProtocolVersion) {
    ar.Fail("unsupported protocol version " + std::to_string(version));
  }
}

bool IsEmpty(const WireGraph& g) { return g.num_nodes == 0 && g.edges.empty(); }

template <typename Ar, typename V>
void MappingFields(Ar& ar, V& mapping) {
  ar.List(mapping, kMaxWireNodes, [&](auto& v) { ar.I32(v); });
}

}  // namespace

template <typename Ar>
void Fields(Ar& ar, Msg<WireGraph> auto& g) {
  ar.U32(g.num_nodes, kMaxWireNodes);
  ar.List64(g.edges, kMaxWireEdges, [&](auto& e) {
    ar.U32(e.u);
    ar.U32(e.v);
    // Endpoint range is validated here so Graph::FromEdges sees sane ints;
    // semantic validation (self-loops, duplicates) stays with the graph.
    ar.Check(0 <= e.u && e.u < g.num_nodes && 0 <= e.v && e.v < g.num_nodes);
  });
}

// The align-request field block, shared by kAlign, kSubmitJob, and the
// durable job spec (EncodeAlignSpec): one encoding, three carriers.
template <typename Ar>
void Fields(Ar& ar, Msg<AlignRequest> auto& a) {
  ar.Str(a.algo, kMaxNameLen);
  ar.Str(a.assign, kMaxNameLen);
  ar.U64(a.deadline_ms);
  ar.U64(a.mem_limit_mb);
  ar.U8(a.no_cache);
  ar.U8(a.by_hash);
  ar.U64(a.g1_hash);
  ar.U64(a.g2_hash);
  Fields(ar, a.g1);
  Fields(ar, a.g2);
  // A by-hash align must not also carry inline graphs: the two sources
  // could disagree and the cache key would be ambiguous.
  ar.Check(!a.by_hash || (IsEmpty(a.g1) && IsEmpty(a.g2)));
}

template <typename Ar>
void Fields(Ar& ar, Msg<AlignBatchRequest> auto& b) {
  ar.Context("malformed batch graph table");
  ar.List(b.graphs, kMaxBatchGraphs, [&](auto& g) {
    ar.Context("malformed batch graph entry");
    ar.U8(g.by_hash, true);
    ar.U64(g.hash);
    Fields(ar, g.inline_graph);
    // Mirror the kAlign rule: a hash reference must not also carry an
    // inline graph (the two could disagree).
    if (g.by_hash && !IsEmpty(g.inline_graph)) {
      ar.Fail("batch graph entry has both hash and inline");
    }
  });
  ar.Check(!b.graphs.empty());  // Still the table's context when empty.
  ar.Context("malformed batch job list");
  ar.List(b.jobs, kMaxBatchJobs, [&](auto& j) {
    ar.Context("malformed batch job");
    ar.U32(j.g1);
    ar.U32(j.g2);
    ar.Str(j.algo, kMaxNameLen);
    ar.Str(j.assign, kMaxNameLen);
    ar.U64(j.deadline_ms);
    ar.U64(j.mem_limit_mb);
    ar.U8(j.no_cache);
    if (j.g1 >= b.graphs.size() || j.g2 >= b.graphs.size()) {
      ar.Fail("batch job references a graph out of range");
    }
  });
  ar.Check(!b.jobs.empty());
}

template <typename Ar>
void Fields(Ar& ar, Msg<Request> auto& q) {
  uint32_t version = kProtocolVersion;
  ar.U32(version);
  ar.U8(q.type);
  CheckVersion(ar, version);
  ar.Context("malformed client identity");
  ar.Str(q.client, kMaxNameLen);
  ar.Context("malformed transport tag");
  ar.U8(q.transport, Transport::kHttp);
  switch (q.type) {
    case RequestType::kPing:
    case RequestType::kCacheInfo:
    case RequestType::kShutdown:
    case RequestType::kServerStats:
      break;
    case RequestType::kAlign:
      ar.Context("malformed align request");
      Fields(ar, q.align);
      break;
    case RequestType::kSubmitJob:
      ar.Context("malformed submit-job request");
      Fields(ar, q.submit_job.align);
      ar.Str(q.submit_job.idem_key, kMaxNameLen);
      break;
    case RequestType::kJobStatus:
    case RequestType::kJobResult:
    case RequestType::kCancelJob:
      ar.Context("malformed job id request");
      ar.U64(q.job_id.job_id);
      break;
    case RequestType::kEvaluate:
      ar.Context("malformed evaluate request");
      Fields(ar, q.evaluate.g1);
      Fields(ar, q.evaluate.g2);
      MappingFields(ar, q.evaluate.mapping);
      MappingFields(ar, q.evaluate.truth);
      break;
    case RequestType::kStats:
      ar.Context("malformed stats request");
      Fields(ar, q.stats.g);
      break;
    case RequestType::kPutGraph:
      ar.Context("malformed put-graph request");
      Fields(ar, q.put_graph.g);
      break;
    case RequestType::kHasGraph:
      ar.Context("malformed has-graph request");
      ar.U64(q.has_graph.hash);
      break;
    case RequestType::kAlignBatch:
      Fields(ar, q.align_batch);
      break;
    default:
      ar.Fail("unknown request type " +
              std::to_string(static_cast<int>(q.type)));
  }
}

template <typename Ar>
void Fields(Ar& ar, Msg<Response> auto& r) {
  uint32_t version = kProtocolVersion;
  ar.U32(version);
  ar.U8(r.code);
  ar.U8(r.cache_hit);
  ar.U64(r.elapsed_us);
  ar.U64(r.retry_after_ms);
  ar.Str(r.message, kMaxMessageLen);
  ar.Str(r.body, kMaxFramePayload);
  // A response's shape is checked before its version and its code.
  ar.End();
  CheckVersion(ar, version);
  if (!IsResponseCode(static_cast<uint32_t>(r.code))) {
    ar.Fail("unknown response code " +
            std::to_string(static_cast<int>(r.code)));
  }
}

template <typename Ar>
void Fields(Ar& ar, Msg<AlignResult> auto& r) {
  MappingFields(ar, r.mapping);
  ar.F64(r.mnc);
  ar.F64(r.ec);
  ar.F64(r.s3);
  ar.F64(r.align_seconds);
  ar.U8(r.degraded);
  ar.Str(r.degrade_reason, kMaxMessageLen);
}

template <typename Ar>
void Fields(Ar& ar, Msg<AlignBatchResult> auto& b) {
  ar.U32(b.graph_loads);
  ar.List(b.jobs, kMaxBatchJobs, [&](auto& job) {
    ar.Context("malformed align batch job outcome");
    ar.U8(job.code, ResponseCode::kConflict);
    ar.U8(job.cache_hit);
    ar.Str(job.message, kMaxMessageLen);
    ar.Str(job.body, kMaxFramePayload);
  });
}

template <typename Ar>
void Fields(Ar& ar, Msg<EvaluateResult> auto& r) {
  ar.F64(r.mnc);
  ar.F64(r.ec);
  ar.F64(r.ics);
  ar.F64(r.s3);
  ar.U8(r.has_accuracy);
  ar.F64(r.accuracy);
}

template <typename Ar>
void Fields(Ar& ar, Msg<StatsResult> auto& r) {
  ar.I32(r.num_nodes);
  ar.U64(r.num_edges);
  ar.F64(r.avg_degree);
  ar.I32(r.max_degree);
  ar.I32(r.components);
  ar.U64(r.content_hash);
}

template <typename Ar>
void Fields(Ar& ar, Msg<JobInfo> auto& info) {
  ar.U64(info.job_id);
  ar.U32(info.state);
  ar.Str(info.state_name, kMaxNameLen);
  ar.U32(info.attempts);
  ar.U32(info.max_attempts);
  ar.U64(info.submitted_unix_ms);
  ar.U64(info.updated_unix_ms);
  ar.U32(info.terminal_code);
  ar.Str(info.message, kMaxMessageLen);
  ar.U8(info.existing);
}

template <typename Ar>
void Fields(Ar& ar, Msg<CacheInfoResult> auto& r) {
  ar.U64(r.hits);
  ar.U64(r.misses);
  ar.U64(r.evictions);
  ar.U64(r.entries);
  ar.U64(r.bytes);
  ar.U64(r.capacity_bytes);
}

template <typename Ar>
void Fields(Ar& ar, Msg<PutGraphResult> auto& r) {
  ar.U64(r.content_hash);
  ar.U8(r.already_present);
}

template <typename Ar>
void Fields(Ar& ar, Msg<HasGraphResult> auto& r) {
  ar.U8(r.present);
}

namespace {

// Decodes one whole message: a failure inside is named by the field list,
// trailing bytes by `trailing`.
template <typename T>
Result<T> Decode(std::string_view bytes, const char* what,
                 const char* trailing = nullptr) {
  FieldReader r(bytes, what);
  T message;
  if (!DecodeFields(r, message, trailing != nullptr ? trailing : what)) {
    return BadPayload(r.error());
  }
  return message;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing.

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kComplete: return "COMPLETE";
    case FrameStatus::kIncomplete: return "INCOMPLETE";
    case FrameStatus::kBadMagic: return "BAD_MAGIC";
    case FrameStatus::kOversized: return "OVERSIZED";
    case FrameStatus::kEmpty: return "EMPTY";
  }
  return "UNKNOWN";
}

FrameStatus TryParseFrame(std::string_view buf, std::string* payload,
                          size_t* consumed) {
  if (buf.empty()) return FrameStatus::kIncomplete;
  // Validate the magic on whatever prefix is available, so garbage is
  // rejected after its first bytes instead of after kFrameHeaderBytes.
  const size_t magic_avail = std::min(buf.size(), sizeof(kFrameMagic));
  if (std::memcmp(buf.data(), kFrameMagic, magic_avail) != 0) {
    return FrameStatus::kBadMagic;
  }
  if (buf.size() < kFrameHeaderBytes) return FrameStatus::kIncomplete;
  uint32_t len = 0;
  std::memcpy(&len, buf.data() + sizeof(kFrameMagic), sizeof(len));
  if (len == 0) return FrameStatus::kEmpty;
  if (len > kMaxFramePayload) return FrameStatus::kOversized;
  if (buf.size() < kFrameHeaderBytes + len) return FrameStatus::kIncomplete;
  payload->assign(buf.data() + kFrameHeaderBytes, len);
  *consumed = kFrameHeaderBytes + len;
  return FrameStatus::kComplete;
}

std::string EncodeFrame(std::string_view payload) {
  GA_CHECK(!payload.empty() && payload.size() <= kMaxFramePayload);
  std::string frame(kFrameMagic, sizeof(kFrameMagic));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(payload);
  return frame;
}

Result<bool> ReadFrameFromFd(int fd, std::string* payload) {
  char header[kFrameHeaderBytes];
  GA_ASSIGN_OR_RETURN(const size_t got,
                      RecvExact(fd, header, sizeof(header)));
  if (got == 0) return false;  // Clean close between frames.
  if (got < sizeof(header)) {
    return BadPayload("connection closed inside a frame header");
  }
  uint32_t len = 0;
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return BadPayload("bad frame magic");
  }
  std::memcpy(&len, header + sizeof(kFrameMagic), sizeof(len));
  if (len == 0) return BadPayload("zero-length frame");
  if (len > kMaxFramePayload) {
    return BadPayload("frame of " + std::to_string(len) +
                      " bytes exceeds the " +
                      std::to_string(kMaxFramePayload) + "-byte cap");
  }
  payload->resize(len);
  GA_ASSIGN_OR_RETURN(const size_t body, RecvExact(fd, payload->data(), len));
  if (body < len) return BadPayload("connection closed inside a frame body");
  return true;
}

Status WriteFrameToFd(int fd, std::string_view payload) {
  // One buffer, one SendAll: a header written apart from its body can
  // stall on Nagle and delayed ACK over TCP.
  const std::string frame = EncodeFrame(payload);
  if (!SendAll(fd, frame)) {
    return Status::Internal("send() failed: " + std::string(strerror(errno)));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Requests. (ByteWriter/ByteReader live in common/wire.cc.)

WireGraph ToWire(const Graph& g) {
  WireGraph wire;
  wire.num_nodes = g.num_nodes();
  wire.edges = g.Edges();
  return wire;
}

std::string EncodeRequest(const Request& request) {
  return EncodeFields(request);
}

Result<Request> DecodeRequest(std::string_view payload) {
  return Decode<Request>(payload, "request too short for version and type",
                         "trailing bytes after request");
}

// ---------------------------------------------------------------------------
// Responses.

const char* ResponseCodeName(ResponseCode code) {
  return ExitCodeName(static_cast<int>(code));
}

std::string EncodeResponse(const Response& response) {
  return EncodeFields(response);
}

Result<Response> DecodeResponse(std::string_view payload) {
  return Decode<Response>(payload, "malformed response");
}

std::string EncodeAlignResult(const AlignResult& result) {
  return EncodeFields(result);
}

Result<AlignResult> DecodeAlignResult(std::string_view body) {
  return Decode<AlignResult>(body, "malformed align result");
}

std::string EncodeAlignBatchResult(const AlignBatchResult& result) {
  return EncodeFields(result);
}

Result<AlignBatchResult> DecodeAlignBatchResult(std::string_view body) {
  return Decode<AlignBatchResult>(body, "malformed align batch result");
}

std::string EncodeEvaluateResult(const EvaluateResult& result) {
  return EncodeFields(result);
}

Result<EvaluateResult> DecodeEvaluateResult(std::string_view body) {
  return Decode<EvaluateResult>(body, "malformed evaluate result");
}

std::string EncodeStatsResult(const StatsResult& result) {
  return EncodeFields(result);
}

Result<StatsResult> DecodeStatsResult(std::string_view body) {
  return Decode<StatsResult>(body, "malformed stats result");
}

std::string EncodeJobInfo(const JobInfo& info) { return EncodeFields(info); }

Result<JobInfo> DecodeJobInfo(std::string_view body) {
  return Decode<JobInfo>(body, "malformed job info");
}

std::string EncodeAlignSpec(const AlignRequest& align) {
  return EncodeFields(align);
}

Result<AlignRequest> DecodeAlignSpec(std::string_view spec) {
  return Decode<AlignRequest>(spec, "malformed align spec");
}

std::string EncodeServerStatsResult(const ServerStatsResult& result) {
  return EncodeFields(result);
}

Result<ServerStatsResult> DecodeServerStatsResult(std::string_view body) {
  return Decode<ServerStatsResult>(body, "malformed server stats result");
}

std::string EncodeCacheInfoResult(const CacheInfoResult& result) {
  return EncodeFields(result);
}

Result<CacheInfoResult> DecodeCacheInfoResult(std::string_view body) {
  return Decode<CacheInfoResult>(body, "malformed cache info result");
}

std::string EncodePutGraphResult(const PutGraphResult& result) {
  return EncodeFields(result);
}

Result<PutGraphResult> DecodePutGraphResult(std::string_view body) {
  return Decode<PutGraphResult>(body, "malformed put-graph result");
}

std::string EncodeHasGraphResult(const HasGraphResult& result) {
  return EncodeFields(result);
}

Result<HasGraphResult> DecodeHasGraphResult(std::string_view body) {
  return Decode<HasGraphResult>(body, "malformed has-graph result");
}

}  // namespace graphalign
