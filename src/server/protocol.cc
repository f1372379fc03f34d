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

bool ReadWireGraph(ByteReader* r, WireGraph* g) {
  uint32_t n = 0;
  uint64_t m = 0;
  if (!r->U32(&n) || !r->U64(&m)) return false;
  if (n > kMaxWireNodes || m > kMaxWireEdges) return false;
  g->num_nodes = static_cast<int>(n);
  g->edges.clear();
  g->edges.reserve(static_cast<size_t>(m));
  for (uint64_t i = 0; i < m; ++i) {
    uint32_t u = 0, v = 0;
    if (!r->U32(&u) || !r->U32(&v)) return false;
    // Endpoint range is validated here so Graph::FromEdges sees sane ints;
    // semantic validation (self-loops, duplicates) stays with the graph.
    if (u >= n || v >= n) return false;
    g->edges.push_back({static_cast<int>(u), static_cast<int>(v)});
  }
  return true;
}

void WriteWireGraph(ByteWriter* w, const WireGraph& g) {
  w->U32(static_cast<uint32_t>(g.num_nodes));
  w->U64(g.edges.size());
  for (const Edge& e : g.edges) {
    w->U32(static_cast<uint32_t>(e.u));
    w->U32(static_cast<uint32_t>(e.v));
  }
}

bool ReadMapping(ByteReader* r, std::vector<int32_t>* mapping) {
  uint32_t n = 0;
  if (!r->U32(&n) || n > kMaxWireNodes) return false;
  mapping->clear();
  mapping->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t v = 0;
    if (!r->I32(&v)) return false;
    mapping->push_back(v);
  }
  return true;
}

void WriteMapping(ByteWriter* w, const std::vector<int32_t>& mapping) {
  w->U32(static_cast<uint32_t>(mapping.size()));
  for (int32_t v : mapping) w->I32(v);
}

// The align-request field block, shared by kAlign, kSubmitJob, and the
// durable job spec (EncodeAlignSpec): one encoding, three carriers.
void WriteAlignRequest(ByteWriter* w, const AlignRequest& a) {
  w->Str(a.algo);
  w->Str(a.assign);
  w->U64(a.deadline_ms);
  w->U64(a.mem_limit_mb);
  w->U8(a.no_cache ? 1 : 0);
  w->U8(a.by_hash ? 1 : 0);
  w->U64(a.g1_hash);
  w->U64(a.g2_hash);
  WriteWireGraph(w, a.g1);
  WriteWireGraph(w, a.g2);
}

bool ReadAlignRequest(ByteReader* r, AlignRequest* a) {
  uint8_t no_cache = 0;
  uint8_t by_hash = 0;
  if (!r->Str(&a->algo, kMaxNameLen) || !r->Str(&a->assign, kMaxNameLen) ||
      !r->U64(&a->deadline_ms) || !r->U64(&a->mem_limit_mb) ||
      !r->U8(&no_cache) || !r->U8(&by_hash) || !r->U64(&a->g1_hash) ||
      !r->U64(&a->g2_hash) || !ReadWireGraph(r, &a->g1) ||
      !ReadWireGraph(r, &a->g2)) {
    return false;
  }
  a->no_cache = no_cache != 0;
  a->by_hash = by_hash != 0;
  // A by-hash align must not also carry inline graphs: the two sources
  // could disagree and the cache key would be ambiguous.
  if (a->by_hash && (a->g1.num_nodes != 0 || !a->g1.edges.empty() ||
                     a->g2.num_nodes != 0 || !a->g2.edges.empty())) {
    return false;
  }
  return true;
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
  ByteWriter w;
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(request.type));
  w.Str(request.client);
  w.U8(static_cast<uint8_t>(request.transport));
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kCacheInfo:
    case RequestType::kShutdown:
    case RequestType::kServerStats:
      break;
    case RequestType::kAlign:
      WriteAlignRequest(&w, request.align);
      break;
    case RequestType::kSubmitJob:
      WriteAlignRequest(&w, request.submit_job.align);
      w.Str(request.submit_job.idem_key);
      break;
    case RequestType::kJobStatus:
    case RequestType::kJobResult:
    case RequestType::kCancelJob:
      w.U64(request.job_id.job_id);
      break;
    case RequestType::kEvaluate: {
      const EvaluateRequest& e = request.evaluate;
      WriteWireGraph(&w, e.g1);
      WriteWireGraph(&w, e.g2);
      WriteMapping(&w, e.mapping);
      WriteMapping(&w, e.truth);
      break;
    }
    case RequestType::kStats:
      WriteWireGraph(&w, request.stats.g);
      break;
    case RequestType::kPutGraph:
      WriteWireGraph(&w, request.put_graph.g);
      break;
    case RequestType::kHasGraph:
      w.U64(request.has_graph.hash);
      break;
    case RequestType::kAlignBatch: {
      const AlignBatchRequest& b = request.align_batch;
      w.U32(static_cast<uint32_t>(b.graphs.size()));
      for (const BatchGraphRef& g : b.graphs) {
        w.U8(g.by_hash ? 1 : 0);
        w.U64(g.hash);
        WriteWireGraph(&w, g.inline_graph);
      }
      w.U32(static_cast<uint32_t>(b.jobs.size()));
      for (const BatchJob& j : b.jobs) {
        w.U32(j.g1);
        w.U32(j.g2);
        w.Str(j.algo);
        w.Str(j.assign);
        w.U64(j.deadline_ms);
        w.U64(j.mem_limit_mb);
        w.U8(j.no_cache ? 1 : 0);
      }
      break;
    }
  }
  return w.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  ByteReader r(payload);
  uint32_t version = 0;
  uint8_t type = 0;
  if (!r.U32(&version) || !r.U8(&type)) {
    return BadPayload("request too short for version and type");
  }
  if (version != kProtocolVersion) {
    return BadPayload("unsupported protocol version " +
                      std::to_string(version));
  }
  Request request;
  if (!r.Str(&request.client, kMaxNameLen)) {
    return BadPayload("malformed client identity");
  }
  uint8_t transport = 0;
  if (!r.U8(&transport) ||
      transport > static_cast<uint8_t>(Transport::kHttp)) {
    return BadPayload("malformed transport tag");
  }
  request.transport = static_cast<Transport>(transport);
  switch (static_cast<RequestType>(type)) {
    case RequestType::kPing:
    case RequestType::kCacheInfo:
    case RequestType::kShutdown:
    case RequestType::kServerStats:
      request.type = static_cast<RequestType>(type);
      break;
    case RequestType::kAlign:
      request.type = RequestType::kAlign;
      if (!ReadAlignRequest(&r, &request.align)) {
        return BadPayload("malformed align request");
      }
      break;
    case RequestType::kSubmitJob:
      request.type = RequestType::kSubmitJob;
      if (!ReadAlignRequest(&r, &request.submit_job.align) ||
          !r.Str(&request.submit_job.idem_key, kMaxNameLen)) {
        return BadPayload("malformed submit-job request");
      }
      break;
    case RequestType::kJobStatus:
    case RequestType::kJobResult:
    case RequestType::kCancelJob:
      request.type = static_cast<RequestType>(type);
      if (!r.U64(&request.job_id.job_id)) {
        return BadPayload("malformed job id request");
      }
      break;
    case RequestType::kEvaluate: {
      request.type = RequestType::kEvaluate;
      EvaluateRequest& e = request.evaluate;
      if (!ReadWireGraph(&r, &e.g1) || !ReadWireGraph(&r, &e.g2) ||
          !ReadMapping(&r, &e.mapping) || !ReadMapping(&r, &e.truth)) {
        return BadPayload("malformed evaluate request");
      }
      break;
    }
    case RequestType::kStats:
      request.type = RequestType::kStats;
      if (!ReadWireGraph(&r, &request.stats.g)) {
        return BadPayload("malformed stats request");
      }
      break;
    case RequestType::kPutGraph:
      request.type = RequestType::kPutGraph;
      if (!ReadWireGraph(&r, &request.put_graph.g)) {
        return BadPayload("malformed put-graph request");
      }
      break;
    case RequestType::kHasGraph:
      request.type = RequestType::kHasGraph;
      if (!r.U64(&request.has_graph.hash)) {
        return BadPayload("malformed has-graph request");
      }
      break;
    case RequestType::kAlignBatch: {
      request.type = RequestType::kAlignBatch;
      AlignBatchRequest& b = request.align_batch;
      uint32_t num_graphs = 0;
      if (!r.U32(&num_graphs) || num_graphs == 0 ||
          num_graphs > kMaxBatchGraphs) {
        return BadPayload("malformed batch graph table");
      }
      b.graphs.resize(num_graphs);
      for (BatchGraphRef& g : b.graphs) {
        uint8_t by_hash = 0;
        if (!r.U8(&by_hash) || by_hash > 1 || !r.U64(&g.hash) ||
            !ReadWireGraph(&r, &g.inline_graph)) {
          return BadPayload("malformed batch graph entry");
        }
        g.by_hash = by_hash != 0;
        // Mirror the kAlign rule: a hash reference must not also carry an
        // inline graph (the two could disagree).
        if (g.by_hash && (g.inline_graph.num_nodes != 0 ||
                          !g.inline_graph.edges.empty())) {
          return BadPayload("batch graph entry has both hash and inline");
        }
      }
      uint32_t num_jobs = 0;
      if (!r.U32(&num_jobs) || num_jobs == 0 || num_jobs > kMaxBatchJobs) {
        return BadPayload("malformed batch job list");
      }
      b.jobs.resize(num_jobs);
      for (BatchJob& j : b.jobs) {
        uint8_t no_cache = 0;
        if (!r.U32(&j.g1) || !r.U32(&j.g2) || !r.Str(&j.algo, kMaxNameLen) ||
            !r.Str(&j.assign, kMaxNameLen) || !r.U64(&j.deadline_ms) ||
            !r.U64(&j.mem_limit_mb) || !r.U8(&no_cache)) {
          return BadPayload("malformed batch job");
        }
        j.no_cache = no_cache != 0;
        if (j.g1 >= num_graphs || j.g2 >= num_graphs) {
          return BadPayload("batch job references a graph out of range");
        }
      }
      break;
    }
    default:
      return BadPayload("unknown request type " + std::to_string(type));
  }
  if (!r.AtEnd()) return BadPayload("trailing bytes after request");
  return request;
}

// ---------------------------------------------------------------------------
// Responses.

const char* ResponseCodeName(ResponseCode code) {
  return ExitCodeName(static_cast<int>(code));
}

std::string EncodeResponse(const Response& response) {
  ByteWriter w;
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(response.code));
  w.U8(response.cache_hit ? 1 : 0);
  w.U64(response.elapsed_us);
  w.U64(response.retry_after_ms);
  w.Str(response.message);
  w.Str(response.body);
  return w.Take();
}

Result<Response> DecodeResponse(std::string_view payload) {
  ByteReader r(payload);
  uint32_t version = 0;
  uint8_t code = 0, cache_hit = 0;
  Response response;
  if (!r.U32(&version) || !r.U8(&code) || !r.U8(&cache_hit) ||
      !r.U64(&response.elapsed_us) || !r.U64(&response.retry_after_ms) ||
      !r.Str(&response.message, kMaxMessageLen) ||
      !r.Str(&response.body, kMaxFramePayload) ||
      !r.AtEnd()) {
    return BadPayload("malformed response");
  }
  if (version != kProtocolVersion) {
    return BadPayload("unsupported protocol version " +
                      std::to_string(version));
  }
  if (!IsResponseCode(code)) {
    return BadPayload("unknown response code " + std::to_string(code));
  }
  response.code = static_cast<ResponseCode>(code);
  response.cache_hit = cache_hit != 0;
  return response;
}

std::string EncodeAlignResult(const AlignResult& result) {
  ByteWriter w;
  WriteMapping(&w, result.mapping);
  w.F64(result.mnc);
  w.F64(result.ec);
  w.F64(result.s3);
  w.F64(result.align_seconds);
  w.U8(result.degraded ? 1 : 0);
  w.Str(result.degrade_reason);
  return w.Take();
}

Result<AlignResult> DecodeAlignResult(std::string_view body) {
  ByteReader r(body);
  AlignResult result;
  uint8_t degraded = 0;
  if (!ReadMapping(&r, &result.mapping) || !r.F64(&result.mnc) ||
      !r.F64(&result.ec) || !r.F64(&result.s3) ||
      !r.F64(&result.align_seconds) || !r.U8(&degraded) ||
      !r.Str(&result.degrade_reason, kMaxMessageLen) || !r.AtEnd()) {
    return BadPayload("malformed align result");
  }
  result.degraded = degraded != 0;
  return result;
}

std::string EncodeAlignBatchResult(const AlignBatchResult& result) {
  ByteWriter w;
  w.U32(result.graph_loads);
  w.U32(static_cast<uint32_t>(result.jobs.size()));
  for (const BatchJobOutcome& job : result.jobs) {
    w.U8(static_cast<uint8_t>(job.code));
    w.U8(job.cache_hit ? 1 : 0);
    w.Str(job.message);
    w.Str(job.body);
  }
  return w.Take();
}

Result<AlignBatchResult> DecodeAlignBatchResult(std::string_view body) {
  ByteReader r(body);
  AlignBatchResult result;
  uint32_t num_jobs = 0;
  if (!r.U32(&result.graph_loads) || !r.U32(&num_jobs) ||
      num_jobs > kMaxBatchJobs) {
    return BadPayload("malformed align batch result");
  }
  result.jobs.reserve(num_jobs);
  for (uint32_t i = 0; i < num_jobs; ++i) {
    BatchJobOutcome& job = result.jobs.emplace_back();
    uint8_t code = 0, cache_hit = 0;
    if (!r.U8(&code) || !r.U8(&cache_hit) ||
        !r.Str(&job.message, kMaxMessageLen) ||
        !r.Str(&job.body, kMaxFramePayload) || !IsResponseCode(code)) {
      return BadPayload("malformed align batch job outcome");
    }
    job.code = static_cast<ResponseCode>(code);
    job.cache_hit = cache_hit != 0;
  }
  if (!r.AtEnd()) return BadPayload("malformed align batch result");
  return result;
}

std::string EncodeEvaluateResult(const EvaluateResult& result) {
  ByteWriter w;
  w.F64(result.mnc);
  w.F64(result.ec);
  w.F64(result.ics);
  w.F64(result.s3);
  w.U8(result.has_accuracy ? 1 : 0);
  w.F64(result.accuracy);
  return w.Take();
}

Result<EvaluateResult> DecodeEvaluateResult(std::string_view body) {
  ByteReader r(body);
  EvaluateResult result;
  uint8_t has_accuracy = 0;
  if (!r.F64(&result.mnc) || !r.F64(&result.ec) || !r.F64(&result.ics) ||
      !r.F64(&result.s3) || !r.U8(&has_accuracy) ||
      !r.F64(&result.accuracy) || !r.AtEnd()) {
    return BadPayload("malformed evaluate result");
  }
  result.has_accuracy = has_accuracy != 0;
  return result;
}

std::string EncodeStatsResult(const StatsResult& result) {
  ByteWriter w;
  w.I32(result.num_nodes);
  w.U64(static_cast<uint64_t>(result.num_edges));
  w.F64(result.avg_degree);
  w.I32(result.max_degree);
  w.I32(result.components);
  w.U64(result.content_hash);
  return w.Take();
}

Result<StatsResult> DecodeStatsResult(std::string_view body) {
  ByteReader r(body);
  StatsResult result;
  uint64_t edges = 0;
  if (!r.I32(&result.num_nodes) || !r.U64(&edges) ||
      !r.F64(&result.avg_degree) || !r.I32(&result.max_degree) ||
      !r.I32(&result.components) || !r.U64(&result.content_hash) ||
      !r.AtEnd()) {
    return BadPayload("malformed stats result");
  }
  result.num_edges = static_cast<int64_t>(edges);
  return result;
}

std::string EncodeJobInfo(const JobInfo& info) {
  ByteWriter w;
  w.U64(info.job_id);
  w.U32(info.state);
  w.Str(info.state_name);
  w.U32(info.attempts);
  w.U32(info.max_attempts);
  w.U64(info.submitted_unix_ms);
  w.U64(info.updated_unix_ms);
  w.U32(info.terminal_code);
  w.Str(info.message);
  w.U8(info.existing ? 1 : 0);
  return w.Take();
}

Result<JobInfo> DecodeJobInfo(std::string_view body) {
  ByteReader r(body);
  JobInfo info;
  uint8_t existing = 0;
  if (!r.U64(&info.job_id) || !r.U32(&info.state) ||
      !r.Str(&info.state_name, kMaxNameLen) || !r.U32(&info.attempts) ||
      !r.U32(&info.max_attempts) || !r.U64(&info.submitted_unix_ms) ||
      !r.U64(&info.updated_unix_ms) || !r.U32(&info.terminal_code) ||
      !r.Str(&info.message, kMaxMessageLen) || !r.U8(&existing) ||
      !r.AtEnd()) {
    return BadPayload("malformed job info");
  }
  info.existing = existing != 0;
  return info;
}

std::string EncodeAlignSpec(const AlignRequest& align) {
  ByteWriter w;
  WriteAlignRequest(&w, align);
  return w.Take();
}

Result<AlignRequest> DecodeAlignSpec(std::string_view spec) {
  ByteReader r(spec);
  AlignRequest align;
  if (!ReadAlignRequest(&r, &align) || !r.AtEnd()) {
    return BadPayload("malformed align spec");
  }
  return align;
}

std::string EncodeServerStatsResult(const ServerStatsResult& result) {
  ByteWriter w;
  w.U64(result.workers);
  w.F64(result.uptime_seconds);
  w.U64(result.accepted);
  w.U64(result.served);
  w.U64(result.busy_rejected);
  w.U64(result.quota_rejected);
  w.U64(result.shed);
  w.U64(result.quarantined);
  w.U64(result.quarantined_signatures);
  w.U64(result.watchdog_kills);
  w.U64(result.queue_depth);
  w.U64(result.in_flight);
  w.U64(result.cache_replayed);
  w.U64(result.cache_crc_skipped);
  w.U64(result.cache_truncated_bytes);
  w.U64(result.cache_append_errors);
  w.U64(result.cache_open_errors);
  w.U64(result.store_puts);
  w.U64(result.store_gets);
  w.U64(result.store_corrupt);
  w.U64(result.store_missing);
  w.U64(result.store_unavailable);
  w.U64(result.served_http);
  w.U64(result.quota_rejected_http);
  w.U64(result.shed_http);
  w.U64(result.batches);
  w.U64(result.batch_jobs);
  w.U64(result.batch_cache_hits);
  w.U64(result.batch_graph_loads);
  w.U64(result.jobs_submitted);
  w.U64(result.jobs_deduped);
  w.U64(result.jobs_done);
  w.U64(result.jobs_failed);
  w.U64(result.jobs_cancelled);
  w.U64(result.jobs_executions);
  w.U64(result.jobs_recovered);
  w.U64(result.jobs_pending);
  w.U32(static_cast<uint32_t>(result.worker_restarts.size()));
  for (uint64_t r : result.worker_restarts) w.U64(r);
  return w.Take();
}

Result<ServerStatsResult> DecodeServerStatsResult(std::string_view body) {
  ByteReader r(body);
  ServerStatsResult result;
  uint32_t workers = 0;
  if (!r.U64(&result.workers) || !r.F64(&result.uptime_seconds) ||
      !r.U64(&result.accepted) || !r.U64(&result.served) ||
      !r.U64(&result.busy_rejected) || !r.U64(&result.quota_rejected) ||
      !r.U64(&result.shed) || !r.U64(&result.quarantined) ||
      !r.U64(&result.quarantined_signatures) ||
      !r.U64(&result.watchdog_kills) || !r.U64(&result.queue_depth) ||
      !r.U64(&result.in_flight) || !r.U64(&result.cache_replayed) ||
      !r.U64(&result.cache_crc_skipped) ||
      !r.U64(&result.cache_truncated_bytes) ||
      !r.U64(&result.cache_append_errors) ||
      !r.U64(&result.cache_open_errors) || !r.U64(&result.store_puts) ||
      !r.U64(&result.store_gets) || !r.U64(&result.store_corrupt) ||
      !r.U64(&result.store_missing) || !r.U64(&result.store_unavailable) ||
      !r.U64(&result.served_http) || !r.U64(&result.quota_rejected_http) ||
      !r.U64(&result.shed_http) || !r.U64(&result.batches) ||
      !r.U64(&result.batch_jobs) || !r.U64(&result.batch_cache_hits) ||
      !r.U64(&result.batch_graph_loads) || !r.U64(&result.jobs_submitted) ||
      !r.U64(&result.jobs_deduped) || !r.U64(&result.jobs_done) ||
      !r.U64(&result.jobs_failed) || !r.U64(&result.jobs_cancelled) ||
      !r.U64(&result.jobs_executions) || !r.U64(&result.jobs_recovered) ||
      !r.U64(&result.jobs_pending) || !r.U32(&workers)) {
    return BadPayload("malformed server stats result");
  }
  // Worker count is operator-bounded (<= 1024 threads); the same bound
  // protects the decode against a hostile length.
  if (workers > 1024) return BadPayload("malformed server stats result");
  result.worker_restarts.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    uint64_t restarts = 0;
    if (!r.U64(&restarts)) return BadPayload("malformed server stats result");
    result.worker_restarts.push_back(restarts);
  }
  if (!r.AtEnd()) return BadPayload("malformed server stats result");
  return result;
}

std::string EncodeCacheInfoResult(const CacheInfoResult& result) {
  ByteWriter w;
  w.U64(result.hits);
  w.U64(result.misses);
  w.U64(result.evictions);
  w.U64(result.entries);
  w.U64(result.bytes);
  w.U64(result.capacity_bytes);
  return w.Take();
}

Result<CacheInfoResult> DecodeCacheInfoResult(std::string_view body) {
  ByteReader r(body);
  CacheInfoResult result;
  if (!r.U64(&result.hits) || !r.U64(&result.misses) ||
      !r.U64(&result.evictions) || !r.U64(&result.entries) ||
      !r.U64(&result.bytes) || !r.U64(&result.capacity_bytes) ||
      !r.AtEnd()) {
    return BadPayload("malformed cache info result");
  }
  return result;
}

std::string EncodePutGraphResult(const PutGraphResult& result) {
  ByteWriter w;
  w.U64(result.content_hash);
  w.U8(result.already_present ? 1 : 0);
  return w.Take();
}

Result<PutGraphResult> DecodePutGraphResult(std::string_view body) {
  ByteReader r(body);
  PutGraphResult result;
  uint8_t already = 0;
  if (!r.U64(&result.content_hash) || !r.U8(&already) || !r.AtEnd()) {
    return BadPayload("malformed put-graph result");
  }
  result.already_present = already != 0;
  return result;
}

std::string EncodeHasGraphResult(const HasGraphResult& result) {
  ByteWriter w;
  w.U8(result.present ? 1 : 0);
  return w.Take();
}

Result<HasGraphResult> DecodeHasGraphResult(std::string_view body) {
  ByteReader r(body);
  HasGraphResult result;
  uint8_t present = 0;
  if (!r.U8(&present) || !r.AtEnd()) {
    return BadPayload("malformed has-graph result");
  }
  result.present = present != 0;
  return result;
}

}  // namespace graphalign
