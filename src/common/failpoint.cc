#include "common/failpoint.h"

#include <signal.h>
#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/flags.h"
#include "common/random.h"

namespace graphalign {

namespace {

// Canonical site table: every injection site compiled into the tree, in
// subsystem order. KnownFailpoints() serves this list so the chaos suite and
// tools/run_chaos.sh can iterate all sites without first executing the code
// paths that register them lazily. Keep in sync with DESIGN.md §12.
const char* const kKnownSites[] = {
    "linalg.eigen.no-converge",    // Tql2: QL iteration fails (kNumerical).
    "linalg.lanczos.error",        // LanczosEigen entry (kNumerical).
    "linalg.svd.no-converge",      // Jacobi sweeps exhausted (kNumerical).
    "linalg.sinkhorn.underflow",   // Force the log-domain fallback path.
    "linalg.sinkhorn.strict",      // Re-enable the strict kernel rejection.
    "align.similarity.error",      // Aligner::ComputeSimilarity (transient).
    "align.similarity.nan",        // Poison the similarity matrix with NaN.
    "align.sparse.candidates.error",  // ComputeSparseSimilarity (transient).
    "assignment.extract.error",    // ExtractAlignment entry (transient).
    "assignment.sparse_lap.pop",   // SparseLapAssign Dijkstra pop loop.
    "graph.io.read.error",         // ReadEdgeList entry (transient).
    "subprocess.fork.error",       // RunIsolated before fork (transient).
    "subprocess.child.fault",      // Inside the isolated child, before body.
    "bench.cell.flaky",            // Bench harness, parent side of a cell.
    "server.request.error",        // Daemon request dispatch (transient).
    "server.worker.drop",          // Worker dies between dequeue and reply.
    "server.busy",                 // Admission control refuses the client.
    "server.isolation.helper_exit",  // Evaluated by the daemon per isolated
                                     // align: the helper runs the request,
                                     // then exits before replying.
    "server.cache.append.error",   // Cache-log append fails (IO error).
    "server.cache.append.torn",    // Crash mid-append: torn record on disk.
    "server.cache.replay.error",   // Cache-log open/replay fails (cold start).
    "store.write.error",           // GST1 temp-file write fails (IO error).
    "store.write.enospc",          // Disk full (ENOSPC) on the GST1 write:
                                   // must classify kUnavailable, never
                                   // kCorrupt / quarantine.
    "store.fsync.error",           // fsync of the temp file fails.
    "store.rename.error",          // Crash window: temp written, not renamed.
    "store.mmap.error",            // mmap of a .gst file fails (transient).
    "store.verify.corrupt",        // Force CRC verification failure on open.
    "server.cache.append.enospc",  // Disk full on a cache-log append: the
                                   // record is dropped and counted, the
                                   // in-memory cache keeps serving.
    "jobs.journal.append.error",   // Job-journal append fails (IO error).
    "jobs.journal.append.torn",    // Crash mid-append: torn journal record.
    "jobs.journal.append.enospc",  // Disk full on a journal append: the
                                   // transition is refused kUnavailable.
    "jobs.journal.replay.error",   // Journal open/replay fails entirely.
    "jobs.exec.delay",             // Stall the job runner before executing
                                   // (holds a job in RUNNING for kill tests).
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

enum class Mode { kError, kOnce, kProb, kNan, kDelay, kCrash, kOom };

}  // namespace

// Armed configuration; read and mutated only under the registry mutex.
struct Failpoint::Armed {
  Mode mode = Mode::kError;
  double arg = 0.0;        // delay-ms: milliseconds; prob: probability.
  Rng rng{0};              // prob mode; seeded deterministically at arm time.
  std::string spec;        // As given, for ArmedFailpoints().
};

// Registry of all sites. Sites are never destroyed (chaos code may hold
// references across deactivation), so the map owns them for process life.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance() {
    static FailpointRegistry* instance = new FailpointRegistry();
    return *instance;
  }

  Failpoint& Get(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return GetLocked(name);
  }

  Status Activate(const std::string& name, const std::string& spec) {
    auto armed = ParseSpec(name, spec);
    if (!armed.ok()) return armed.status();
    std::lock_guard<std::mutex> lock(mu_);
    Failpoint& fp = GetLocked(name);
    fp.state_ = std::move(armed).value();
    fp.armed_.store(true, std::memory_order_relaxed);
    return Status::Ok();
  }

  void Deactivate(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(name);
    if (it == sites_.end()) return;
    it->second->armed_.store(false, std::memory_order_relaxed);
    it->second->state_.reset();
    it->second->hits_.store(0, std::memory_order_relaxed);
  }

  void DeactivateAll() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, fp] : sites_) {
      fp->armed_.store(false, std::memory_order_relaxed);
      fp->state_.reset();
      fp->hits_.store(0, std::memory_order_relaxed);
    }
  }

  std::vector<std::string> Armed() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const char* name : kKnownSites) {
      auto it = sites_.find(name);
      if (it != sites_.end() && it->second->state_ != nullptr) {
        out.push_back(std::string(name) + "=" + it->second->state_->spec);
      }
    }
    // Ad-hoc (test-only) sites not in the canonical table.
    for (auto& [name, fp] : sites_) {
      if (fp->state_ == nullptr) continue;
      bool known = false;
      for (const char* k : kKnownSites) known = known || name == k;
      if (!known) out.push_back(name + "=" + fp->state_->spec);
    }
    return out;
  }

  std::mutex& mu() { return mu_; }

 private:
  FailpointRegistry() {
    // Environment activation happens exactly once, before any site can be
    // consulted (every path into a site goes through Get → Instance).
    const char* env = getenv("GRAPHALIGN_FAILPOINTS");
    if (env != nullptr && env[0] != '\0') {
      Status s = ActivateListLocked(env);
      if (!s.ok()) {
        // A malformed env spec must not be silently ignored (the operator
        // believes faults are armed) nor crash production; report and exit
        // usage-style like malformed flags do.
        std::fprintf(stderr, "GRAPHALIGN_FAILPOINTS: %s\n",
                     s.ToString().c_str());
        std::exit(2);
      }
    }
  }

  Status ActivateListLocked(const std::string& list) {
    size_t start = 0;
    while (start < list.size()) {
      size_t end = list.find_first_of(";,", start);
      if (end == std::string::npos) end = list.size();
      const std::string entry = list.substr(start, end - start);
      start = end + 1;
      if (entry.empty()) continue;
      const size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("expected site=mode[:arg], got '" +
                                       entry + "'");
      }
      const std::string name = entry.substr(0, eq);
      const std::string spec = entry.substr(eq + 1);
      auto armed = ParseSpec(name, spec);
      if (!armed.ok()) return armed.status();
      Failpoint& fp = GetLocked(name);
      fp.state_ = std::move(armed).value();
      fp.armed_.store(true, std::memory_order_relaxed);
    }
    return Status::Ok();
  }

  Failpoint& GetLocked(const std::string& name) {
    auto it = sites_.find(name);
    if (it == sites_.end()) {
      it = sites_.emplace(name, std::unique_ptr<Failpoint>(
                                    new Failpoint(name))).first;
    }
    return *it->second;
  }

  static Result<std::unique_ptr<Failpoint::Armed>> ParseSpec(
      const std::string& name, const std::string& spec) {
    std::string mode = spec;
    std::string arg;
    const size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      mode = spec.substr(0, colon);
      arg = spec.substr(colon + 1);
    }
    auto armed = std::make_unique<Failpoint::Armed>();
    armed->spec = spec;
    if (mode == "error") {
      armed->mode = Mode::kError;
    } else if (mode == "once") {
      armed->mode = Mode::kOnce;
    } else if (mode == "nan") {
      armed->mode = Mode::kNan;
    } else if (mode == "crash") {
      armed->mode = Mode::kCrash;
    } else if (mode == "oom") {
      armed->mode = Mode::kOom;
    } else if (mode == "delay-ms") {
      GA_ASSIGN_OR_RETURN(armed->arg,
                          ParseDouble(arg, 0.0, kMaxDouble,
                                      "failpoint " + name + " delay-ms",
                                      "milliseconds"));
      armed->mode = Mode::kDelay;
    } else if (mode == "prob") {
      GA_ASSIGN_OR_RETURN(
          armed->arg,
          ParseDouble(arg, 0.0, 1.0, "failpoint " + name + " prob"));
      armed->mode = Mode::kProb;
      uint64_t seed = 2023;
      const char* env_seed = getenv("GRAPHALIGN_FAILPOINT_SEED");
      if (env_seed != nullptr && env_seed[0] != '\0') {
        GA_ASSIGN_OR_RETURN(seed, ParseUint64(env_seed, 0, kMaxUint64,
                                              "GRAPHALIGN_FAILPOINT_SEED"));
      }
      armed->rng = Rng(seed ^ Fnv1a(name));
    } else {
      return Status::InvalidArgument(
          "failpoint " + name + ": unknown mode '" + mode +
          "' (expected error|once|prob:P|nan|delay-ms:N|crash|oom)");
    }
    return armed;
  }

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Failpoint>> sites_;
};

namespace {

// Allocate-and-touch until the memory cap (or the OOM killer) ends the
// process; mirrors the _OOM fault aligner so the subprocess classifier sees
// the same signature.
[[noreturn]] void ExhaustMemory() {
  std::vector<std::unique_ptr<char[]>> hog;
  constexpr size_t kChunk = 64 << 20;
  for (;;) {
    hog.push_back(std::make_unique<char[]>(kChunk));
    for (size_t off = 0; off < kChunk; off += 4096) {
      hog.back()[off] = static_cast<char>(off);
    }
    if (hog.size() > 64) {  // ~4 GB safety net when run without a limit.
      std::fprintf(stderr,
                   "failpoint oom: survived 4 GB appetite (no mem limit?)\n");
      std::abort();
    }
  }
}

}  // namespace

Failpoint::Failpoint(std::string name) : name_(std::move(name)) {}

Failpoint::~Failpoint() = default;

Failpoint& Failpoint::Get(const std::string& name) {
  return FailpointRegistry::Instance().Get(name);
}

int64_t Failpoint::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

Status Failpoint::Fire(const Status& natural_error) {
  double delay_ms = -1.0;
  {
    std::lock_guard<std::mutex> lock(FailpointRegistry::Instance().mu());
    if (state_ == nullptr) return Status::Ok();  // Lost a disarm race.
    switch (state_->mode) {
      case Mode::kError:
      case Mode::kNan:  // A status-only site has no value to poison.
        hits_.fetch_add(1, std::memory_order_relaxed);
        return natural_error;
      case Mode::kOnce:
        hits_.fetch_add(1, std::memory_order_relaxed);
        armed_.store(false, std::memory_order_relaxed);
        state_.reset();
        return natural_error;
      case Mode::kProb:
        if (state_->rng.Bernoulli(state_->arg)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return natural_error;
        }
        return Status::Ok();
      case Mode::kDelay:
        hits_.fetch_add(1, std::memory_order_relaxed);
        delay_ms = state_->arg;
        break;  // Sleep outside the lock.
      case Mode::kCrash:
        hits_.fetch_add(1, std::memory_order_relaxed);
        raise(SIGSEGV);
        std::abort();  // If SIGSEGV is blocked/ignored, still die loudly.
      case Mode::kOom:
        hits_.fetch_add(1, std::memory_order_relaxed);
        ExhaustMemory();
    }
  }
  if (delay_ms >= 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
  return Status::Ok();
}

bool Failpoint::FireBool() {
  double delay_ms = -1.0;
  {
    std::lock_guard<std::mutex> lock(FailpointRegistry::Instance().mu());
    if (state_ == nullptr) return false;
    switch (state_->mode) {
      case Mode::kError:
      case Mode::kNan:
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      case Mode::kOnce:
        hits_.fetch_add(1, std::memory_order_relaxed);
        armed_.store(false, std::memory_order_relaxed);
        state_.reset();
        return true;
      case Mode::kProb:
        if (state_->rng.Bernoulli(state_->arg)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        return false;
      case Mode::kDelay:
        hits_.fetch_add(1, std::memory_order_relaxed);
        delay_ms = state_->arg;
        break;
      case Mode::kCrash:
        hits_.fetch_add(1, std::memory_order_relaxed);
        raise(SIGSEGV);
        std::abort();
      case Mode::kOom:
        hits_.fetch_add(1, std::memory_order_relaxed);
        ExhaustMemory();
    }
  }
  if (delay_ms >= 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
  return false;
}

Status ActivateFailpoint(const std::string& name, const std::string& spec) {
  return FailpointRegistry::Instance().Activate(name, spec);
}

Status ActivateFailpointsFromSpec(const std::string& spec) {
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find_first_of(";,", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected site=mode[:arg], got '" +
                                     entry + "'");
    }
    GA_RETURN_IF_ERROR(
        ActivateFailpoint(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::Ok();
}

void DeactivateFailpoint(const std::string& name) {
  FailpointRegistry::Instance().Deactivate(name);
}

void DeactivateAllFailpoints() { FailpointRegistry::Instance().DeactivateAll(); }

std::vector<std::string> KnownFailpoints() {
  std::vector<std::string> out;
  for (const char* name : kKnownSites) out.emplace_back(name);
  return out;
}

std::vector<std::string> ArmedFailpoints() {
  return FailpointRegistry::Instance().Armed();
}

}  // namespace graphalign
