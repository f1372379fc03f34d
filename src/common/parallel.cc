#include "common/parallel.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/flags.h"

namespace graphalign {

namespace {

// Set while the current thread is executing a block of a pool job. A nested
// ParallelFor issued from inside a job must not touch the pool: Run() keeps
// a single (fn_, n_, next_block_) job slot, so a reentrant submission would
// overwrite the live state of the outer job and corrupt its partition.
thread_local bool t_in_pool_job = false;

// Worker threads launched so far (set once in the Pool constructor).
std::atomic<int> g_workers_started{0};

// A minimal persistent pool: workers sleep on a condition variable and are
// woken with a (fn, n, blocks) job; the submitting thread participates too.
class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // Never destroyed (worker threads).
    return *pool;
  }

  int thread_count() const { return workers_ + 1; }

  // Worker threads do not survive fork(); a forked child must run inline.
  bool InForkedChild() const { return getpid() != owner_pid_; }

  void Run(int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
    const int parts = thread_count();
    {
      std::unique_lock<std::mutex> lock(mu_);
      fn_ = &fn;
      n_ = n;
      parts_ = parts;
      next_block_ = 0;
      pending_ = workers_;
      ++generation_;
      cv_.notify_all();
    }
    // The caller works through blocks alongside the workers.
    DrainBlocks();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }

 private:
  Pool() {
    const int threads = std::max(
        1, ThreadCountFromEnv(
               std::getenv("GRAPHALIGN_THREADS"),
               static_cast<int>(std::thread::hardware_concurrency())));
    owner_pid_ = getpid();
    workers_ = threads - 1;
    g_workers_started.store(workers_, std::memory_order_relaxed);
    for (int w = 0; w < workers_; ++w) {
      std::thread([this] { WorkerLoop(); }).detach();
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return generation_ != seen_generation; });
        seen_generation = generation_;
      }
      DrainBlocks();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  void DrainBlocks() {
    for (;;) {
      const int block = next_block_.fetch_add(1);
      if (block >= parts_) break;
      const int64_t begin = n_ * block / parts_;
      const int64_t end = n_ * (block + 1) / parts_;
      if (begin < end) {
        t_in_pool_job = true;
        (*fn_)(begin, end);
        t_in_pool_job = false;
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t n_ = 0;
  int parts_ = 1;
  std::atomic<int> next_block_{0};
  int pending_ = 0;
  uint64_t generation_ = 0;
  int workers_ = 0;
  pid_t owner_pid_ = 0;
};

}  // namespace

int ThreadCountFromEnv(const char* value, int hardware) {
  if (value == nullptr || value[0] == '\0') return hardware;
  auto n = ParseInt(value, 1, kMaxThreads, "GRAPHALIGN_THREADS");
  if (n.ok()) return static_cast<int>(*n);
  std::fprintf(stderr, "%s; using the hardware thread count\n",
               n.status().message().c_str());
  return hardware;
}

int ParallelThreadCount() { return Pool::Instance().thread_count(); }

int ParallelWorkersStarted() {
  return g_workers_started.load(std::memory_order_relaxed);
}

void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_work) {
  if (n <= 0) return;
  // A nested call from inside a pool job runs inline: the pool has a single
  // job slot and reentrant submission would corrupt the outer job.
  if (t_in_pool_job) {
    fn(0, n);
    return;
  }
  Pool& pool = Pool::Instance();
  if (n < min_work || pool.thread_count() == 1 || pool.InForkedChild()) {
    fn(0, n);
    return;
  }
  pool.Run(n, fn);
}

}  // namespace graphalign
