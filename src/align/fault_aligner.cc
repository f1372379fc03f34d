// The _CRASH/_OOM/_HANG fault injectors behind MakeFaultAligner
// (align/aligner.h).
#include <signal.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"

namespace graphalign {

namespace {

class FaultAligner : public Aligner {
 public:
  enum class Kind { kCrash, kOom, kHang };

  explicit FaultAligner(Kind kind) : kind_(kind) {}

  std::string name() const override {
    switch (kind_) {
      case Kind::kCrash: return "_CRASH";
      case Kind::kOom: return "_OOM";
      case Kind::kHang: return "_HANG";
    }
    return "_FAULT";
  }

  AssignmentMethod default_assignment() const override {
    return AssignmentMethod::kSortGreedy;
  }

 protected:
  Result<DenseMatrix> ComputeSimilarityImpl(const Graph&, const Graph&,
                                            const Deadline&) override {
    switch (kind_) {
      case Kind::kCrash:
        raise(SIGSEGV);
        break;
      case Kind::kOom: {
        // Allocate-and-touch until the rlimit (or, as a safety net when run
        // without one, a 4 GB appetite) is hit. Touching every page makes
        // the usage resident, so RLIMIT_AS and the OOM killer both see it.
        std::vector<std::unique_ptr<char[]>> hog;
        constexpr size_t kChunk = 64 << 20;
        for (int i = 0; i < 64; ++i) {
          hog.push_back(std::make_unique<char[]>(kChunk));
          for (size_t off = 0; off < kChunk; off += 4096) {
            hog.back()[off] = static_cast<char>(off);
          }
        }
        return Status::ResourceExhausted(
            "_OOM injector survived its 4 GB appetite (no memory limit?)");
      }
      case Kind::kHang: {
        // Deliberately never polls the deadline: only the executor's hard
        // wall-clock kill can stop this.
        volatile uint64_t spin = 0;
        for (;;) spin = spin + 1;
      }
    }
    return Status::Internal("unreachable fault injector state");
  }

 private:
  Kind kind_;
};

}  // namespace

std::unique_ptr<Aligner> MakeFaultAligner(const std::string& name) {
  if (name == "_CRASH") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kCrash);
  }
  if (name == "_OOM") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kOom);
  }
  if (name == "_HANG") {
    return std::make_unique<FaultAligner>(FaultAligner::Kind::kHang);
  }
  return nullptr;
}

}  // namespace graphalign
