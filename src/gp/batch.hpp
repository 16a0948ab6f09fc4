#pragma once
// Fleet-level GP fan-out: each (vehicle, DID) dataset is an independent
// inference problem, so the Table 6/7/8 sweeps and the CLI scatter them
// across a work-stealing pool instead of inferring one formula at a time.
// Each job carries its own GpConfig (seed included) and runs on one
// thread, so a batch run produces exactly the results the equivalent
// serial loop would.

#include <optional>
#include <vector>

#include "correlate/correlate.hpp"
#include "gp/engine.hpp"

namespace dpr::util {
class ThreadPool;
}

namespace dpr::gp {

/// One unit of work: a dataset plus the fully-resolved config (including
/// the per-signal seed perturbation) to infer it with.
struct BatchJob {
  const correlate::Dataset* dataset = nullptr;
  GpConfig config;
};

class BatchRunner {
 public:
  /// `n_threads`: 0 = hardware concurrency, 1 = serial (no pool spawned).
  explicit BatchRunner(std::size_t n_threads = 0);

  /// Fan jobs over an existing pool instead of spawning one (non-owning;
  /// `pool` must outlive the runner). This is the shared-thread-budget
  /// mode: when campaigns themselves run as tasks of a fleet pool, their
  /// inner batches re-enter the same pool — parallel_for is
  /// caller-participating, so the nesting cannot deadlock and the machine
  /// never runs more workers than the fleet budget.
  explicit BatchRunner(util::ThreadPool& pool);

  std::size_t n_threads() const { return n_threads_; }

  /// Infer every job; results[i] corresponds to jobs[i]. Independent of
  /// the thread count — jobs never share state.
  std::vector<std::optional<GpResult>> run(
      const std::vector<BatchJob>& jobs) const;

 private:
  std::size_t n_threads_ = 1;
  util::ThreadPool* shared_pool_ = nullptr;
};

}  // namespace dpr::gp
