// SpmvEngine: the prepare-once / run-many facade over candidate
// materialisation and execution.
//
// Conversion (and, for threaded execution, partition planning) happens
// once at construction; run() and measure() then execute y = A·x as many
// times as needed with zero per-call setup. The thread count selects the
// execution plan:
//
//   threads == 0   single-threaded AnyFormat kernel (any format)
//   threads >= 1   ThreadedSpmv partition plan with that many OpenMP
//                  threads — only for the formats the paper parallelises
//                  (§V-A: CSR/BCSR/BCSD and the decomposed variants);
//                  other formats throw invalid_argument_error.
//
// Note `threads == 1` still runs the threaded driver (one-thread plan),
// so single-thread baselines exercise the same code path and per-thread
// telemetry as the scaling points, exactly like the paper's Fig. 2.
//
// The measurement loops are instrumented: spans "measure/spmv" (plain
// plan) and "measure/threaded" (threaded plan), plus the per-thread
// "parallel/<fmt>" metrics recorded by ThreadedSpmv itself.
//
// Robustness rails (all opt-in, zero cost when unused): measure() honours
// MeasureOptions::control — a RunControl carrying a deadline and/or
// cooperative cancellation, enforced by a Watchdog plus iteration-edge
// and granule-boundary polls — and MeasureOptions::check_numerics, the
// NaN/Inf + output-fingerprint health guard. The guarded run() overload
// applies the same guards to a single y = A·x for service loops.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/executor.hpp"
#include "src/observe/observe.hpp"
#include "src/util/numerics.hpp"
#include "src/util/prng.hpp"
#include "src/util/run_control.hpp"

namespace bspmv {

namespace detail {

template <class V>
aligned_vector<V> random_measure_vector(std::size_t n, std::uint64_t seed) {
  aligned_vector<V> v(n);
  Xoshiro256 rng(seed);
  for (auto& e : v) e = static_cast<V>(rng.uniform() - 0.5);
  return v;
}

/// The resilient repeated-batch measurement loop behind
/// SpmvEngine::measure, shared (as a template) with the fault-injection
/// tests so injected stalls and cancellations exercise the exact
/// production path. `run_once(x, y)` must compute y = A·x; the loop
/// replicates the paper's methodology (warmup, `reps` batches of
/// `iterations`, minimum per-iteration time reported) with the
/// RunControl/Watchdog and numeric-guard rails of MeasureOptions.
template <class V, class RunFn>
double measure_guarded(index_t rows, index_t cols, const MeasureOptions& opt,
                       RunFn&& run_once) {
  BSPMV_CHECK(opt.iterations > 0 && opt.reps > 0 && opt.warmup >= 0);
  auto x =
      random_measure_vector<V>(static_cast<std::size_t>(cols), opt.seed);
  aligned_vector<V> y(static_cast<std::size_t>(rows), V{0});

  RunControl* rc = opt.control;
  // The watchdog enforces the deadline/stall budget even while workers
  // are inside a kernel; it spawns no thread when neither is configured.
  std::optional<Watchdog> watchdog;
  if (rc) watchdog.emplace(*rc);

  if (opt.check_numerics)
    check_finite("measure: input vector x", x.data(), x.size());

  auto once = [&] {
    if (rc) rc->check();  // iteration edge: deadline + typed throw
    run_once(x.data(), y.data());
    if (rc) {
      rc->heartbeat(0);
      rc->throw_if_aborted();  // an abort mid-run leaves y indeterminate
    }
  };

  // The fingerprint needs a completed reference output; guarantee one
  // warmup run when the guard is on.
  const int warmup =
      opt.check_numerics && opt.warmup == 0 ? 1 : opt.warmup;
  for (int i = 0; i < warmup; ++i) once();

  std::uint64_t ref_fp = 0;
  if (opt.check_numerics) {
    check_finite("measure: output vector y", y.data(), y.size());
    ref_fp = bits_fingerprint(y.data(), y.size());
    BSPMV_OBS_COUNT("guard.numeric_scans", 1);
  }

  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < opt.reps; ++r) {
    Timer t;
    for (int i = 0; i < opt.iterations; ++i) once();
    best = std::min(best, t.elapsed() / opt.iterations);
    if (opt.check_numerics &&
        bits_fingerprint(y.data(), y.size()) != ref_fp) {
      BSPMV_OBS_COUNT("guard.fingerprint_failures", 1);
      throw numerical_error(
          "measure: output fingerprint changed between batches — "
          "nondeterministic kernel or memory corruption");
    }
  }
  do_not_optimize(y.data());
  return best;
}

}  // namespace detail

template <class V>
class SpmvEngine {
 public:
  /// Fault-tolerant prepare: walk `ranked` through try_prepare (falling
  /// back to scalar CSR if every candidate fails), then build the plan.
  static SpmvEngine prepare(const Csr<V>& a,
                            const std::vector<Candidate>& ranked,
                            int threads = 0);

  /// Single-candidate prepare; conversion failures throw.
  static SpmvEngine prepare(const Csr<V>& a, const Candidate& c,
                            int threads = 0);

  /// Non-owning engine over an already-materialised format; `f` must
  /// outlive the engine.
  static SpmvEngine borrow(const AnyFormat<V>& f, int threads = 0);

  const AnyFormat<V>& format() const { return *fmt_; }
  /// The prepare audit trail (fallback flag + skipped candidates), or
  /// nullptr for borrow() / single-candidate engines.
  const PreparedExecutor<V>* prepared() const { return owned_.get(); }
  int threads() const { return threads_; }

  /// Swap to a new thread count, reusing the already-converted format
  /// (conversion dominates a thread-scaling sweep; Fig. 2). On failure
  /// the engine keeps its previous plan.
  void set_threads(int threads);

  /// y = A·x through the current plan.
  void run(const V* x, V* y) const;

  /// Guarded y = A·x for service loops: optionally scans x before and y
  /// after for NaN/Inf (numerical_error), and honours a RunControl —
  /// threaded plans poll its stop flag at granule boundaries, and the
  /// control's typed error is thrown after the run if it aborted. Either
  /// rail may be off (control == nullptr / check_numerics == false).
  void run(const V* x, V* y, RunControl* control,
           bool check_numerics = false) const;

  /// Y = A·X for k right-hand sides through the current plan (X cols×k,
  /// Y rows×k, laid out per `layout` — src/kernels/layout.hpp). The
  /// matrix is streamed once across all k vectors in row-major layout;
  /// k == 1 is exactly run(). See docs/spmm.md.
  void run_multi(const V* X, V* Y, int k, Layout layout) const;

  /// Guarded run_multi with the same RunControl / NaN-Inf rails as the
  /// guarded run() overload.
  void run_multi(const V* X, V* Y, int k, Layout layout,
                 RunControl* control, bool check_numerics = false) const;

  /// Seconds per SpMV the way the paper measures it: repeated consecutive
  /// operations on a random input vector, minimum over reps. Honours
  /// opt.control and opt.check_numerics (see MeasureOptions).
  double measure(const MeasureOptions& opt = {}) const;

  /// Seconds per SpMM (one multiply of all k vectors), same methodology
  /// as measure(). Divide by k for the effective per-vector time the
  /// crossover analysis compares against measure().
  double measure_multi(int k, Layout layout,
                       const MeasureOptions& opt = {}) const;

 private:
  SpmvEngine() = default;
  void build_plan();

  /// Type-erased threaded execution plan (one ThreadedSpmv<F> behind
  /// virtuals); absent when threads_ == 0.
  struct Plan {
    virtual ~Plan() = default;
    virtual void run(const V* x, V* y, Impl impl,
                     RunControl* control) const = 0;
    virtual void run_multi(const V* X, V* Y, int k, Layout layout,
                           Impl impl, RunControl* control) const = 0;
  };
  template <class F>
  struct TypedPlan;

  std::unique_ptr<PreparedExecutor<V>> owned_;  ///< null when borrowing
  const AnyFormat<V>* fmt_ = nullptr;
  std::unique_ptr<Plan> plan_;
  int threads_ = 0;
};

extern template class SpmvEngine<float>;
extern template class SpmvEngine<double>;

}  // namespace bspmv
