// Shared pieces of the benchmark driver: command-line arguments, the
// result record every workload fills, the in-memory span tracer, the
// scalar-CSR reference check and small statistics helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/formats/csr.hpp"
#include "src/profile/machine_profile.hpp"
#include "src/util/json.hpp"

namespace perfbench {

using bspmv::Csr;
using bspmv::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturb every reference vector so the correctness gate must fire.
  bool corrupt_reference = false;
  /// Directory for the machine profile, traces and result records.
  std::string state_dir = "perfbench/.state";
};

/// One reported number. `moves` names the end-to-end metric and workload
/// a per-layer metric should move ("spmv_gflops/solve"); empty for
/// end-to-end metrics.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;
};

struct Result {
  std::vector<Metric> metrics;
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  Json::Object meta;

  void add(std::string name, double value, std::string unit,
           std::string moves = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(moves)});
  }
  /// Count one operation; `ok` false marks it failed.
  void op(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

/// Everything a workload needs from the driver.
struct Context {
  Args args;
  bspmv::MachineProfile profile;
  int nproc = 1;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own code around public
// library calls, kept in memory and written out once at exit.
// ---------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    std::int64_t request = -1;  ///< serve request id, -1 otherwise
  };

  /// RAII span; inert when tracing is off. Nested scopes on one thread
  /// become children of the innermost open scope unless a parent is
  /// given explicitly (cross-thread children).
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::int64_t request = -1,
          std::uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return span_.id; }

   private:
    Tracer* t_ = nullptr;
    Span span_;
    std::uint32_t saved_ = 0;
  };

  static Tracer& instance();
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Per span name: calls, total and self seconds (self = duration minus
  /// the union of its children's intervals).
  Json summary() const;
  /// Write spans, the summary and `registry` as one JSON document.
  void write(const std::string& path, Json registry) const;

 private:
  double now() const;
  void record(Span s);

  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
/// Trace the rest of the enclosing scope under `name`.
#define PB_SPAN(name) \
  ::perfbench::Tracer::Scope PB_CAT(pb_span_, __LINE__)(::perfbench::Tracer::instance(), name)

// ---------------------------------------------------------------------
// Correctness: every checked output is compared with a scalar-CSR
// reference computed here, independently of the library's kernels.
// ---------------------------------------------------------------------

/// Relative tolerance of the check: |y_i − ref_i| ≤ kTol · Σ_j |a_ij·x_j|.
inline constexpr double kTol = 1e-10;

struct Reference {
  std::vector<double> y;      ///< Σ_j a_ij·x_j
  std::vector<double> scale;  ///< Σ_j |a_ij·x_j|
};

Reference reference(const Csr<double>& a, const double* x, bool corrupt);
bool matches(const Reference& r, const double* y);

/// Seeded input vector in [-0.5, 0.5).
std::vector<double> make_x(std::size_t n, std::uint64_t seed);

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

/// Median seconds per call of `fn` over at least `min_calls` calls and
/// about `budget` seconds, after one unmeasured call.
template <class Fn>
double median_call_seconds(Fn&& fn, int min_calls, double budget = 0.0) {
  fn();
  std::vector<double> t;
  const auto start = std::chrono::steady_clock::now();
  auto since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  while (static_cast<int>(t.size()) < min_calls || since(start) < budget) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t.push_back(since(t0));
  }
  return median(std::move(t));
}

/// `v` as JSON; null when it is not finite (a percentile over failures).
inline Json json_number(double v) { return std::isfinite(v) ? Json(v) : Json(); }

/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
