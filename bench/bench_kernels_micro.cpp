// google-benchmark microbenchmarks of the individual SpMV kernels on a
// fixed FEM-like matrix: per-format, per-shape, scalar vs SIMD. These are
// the per-kernel numbers behind the t_b profile.
//
// The exec/ group benches the threaded driver (bulk-synchronous OpenMP
// over the §V-A nnz-balanced partition) through SpmvEngine, on the
// balanced band matrix and on a skewed R-MAT whose hub rows are the worst
// case for a static contiguous partition.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>

#include "src/core/engine.hpp"
#include "src/core/executor.hpp"
#include "src/gen/generators.hpp"
#include "src/util/prng.hpp"

namespace bspmv {
namespace {

// One shared mid-size matrix (L2-resident-ish) so the microbenches finish
// quickly while still exercising real block structure.
const Csr<double>& shared_matrix() {
  static const Csr<double> a = Csr<double>::from_coo(
      gen_blocked_band<double>(8000, 3, 600, 5, 0.8, 0xbeef));
  return a;
}

void run_candidate(benchmark::State& state, const Candidate& c) {
  const Csr<double>& a = shared_matrix();
  const AnyFormat<double> f = AnyFormat<double>::convert(a, c);
  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  Xoshiro256 rng(3);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  for (auto _ : state) {
    f.run(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["ws_MiB"] =
      static_cast<double>(f.working_set_bytes()) / (1024.0 * 1024.0);
}

// Skewed counterpart of shared_matrix(): R-MAT power-law rows — a few
// hubs carry most of the nonzeros, the worst case for a static
// contiguous partition.
const Csr<double>& skewed_matrix() {
  static const Csr<double> a = Csr<double>::from_coo(
      gen_rmat<double>(14, 300000, 0.57, 0.19, 0.19, 0xfeed));
  return a;
}

void run_threaded(benchmark::State& state, const Csr<double>& a) {
  // Bench at the machine's real width: oversubscribing (e.g. 2 threads on
  // a 1-core container) measures context-switch pressure, not the driver.
  const int threads = static_cast<int>(std::clamp(
      std::thread::hardware_concurrency(), 1u, 8u));
  const Candidate c{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const auto engine = SpmvEngine<double>::prepare(a, c, threads);
  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  Xoshiro256 rng(5);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  for (auto _ : state) {
    engine.run(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  // Not "threads": Google Benchmark's JSON already has a key of that name
  // (the number of benchmark threads, always 1 here).
  state.counters["exec_threads"] = static_cast<double>(threads);
}

void register_all() {
  for (const Candidate& c : bench_candidates(true, true)) {
    benchmark::RegisterBenchmark(c.id().c_str(),
                                 [c](benchmark::State& s) {
                                   run_candidate(s, c);
                                 })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
  }
  for (bool skewed : {false, true}) {
    const std::string name = std::string("exec/") +
                             (skewed ? "rmat_skewed" : "band_balanced") +
                             "/bulk";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [skewed](benchmark::State& s) {
          run_threaded(s, skewed ? skewed_matrix() : shared_matrix());
        })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.10)
        // Wall-clock rates: OpenMP runs kernels on its worker threads too,
        // so the bench thread's CPU time would misstate GFLOP/s.
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace bspmv

int main(int argc, char** argv) {
  bspmv::register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
