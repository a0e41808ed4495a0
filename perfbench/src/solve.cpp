// Workload `solve`: the iterative-solver library path. Per matrix:
// load the machine profile (done by the driver), rank_candidates with the
// OVERLAP model, SpmvEngine::prepare at nproc threads, then back-to-back
// run() calls. Only public entry points and default options are used.
#include <algorithm>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/core/engine.hpp"
#include "src/core/selector.hpp"
#include "src/gen/generators.hpp"
#include "src/gen/suite.hpp"
#include "src/observe/registry.hpp"
#include "src/util/timing.hpp"

namespace perfbench {

namespace {

using bspmv::Candidate;
using bspmv::SpmvEngine;
using bspmv::Timer;

constexpr double kMiB = 1024.0 * 1024.0;

// band_dram: a blocked band whose chosen format's working set exceeds
// 128 MiB — 4x the profiler's 32 MiB effective LLC and above the host's
// reported L3 — so the kernels stream from DRAM.
constexpr bspmv::index_t kBandNodes = 256000;
constexpr double kBandMinWsMiB = 128.0;

struct Matrix {
  std::string name;
  Csr<double> a;
};

Matrix make_matrix(int which, std::uint64_t seed) {
  using bspmv::SuiteScale;
  switch (which) {
    case 0:
      return {"audikw_1", bspmv::build_suite_csr<double>(21, SuiteScale::kSmall)};
    case 1:
      return {"wikipedia", bspmv::build_suite_csr<double>(12, SuiteScale::kSmall)};
    default:
      return {"band_dram",
              Csr<double>::from_coo(bspmv::gen_blocked_band<double>(
                  kBandNodes, 3, 600, 5, 0.8, seed))};
  }
}

/// Median seconds per call of `fa` and of `fb`, timed in alternation for
/// about `budget` seconds (at least 5 pairs) after one unmeasured pair.
template <class A, class B>
std::pair<double, double> paired_medians(A&& fa, B&& fb, double budget) {
  fa();
  fb();
  std::vector<double> ta, tb;
  Timer total;
  while (total.elapsed() < budget || ta.size() < 5) {
    Timer t;
    fa();
    ta.push_back(t.elapsed());
    t.reset();
    fb();
    tb.push_back(t.elapsed());
  }
  return {median(std::move(ta)), median(std::move(tb))};
}

}  // namespace

void run_solve(const Context& ctx, Result& res) {
  const Args& args = ctx.args;
  Tracer& tr = Tracer::instance();
  const int threads = ctx.nproc;
  const double per_matrix = args.seconds / 3.0;
  double setup_s = 0.0;
  std::vector<double> call_ms, trace_ratio, observe_ratio;
  Json::Object chosen;

  for (int m = 0; m < 3; ++m) {
    Matrix mat = make_matrix(m, args.seed);
    const Csr<double>& a = mat.a;
    const std::string& name = mat.name;
    const auto x = make_x(static_cast<std::size_t>(a.cols()),
                          args.seed * 1000003ULL + static_cast<unsigned>(m));
    const Reference ref = reference(a, x.data(), args.corrupt_reference);
    std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

    Tracer::Scope mspan(tr, "solve." + name);
    // Set-up: rank with the model, then convert + plan at nproc threads.
    Timer t;
    std::vector<bspmv::RankedCandidate> ranked;
    {
      PB_SPAN("core.rank_candidates");
      ranked = bspmv::rank_candidates(bspmv::ModelKind::kOverlap, a,
                                      ctx.profile);
    }
    const double rank_s = t.elapsed();
    std::vector<Candidate> cands;
    for (const auto& r : ranked) cands.push_back(r.candidate);
    t.reset();
    auto engine = [&] {
      PB_SPAN("core.SpmvEngine::prepare");
      return SpmvEngine<double>::prepare(a, cands, threads);
    }();
    const double convert_s = t.elapsed();
    setup_s += rank_s + convert_s;

    const auto& fmt = engine.format();
    const Candidate chosen_c = fmt.candidate();
    const double ws_bytes = static_cast<double>(fmt.working_set_bytes());
    Json::Object cm;
    cm["candidate"] = chosen_c.id();
    cm["fallback"] = engine.prepared() && engine.prepared()->fallback;
    cm["rows"] = static_cast<std::int64_t>(a.rows());
    cm["nnz"] = static_cast<std::uint64_t>(a.nnz());
    cm["ws_mib"] = ws_bytes / kMiB;
    chosen[name] = Json(std::move(cm));
    if (m == 2 && ws_bytes / kMiB < kBandMinWsMiB)
      std::fprintf(stderr,
                   "perfbench: warning: band_dram working set %.1f MiB is "
                   "below %.0f MiB\n",
                   ws_bytes / kMiB, kBandMinWsMiB);

    // Timed phase: batches of back-to-back run() calls, each call one
    // sample; the batch's final y is checked against the reference.
    std::vector<double> samples;
    Timer phase;
    int batch = 1;
    while (phase.elapsed() < per_matrix || samples.size() < 10) {
      Timer bt;
      for (int i = 0; i < batch; ++i) {
        Tracer::Scope s(tr, "kernels.SpmvEngine::run");
        Timer one;
        engine.run(x.data(), y.data());
        samples.push_back(one.elapsed());
      }
      res.op(matches(ref, y.data()), static_cast<std::uint64_t>(batch));
      // Grow batches to ~20 ms so the check stays a small share.
      if (bt.elapsed() < 0.02 && batch < 4096) batch *= 2;
      std::fill(y.begin(), y.end(), 0.0);
    }
    const double t_run = median(samples);
    const double nnz = static_cast<double>(a.nnz());
    call_ms.push_back(t_run * 1e3);
    chosen[name]["median_ms"] = t_run * 1e3;
    chosen[name]["gflops"] = 2.0 * nnz / t_run * 1e-9;
    std::fprintf(stderr, "perfbench: solve %s: %s, %zu calls, median %.4f ms\n",
                 name.c_str(), chosen_c.id().c_str(), samples.size(),
                 t_run * 1e3);

    if (!args.trace) continue;

    // Per-layer measurements (traced run only). Ratios between two
    // nproc-thread runs time both sides in alternation, so both see the
    // same host conditions.
    const double budget = 0.3;
    auto run_of = [&x, &y](const SpmvEngine<double>& e) {
      return [&x, &y, ep = &e] { ep->run(x.data(), y.data()); };
    };
    const auto run_nproc = run_of(engine);
    const auto [t_traced, t_untraced] = paired_medians(
        [&] {
          Tracer::Scope s(tr, "kernels.SpmvEngine::run");
          run_nproc();
        },
        run_nproc, budget);
    const auto [t_obs_on, t_obs_off] = paired_medians(
        run_nproc,
        [&] {
          bspmv::observe::set_enabled(false);
          run_nproc();
          bspmv::observe::set_enabled(true);
        },
        budget);
    trace_ratio.push_back(t_traced / t_untraced);
    observe_ratio.push_back(t_obs_on / t_obs_off);

    double t_1t = 0.0, speedup = 0.0, vs_csr = 0.0;
    {
      PB_SPAN("kernels.plain");
      const auto plain = SpmvEngine<double>::borrow(fmt, 0);
      t_1t = median_call_seconds(run_of(plain), 5, budget);
    }
    {
      PB_SPAN("parallel.one_thread");
      const auto one = SpmvEngine<double>::borrow(fmt, 1);
      // Back-to-back blocks, not alternation: switching the team size on
      // every call would charge thread wake-ups to the nproc plan.
      speedup = median_call_seconds(run_of(one), 5, budget) /
                median_call_seconds(run_nproc, 5, budget);
    }
    {
      PB_SPAN("core.csr_reference_engine");
      const auto csr = SpmvEngine<double>::prepare(a, Candidate{}, threads);
      const auto [tn, tc] = paired_medians(run_nproc, run_of(csr), budget);
      vs_csr = tn / tc;
    }
    double imbalance = 1.0;
    {
      PB_SPAN("parallel.imbalance");
      auto& reg = bspmv::observe::CounterRegistry::instance();
      reg.reset();
      median_call_seconds(run_of(engine), 5, 0.1);
      const auto snap = reg.snapshot();
      for (const auto& [metric, per_tid] : snap.thread_times) {
        double mx = 0.0, sum = 0.0;
        for (const auto& [tid, st] : per_tid) {
          mx = std::max(mx, st.seconds);
          sum += st.seconds;
        }
        if (sum > 0.0)
          imbalance = mx / (sum / static_cast<double>(per_tid.size()));
      }
    }
    double predicted = 0.0;
    for (const auto& r : ranked)
      if (r.candidate == chosen_c) predicted = r.predicted_seconds;

    const std::string p = "." + name + ".";
    res.add("core.select" + p + "rank_s", rank_s, "s", "setup_s/solve");
    res.add("core.prepare" + p + "convert_s", convert_s, "s", "setup_s/solve");
    res.add("core.models" + p + "pred_ratio", predicted / t_1t, "ratio",
            "op_ms/solve");
    res.add("core.select" + p + "vs_csr", vs_csr, "ratio",
            "op_ms/solve");
    res.add("formats" + p + "ws_mib", ws_bytes / kMiB, "MiB",
            "op_ms/solve(band_dram)");
    res.add("kernels" + p + "gflops_1t", 2.0 * nnz / t_1t * 1e-9, "GFLOP/s",
            "op_ms/solve,op_ms/serve");
    res.add("kernels" + p + "bw_frac",
            ws_bytes / t_run / ctx.profile.bandwidth_bps, "ratio",
            "op_ms/solve(band_dram)");
    res.add("parallel" + p + "speedup", speedup, "ratio",
            "op_ms/solve");
    res.add("parallel" + p + "imbalance", imbalance, "ratio",
            "op_ms/solve(wikipedia)");
  }

  res.meta["solve_chosen"] = Json(std::move(chosen));
  res.meta["solve_threads"] = threads;
  if (!args.trace) {
    res.add("setup_s", setup_s, "s");
    // Geometric mean of the per-call times, i.e. the inverse of the
    // geometric-mean SpMV throughput up to the constant Π(2·nnz)^(1/3).
    res.add("op_ms", geomean(call_ms), "ms");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    res.add("observe.overhead", geomean(observe_ratio), "ratio",
            "op_ms/solve");
    res.add("trace.overhead.solve", geomean(trace_ratio), "ratio", "none");
  }
}

}  // namespace perfbench
