// Workload `dist`: dist::DistSpmv with library defaults (2 ranks, overlap
// mode, 1 thread per rank, no supervision) running run(x, y, iters)
// batches on a thin-halo matrix and a scattered-column one.
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/core/engine.hpp"
#include "src/dist/driver.hpp"
#include "src/gen/suite.hpp"
#include "src/util/timing.hpp"

namespace perfbench {

namespace {

using bspmv::Timer;
using bspmv::dist::DistSpmv;

constexpr int kIters = 10;  // iterations per run() batch
constexpr int kSpawns = 3;  // constructions per matrix; the median is set-up
constexpr int kPool = 4;    // distinct x vectors, cycled

struct PerIter {  // one batch's rank timings, per iteration
  double local = 0, halo = 0, wait = 0, send = 0, recv = 0, driver = 0;
  double halo_kib = 0, msgs = 0;
};

PerIter per_iter(const std::vector<bspmv::dist::RankStats>& st, double wall) {
  PerIter p;
  double slowest = 0.0;
  for (const auto& r : st) {
    p.local = std::max(p.local, r.local_seconds);
    p.halo = std::max(p.halo, r.halo_seconds);
    p.wait = std::max(p.wait, r.wait_seconds);
    p.send = std::max(p.send, r.send_seconds);
    p.recv = std::max(p.recv, r.recv_seconds);
    slowest = std::max(slowest, r.total_seconds);
    p.halo_kib += static_cast<double>(r.bytes_sent) / 1024.0;
    p.msgs += static_cast<double>(r.msgs_sent);
  }
  p.driver = wall - slowest;
  for (double* v : {&p.local, &p.halo, &p.wait, &p.send, &p.recv, &p.driver})
    *v = *v / kIters * 1e3;  // ms per iteration
  p.halo_kib /= kIters;
  p.msgs /= kIters;
  return p;
}

}  // namespace

void run_dist(const Context& ctx, Result& res) {
  const Args& args = ctx.args;
  Tracer& tr = Tracer::instance();
  const bspmv::dist::DistOptions opt;  // library defaults
  const double per_matrix = args.seconds / 2.0;
  double setup_s = 0.0;
  std::vector<double> iter_ms, trace_ratio;
  Json::Object per_matrix_ms;
  const std::pair<int, const char*> mats[] = {{4, "parabolic_fem"},
                                              {7, "g3_circuit"}};

  for (const auto& [id, name] : mats) {
    const auto a = bspmv::build_suite_csr<double>(id, bspmv::SuiteScale::kSmall);
    std::vector<std::vector<double>> xs;
    std::vector<Reference> refs;
    for (int k = 0; k < kPool; ++k) {
      xs.push_back(make_x(static_cast<std::size_t>(a.cols()),
                          args.seed * 104729ULL + static_cast<unsigned>(id * kPool + k)));
      refs.push_back(reference(a, xs.back().data(), args.corrupt_reference));
    }
    std::vector<double> y(static_cast<std::size_t>(a.rows()));
    Tracer::Scope mspan(tr, std::string("dist.") + name);

    // Set-up: construct (plan, fork, ship shards) several times; keep the
    // last instance.
    std::vector<double> spawn;
    std::unique_ptr<DistSpmv> d;
    for (int i = 0; i < kSpawns; ++i) {
      d.reset();
      Timer t;
      PB_SPAN("dist.DistSpmv::DistSpmv");
      d = std::make_unique<DistSpmv>(a, opt);
      spawn.push_back(t.elapsed());
    }
    setup_s += median(spawn);

    auto batch = [&](std::size_t k, std::vector<PerIter>* layers) {
      bool ok = false;
      Timer t;
      try {
        PB_SPAN("dist.DistSpmv::run");
        d->run(xs[k].data(), y.data(), kIters);
        ok = matches(refs[k], y.data());
      } catch (const bspmv::error& e) {
        std::fprintf(stderr, "perfbench: dist run failed: %s\n", e.what());
      }
      const double wall = t.elapsed();
      res.op(ok, kIters);
      if (layers && ok) layers->push_back(per_iter(d->last_stats(), wall));
      return wall / kIters * 1e3;
    };

    std::vector<double> samples;
    std::vector<PerIter> layers;
    Timer phase;
    for (std::size_t k = 0; phase.elapsed() < per_matrix || samples.size() < 10; ++k)
      samples.push_back(batch(k % kPool, &layers));
    iter_ms.push_back(median(samples));
    per_matrix_ms[name] = iter_ms.back();
    std::fprintf(stderr, "perfbench: dist %s: %zu batches, median %.4f ms/iter\n",
                 name, samples.size(), iter_ms.back());

    if (!args.trace) continue;

    // Tracing overhead: traced and untraced batches in alternation.
    std::vector<double> traced, untraced;
    for (std::size_t k = 0; k < 20; ++k) {
      traced.push_back(batch(k % kPool, nullptr));
      tr.enable(false);
      untraced.push_back(batch(k % kPool, nullptr));
      tr.enable(true);
    }
    trace_ratio.push_back(median(traced) / median(untraced));

    // One-process baseline on the same cores: a CSR engine with
    // ranks x threads_per_rank threads.
    double local_ref_ms = 0.0;
    {
      PB_SPAN("core.SpmvEngine(local_ref)");
      const auto e = bspmv::SpmvEngine<double>::prepare(
          a, bspmv::Candidate{}, opt.ranks * std::max(1, opt.threads_per_rank));
      local_ref_ms =
          median_call_seconds([&] { e.run(xs[0].data(), y.data()); }, 200) * 1e3;
    }
    auto med = [&](double PerIter::*f) {
      std::vector<double> v;
      for (const auto& p : layers) v.push_back(p.*f);
      return median(std::move(v));
    };
    const std::string p = std::string("dist.") + name + ".";
    res.add(p + "spawn_s", median(spawn), "s", "setup_s/dist");
    res.add(p + "local_ms", med(&PerIter::local), "ms", "op_ms/dist");
    res.add(p + "halo_ms", med(&PerIter::halo), "ms", "op_ms/dist");
    res.add(p + "wait_ms", med(&PerIter::wait), "ms", "op_ms/dist");
    res.add(p + "send_ms", med(&PerIter::send), "ms", "op_ms/dist");
    res.add(p + "recv_ms", med(&PerIter::recv), "ms", "op_ms/dist");
    res.add(p + "driver_ms", med(&PerIter::driver), "ms", "op_ms/dist");
    res.add(p + "halo_kib", med(&PerIter::halo_kib), "KiB", "op_ms/dist(g3_circuit)");
    res.add(p + "msgs", med(&PerIter::msgs), "count", "op_ms/dist(g3_circuit)");
    res.add(p + "local_ref_ms", local_ref_ms, "ms", "none (one-process baseline)");
    res.add(p + "vs_local", iter_ms.back() / local_ref_ms, "ratio",
            "none (one-process baseline)");
  }
  res.meta["dist_threads"] = opt.ranks * std::max(1, opt.threads_per_rank);
  res.meta["dist_iter_ms"] = Json(std::move(per_matrix_ms));
  if (!args.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("op_ms", geomean(iter_ms), "ms");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);  // ranks are reaped by now
    res.add("dist.rank_peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0,
            "MiB", "none (rank memory)");
    res.add("trace.overhead.dist", geomean(trace_ratio), "ratio", "none");
  }
}

}  // namespace perfbench
