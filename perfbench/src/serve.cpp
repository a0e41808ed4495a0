// Workload `serve`: an in-process serve::Server with default options
// (2 workers, single-threaded engines, measured selection, max_batch 8)
// serving one blocked band matrix to 3 ServeClient connections. Load is a
// seeded Poisson open loop climbing a rate ladder; every request is timed
// from when it was due, and every reply is checked.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <unistd.h>

#include "perfbench/src/workloads.hpp"
#include "src/core/candidates.hpp"
#include "src/core/engine.hpp"
#include "src/gen/generators.hpp"
#include "src/serve/client.hpp"
#include "src/serve/engine_cache.hpp"
#include "src/serve/server.hpp"
#include "src/util/errors.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace perfbench {

namespace {

using bspmv::Timer;
using bspmv::serve::ServeClient;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 3;
constexpr int kResubmitEvery = 50;  // 1 operation in 50 is a cache-hit resubmit
constexpr double kSloMs = 50.0;     // p99 limit of a ladder step
constexpr int kRates[] = {100, 150, 200, 250, 300};
constexpr int kPool = 16;  // distinct x vectors, cycled

double since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// Arrival offsets (seconds) of a Poisson process on [0, duration)
/// conditioned on exactly round(rate·duration) arrivals: sorted uniforms.
std::vector<double> poisson_schedule(double rate, double duration,
                                     std::uint64_t seed) {
  bspmv::Xoshiro256 rng(seed);
  std::vector<double> t(static_cast<std::size_t>(std::lround(rate * duration)));
  for (auto& e : t) e = rng.uniform() * duration;
  std::sort(t.begin(), t.end());
  return t;
}

struct StepResult {
  int rate = 0;
  double duration = 0.0;
  std::vector<double> lat_ms;      // spmv, from due time; failures = inf
  std::vector<double> sent_lat_ms; // spmv, from send time
  std::vector<double> server_ms;   // SpmvReply::server_seconds
  std::vector<double> hit_ms;      // cache-hit resubmits, from due time
  std::vector<double> lag_ms;      // send time − due time
  double tail_lag_ms = 0.0;        // mean lag of the last 10% of requests
  double achieved_rps = 0.0;       // completed / (last completion − start)
  bool pass = false;
};

struct Fixture {
  const Csr<double>& a;
  std::uint64_t fingerprint;
  const std::vector<std::vector<double>>& xs;
  const std::vector<Reference>& refs;
};

StepResult run_step(std::vector<ServeClient>& clients, const Fixture& fx,
                    int rate, double duration, std::uint64_t seed,
                    int step_id, Result& res) {
  Tracer& tr = Tracer::instance();
  Tracer::Scope step(tr, "serve.step." + std::to_string(rate));
  const auto sched = poisson_schedule(rate, duration, seed);
  const std::size_t n = sched.size();
  std::atomic<std::size_t> next{0};
  struct Local {
    std::vector<double> lat, sent, server, hit, lag;
    std::vector<std::pair<std::size_t, double>> lag_by_index;
    Clock::time_point last_done{};
  };
  std::vector<Local> local(clients.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);

  auto worker = [&](int c) {
    Local& L = local[static_cast<std::size_t>(c)];
    ServeClient& cl = clients[static_cast<std::size_t>(c)];
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(sched[i]));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      const double lag = since(due, sent) * 1e3;
      L.lag.push_back(lag);
      L.lag_by_index.emplace_back(i, lag);
      const std::int64_t req = static_cast<std::int64_t>(step_id) * 1000000 +
                               static_cast<std::int64_t>(i);
      if (i % kResubmitEvery == kResubmitEvery - 1) {
        bool ok = false;
        try {
          Tracer::Scope s(tr, "serve.ServeClient::submit", req, step.id());
          const auto r = cl.submit(fx.a);
          ok = r.cached && r.fingerprint == fx.fingerprint;
        } catch (const bspmv::error& e) {
          std::fprintf(stderr, "perfbench: resubmit failed: %s\n", e.what());
        }
        const auto done = Clock::now();
        L.last_done = std::max(L.last_done, done);
        L.hit.push_back(ok ? since(due, done) * 1e3
                           : std::numeric_limits<double>::infinity());
        res.op(ok);
        continue;
      }
      const std::size_t k = i % kPool;
      bool ok = false;
      double server_s = 0.0;
      try {
        Tracer::Scope s(tr, "serve.ServeClient::spmv", req, step.id());
        const auto r = cl.spmv(fx.fingerprint, fx.xs[k]);
        server_s = r.server_seconds;
        ok = r.y.size() == fx.refs[k].y.size() && matches(fx.refs[k], r.y.data());
      } catch (const bspmv::error& e) {
        std::fprintf(stderr, "perfbench: spmv failed: %s\n", e.what());
      }
      const auto done = Clock::now();
      L.last_done = std::max(L.last_done, done);
      res.op(ok);
      if (ok) {
        L.lat.push_back(since(due, done) * 1e3);
        L.sent.push_back(since(sent, done) * 1e3);
        L.server.push_back(server_s * 1e3);
      } else {
        L.lat.push_back(std::numeric_limits<double>::infinity());
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < static_cast<int>(clients.size()); ++c)
      threads.emplace_back(worker, c);
    for (auto& t : threads) t.join();
  }

  StepResult s;
  s.rate = rate;
  s.duration = duration;
  Clock::time_point last = t0;
  std::vector<std::pair<std::size_t, double>> lag_by_index;
  for (auto& L : local) {
    s.lat_ms.insert(s.lat_ms.end(), L.lat.begin(), L.lat.end());
    s.sent_lat_ms.insert(s.sent_lat_ms.end(), L.sent.begin(), L.sent.end());
    s.server_ms.insert(s.server_ms.end(), L.server.begin(), L.server.end());
    s.hit_ms.insert(s.hit_ms.end(), L.hit.begin(), L.hit.end());
    s.lag_ms.insert(s.lag_ms.end(), L.lag.begin(), L.lag.end());
    lag_by_index.insert(lag_by_index.end(), L.lag_by_index.begin(),
                        L.lag_by_index.end());
    last = std::max(last, L.last_done);
  }
  // Backlog: a queue that keeps growing shows as generator lag that is
  // still high at the end of the step.
  std::sort(lag_by_index.begin(), lag_by_index.end());
  const std::size_t tail = std::max<std::size_t>(1, n / 10);
  double sum = 0.0;
  for (std::size_t i = n - tail; i < n; ++i) sum += lag_by_index[i].second;
  s.tail_lag_ms = sum / static_cast<double>(tail);
  s.achieved_rps = static_cast<double>(n) / since(t0, last);
  s.pass = quantile(s.lat_ms, 0.99) <= kSloMs && s.tail_lag_ms <= kSloMs / 2;
  std::fprintf(stderr,
               "perfbench: serve step %d req/s: %zu spmv, p50 %.2f ms, "
               "p99 %.2f ms, tail lag %.2f ms, %s\n",
               rate, s.lat_ms.size(), quantile(s.lat_ms, 0.5),
               quantile(s.lat_ms, 0.99), s.tail_lag_ms,
               s.pass ? "pass" : "fail");
  return s;
}

}  // namespace

void run_serve(const Context& ctx, Result& res) {
  const Args& args = ctx.args;
  Tracer& tr = Tracer::instance();
  // The served matrix: a blocked band with n = 60000 and 828369 nonzeros.
  const auto a = Csr<double>::from_coo(
      bspmv::gen_blocked_band<double>(15000, 4, 8, 3, 0.8, 42));
  std::vector<std::vector<double>> xs;
  std::vector<Reference> refs;
  for (int k = 0; k < kPool; ++k) {
    xs.push_back(make_x(static_cast<std::size_t>(a.cols()),
                        args.seed * 7919ULL + static_cast<unsigned>(k)));
    refs.push_back(reference(a, xs.back().data(), args.corrupt_reference));
  }

  bspmv::serve::ServerOptions opt;
  opt.socket_path = args.state_dir + "/serve.sock";
  ::unlink(opt.socket_path.c_str());

  // Set-up: server start + the cold submit that prepares the engine.
  Timer setup;
  bspmv::serve::Server server(opt);
  {
    PB_SPAN("serve.Server::start");
    server.start();
  }
  std::vector<ServeClient> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(opt.socket_path);
  bspmv::serve::SubmitReply cold;
  {
    PB_SPAN("serve.ServeClient::submit(cold)");
    cold = clients[0].submit(a);
  }
  const double setup_s = setup.elapsed();
  res.op(!cold.cached);
  res.meta["serve_threads"] = "server: " + std::to_string(opt.workers) +
                        " workers, engine_threads " +
                        std::to_string(opt.engine_threads) + "; " +
                        std::to_string(kClients) + " client connections";
  res.meta["serve_format"] = cold.format_id;
  res.meta["serve_fallback"] = cold.fallback;
  res.meta["serve_matrix"] = "blocked band n=60000 nnz=" + std::to_string(a.nnz());

  const Fixture fx{a, cold.fingerprint, xs, refs};
  // Unmeasured warm-up at the first rate, so caches, page mappings and the
  // server's buffers settle before timing.
  tr.enable(false);
  run_step(clients, fx, kRates[0], 1.0, args.seed + 98, 98, res);
  if (!args.trace) {
    // Timed run: the whole of --seconds at 100 req/s, which carries the
    // latency headline. The ladder only feeds per-layer metrics.
    const StepResult s = run_step(clients, fx, kRates[0], args.seconds,
                                  args.seed * 31ULL, 0, res);
    res.add("setup_s", setup_s, "s");
    res.add("op_ms", quantile(s.lat_ms, 0.5), "ms");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    res.meta["op_ms_samples"] = static_cast<std::uint64_t>(s.lat_ms.size());
    res.meta["submit_hit_ms_p50"] = json_number(quantile(s.hit_ms, 0.5));
    clients.clear();
    server.stop();
    ::unlink(opt.socket_path.c_str());
    return;
  }

  // Traced run: a short untraced step at the first rate is the base of the
  // tracing overhead; then the traced ladder. The first (100 req/s) step
  // gets the largest share of the run, the other rates share the rest.
  const double first = 0.6 * args.seconds;
  const double rest = (args.seconds - first) / 4.0;
  const double untraced_p50 = quantile(
      run_step(clients, fx, kRates[0], rest, args.seed + 99, 99, res).lat_ms, 0.5);
  tr.enable(true);
  std::vector<StepResult> steps;
  Json::Array ladder;
  for (int i = 0; i < 5; ++i) {
    steps.push_back(run_step(clients, fx, kRates[i], i == 0 ? first : rest,
                             args.seed * 31ULL + static_cast<unsigned>(i), i,
                             res));
    const StepResult& s = steps.back();
    Json::Object o;
    o["rate"] = s.rate;
    o["spmv_samples"] = static_cast<std::uint64_t>(s.lat_ms.size());
    o["p50_ms"] = json_number(quantile(s.lat_ms, 0.5));
    o["p99_ms"] = json_number(quantile(s.lat_ms, 0.99));
    o["tail_lag_ms"] = s.tail_lag_ms;
    o["achieved_rps"] = s.achieved_rps;
    o["pass"] = s.pass;
    ladder.emplace_back(std::move(o));
    if (!s.pass) break;
  }
  res.meta["serve_ladder"] = Json(std::move(ladder));
  const StepResult& base = steps.front();
  // rps_at_slo: the achieved rate of the highest passing step. When the
  // next step failed on p99 alone, interpolate (linearly in p99) to where
  // it crosses the limit, so a p99 that straddles the limit does not make
  // the metric jump by a whole ladder step.
  double rps = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    if (s.pass) {
      rps = s.achieved_rps;
      continue;
    }
    const double p99 = quantile(s.lat_ms, 0.99);
    if (i > 0 && s.tail_lag_ms <= kSloMs / 2 && std::isfinite(p99)) {
      const StepResult& prev = steps[i - 1];
      const double p99_prev = quantile(prev.lat_ms, 0.99);
      rps += (s.achieved_rps - prev.achieved_rps) * (kSloMs - p99_prev) /
             (p99 - p99_prev);
    }
    break;
  }
  std::vector<double> hits;
  for (const auto& s : steps) hits.insert(hits.end(), s.hit_ms.begin(), s.hit_ms.end());

  // The p99, the ladder rate and the hit resubmit are per-layer: on a
  // shared 4-vCPU guest, host stalls of 20-60 ms decide which requests
  // form the top 1%, and a run holds only ~20 resubmits, so their spread
  // between runs is too wide for an end-to-end bound (README.md).
  res.add("serve.req_ms_p99", quantile(base.lat_ms, 0.99), "ms",
          "serve.rps_at_slo");
  res.add("serve.rps_at_slo", rps, "1/s", "none (ladder capacity)");
  res.add("serve.submit_hit_ms_p50", quantile(hits, 0.5), "ms",
          "none (write path)");
  res.meta["req_ms_samples"] = static_cast<std::uint64_t>(base.lat_ms.size());
  res.meta["submit_hit_samples"] = static_cast<std::uint64_t>(hits.size());

  {
    const Json st = clients[0].stats();
    const Json& rq = st.at("requests");
    const double spmvs = rq.at("spmvs").as_number();
    double kernel_ms = 0.0;
    for (const auto& c : bspmv::model_candidates(true)) {
      if (c.id() != cold.format_id) continue;
      PB_SPAN("kernels.served_format");
      const auto e = bspmv::SpmvEngine<double>::prepare(a, c, 0);
      std::vector<double> y(static_cast<std::size_t>(a.rows()));
      kernel_ms =
          median_call_seconds([&] { e.run(xs[0].data(), y.data()); }, 200) * 1e3;
    }
    double hash_ms = 0.0, encode_ms = 0.0;
    {
      PB_SPAN("serve.matrix_key");
      hash_ms =
          median_call_seconds([&] { (void)bspmv::serve::matrix_key(a); }, 5) * 1e3;
    }
    {
      PB_SPAN("serve.SubmitRequest::encode");
      encode_ms = median_call_seconds([&] {
                    (void)bspmv::serve::SubmitRequest::from_csr(a).encode();
                  }, 5) * 1e3;
    }
    std::vector<double> outside;
    for (std::size_t i = 0; i < base.sent_lat_ms.size(); ++i)
      outside.push_back(base.sent_lat_ms[i] - base.server_ms[i]);
    const double p50 = quantile(base.lat_ms, 0.5);
    res.add("serve.prepare_s", cold.prepare_seconds, "s", "setup_s/serve");
    res.add("serve.server_ms_p50", quantile(base.server_ms, 0.5), "ms",
            "op_ms/serve");
    res.add("serve.server_ms_p99", quantile(base.server_ms, 0.99), "ms",
            "serve.req_ms_p99,serve.rps_at_slo");
    res.add("serve.outside_ms_p50", quantile(outside, 0.5), "ms",
            "op_ms/serve");
    res.add("serve.kernel_ms", kernel_ms, "ms", "op_ms/serve");
    res.add("serve.kernel_frac", kernel_ms / p50, "ratio", "op_ms/serve");
    res.add("serve.submit_hash_ms", hash_ms, "ms", "serve.submit_hit_ms_p50");
    res.add("serve.submit_encode_ms", encode_ms, "ms", "serve.submit_hit_ms_p50");
    res.add("serve.batched_frac",
            spmvs > 0 ? rq.at("batched_spmvs").as_number() / spmvs : 0.0,
            "ratio", "op_ms/serve,serve.rps_at_slo");
    res.add("serve.shed", st.at("shed").as_number(), "count",
            "serve.rps_at_slo,failed_frac/serve");
    res.add("serve.timeouts", rq.at("timeouts").as_number(), "count",
            "serve.rps_at_slo,failed_frac/serve");
    res.add("serve.cache_hits", st.at("cache").at("hits").as_number(), "count",
            "serve.submit_hit_ms_p50");
    res.add("serve.gen_lag_ms_p99", quantile(base.lag_ms, 0.99), "ms",
            "none (generator validity)");
    res.add("trace.overhead.serve", p50 / untraced_p50, "ratio", "none");
    res.meta["serve_kernel_frac_base"] = "spmv p50 at the traced 100 req/s step";
  }
  clients.clear();
  server.stop();
  ::unlink(opt.socket_path.c_str());
}

}  // namespace perfbench
