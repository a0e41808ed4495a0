#include "src/observe/report.hpp"

#include <omp.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/core/selector.hpp"
#include "src/dist/driver.hpp"
#include "src/observe/observe.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/macros.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace bspmv::observe {

namespace {

constexpr ModelKind kModels[] = {ModelKind::kMem, ModelKind::kMemComp,
                                 ModelKind::kOverlap, ModelKind::kMemLat};

// Table IV convention: a selection is "optimal" when it reaches the best
// measured time within timing noise.
constexpr double kOptimalSlack = 1.005;

Json::Object span_stat_json(const SpanStat& s) {
  Json::Object o;
  o["seconds"] = s.seconds;
  o["calls"] = static_cast<std::uint64_t>(s.calls);
  return o;
}

// Measure both exchange modes over one shard plan and score the t_comm
// model's choice against the measured winner (double precision only —
// the wire protocol ships f64 halo values).
void build_dist_section(const Csr<double>& a, const MachineProfile& profile,
                        const ReportOptions& opt, DistReport& out) {
  BSPMV_OBS_SPAN("report/dist");
  MachineProfile p = profile;
  if (p.comm_beta_bps <= 0.0) {
    // Never profiled on this machine: measure α/β now, quickly.
    const CommProfile c = profile_comm(/*quick=*/true);
    p.comm_alpha_seconds = c.alpha_seconds;
    p.comm_beta_bps = c.beta_bps;
  }

  dist::DistOptions dopt;
  dopt.ranks = opt.dist_ranks;
  dopt.timeout_seconds = opt.dist_timeout_seconds;
  dopt.supervise.enabled = opt.dist_supervise;
  dist::DistSpmv d(a, dopt);
  const std::vector<DistRankCost> costs = d.rank_costs();

  out.enabled = true;
  out.ranks = opt.dist_ranks;
  out.iterations = std::max(1, opt.dist_iterations);
  out.comm_alpha_seconds = p.comm_alpha_seconds;
  out.comm_beta_bps = p.comm_beta_bps;
  out.predicted_mode = dist_mode_name(choose_dist_mode(p, costs));
  out.supervised = opt.dist_supervise;

  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  Xoshiro256 rng(12345);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  // Chaos drill: arm faults (alternating kills and stalls across the
  // non-zero ranks) so the first timed run exercises the recovery path;
  // the events it produces are the section's recovery timeline.
  if (opt.dist_supervise && opt.dist_chaos > 0 && opt.dist_ranks > 1) {
    for (int k = 0; k < opt.dist_chaos; ++k) {
      dist::FaultMsg f;
      f.kind = k % 2 == 0 ? dist::FaultKind::kExitAtIteration
                          : dist::FaultKind::kStallAtIteration;
      f.at_iteration = static_cast<std::uint32_t>(
          std::min(k + 1, out.iterations - 1));
      f.seconds = 2.0 * opt.dist_timeout_seconds;
      d.inject_fault(1 + k % (opt.dist_ranks - 1), f);
    }
  }

  auto merge_recovery = [&out](const dist::DistSpmv& drv) {
    static const char* const order[] = {"clean", "recovered", "resharded",
                                        "single_node"};
    for (const dist::RecoveryEvent& e : drv.recovery_log()) {
      DistRecoveryEventReport r;
      r.epoch = e.epoch;
      r.completed_iterations = e.completed_iterations;
      r.cause = e.cause;
      r.failed_ranks = e.failed_ranks;
      r.action = e.action;
      r.seconds = e.seconds;
      r.backoff_ms = e.backoff_ms;
      r.ranks_after = e.ranks_after;
      r.detail = e.detail;
      out.recovery.push_back(std::move(r));
    }
    const std::string got = dist::dist_outcome_name(drv.outcome());
    for (int i = 0; i < 4; ++i)
      if (out.outcome == order[i])
        for (int k = i + 1; k < 4; ++k)
          if (got == order[k]) out.outcome = got;
  };

  for (DistMode m : {DistMode::kNaive, DistMode::kOverlap}) {
    d.set_mode(m);
    if (!opt.dist_supervise || opt.dist_chaos == 0)
      d.run(x.data(), y.data(), 1);  // warm-up: page-in, socket buffers
    Timer t;
    d.run(x.data(), y.data(), out.iterations);
    merge_recovery(d);
    DistModeReport mr;
    mr.mode = dist_mode_name(m);
    mr.predicted_seconds = predict_distributed(p, costs, m);
    mr.measured_seconds = t.elapsed() / out.iterations;
    for (int r = 0; r < d.ranks(); ++r) {
      const dist::RankShard& sh = d.plan().shards[static_cast<std::size_t>(r)];
      const dist::RankStats& st = d.last_stats()[static_cast<std::size_t>(r)];
      DistRankSample s;
      s.rank = r;
      s.rows = sh.rows();
      s.nnz = sh.nnz;
      s.halo_cols = sh.halo_count();
      s.send_seconds = st.send_seconds;
      s.recv_seconds = st.recv_seconds;
      s.wait_seconds = st.wait_seconds;
      s.local_seconds = st.local_seconds;
      s.halo_seconds = st.halo_seconds;
      s.total_seconds = st.total_seconds;
      s.bytes_sent = st.bytes_sent;
      s.bytes_recv = st.bytes_recv;
      mr.rank_samples.push_back(s);
    }
    out.modes.push_back(std::move(mr));
  }
  // A measured winner must clear the 3% noise floor (the margin the
  // bench crossover checks use); inside it the run is a dead heat and
  // either prediction counts as a match — on a loaded machine the
  // run-to-run scheduling jitter exceeds the mode gap.
  const double naive_s = out.modes[0].measured_seconds;
  const double overlap_s = out.modes[1].measured_seconds;
  constexpr double kNoiseMargin = 0.97;
  out.measured_mode = "tie";
  if (overlap_s < kNoiseMargin * naive_s)
    out.measured_mode = dist_mode_name(DistMode::kOverlap);
  else if (naive_s < kNoiseMargin * overlap_s)
    out.measured_mode = dist_mode_name(DistMode::kNaive);
  out.model_match =
      out.measured_mode == "tie" || out.predicted_mode == out.measured_mode;
  out.ranks_final = d.ranks();
}

}  // namespace

Json RunReport::to_json() const {
  Json::Object o;
  o["schema_version"] = kSchemaVersion;
  o["kind"] = kKind;

  Json::Object matrix;
  matrix["name"] = matrix_name;
  matrix["rows"] = static_cast<std::int64_t>(rows);
  matrix["cols"] = static_cast<std::int64_t>(cols);
  matrix["nnz"] = static_cast<std::uint64_t>(nnz);
  matrix["csr_ws_bytes"] = static_cast<std::uint64_t>(csr_ws_bytes);
  matrix["precision"] = precision;
  o["matrix"] = std::move(matrix);

  Json::Object machine;
  machine["description"] = machine_description;
  machine["bandwidth_bps"] = bandwidth_bps;
  o["machine"] = std::move(machine);

  Json::Object obs;
  obs["hooks_enabled"] = hooks_enabled;
  obs["runtime_enabled"] = runtime_enabled;
  o["observe"] = std::move(obs);

  Json::Object chosen;
  chosen["id"] = chosen_id;
  chosen["fallback"] = fallback;
  Json::Array failures;
  for (const auto& [id, reason] : prepare_failures) {
    Json::Object f;
    f["id"] = id;
    f["reason"] = reason;
    failures.push_back(std::move(f));
  }
  chosen["failures"] = std::move(failures);
  o["chosen"] = std::move(chosen);

  Json::Array cand_arr;
  for (const CandidateReport& c : candidates) {
    Json::Object jc;
    jc["id"] = c.id;
    jc["format"] = c.format;
    jc["impl"] = c.impl;
    jc["ws_bytes"] = static_cast<std::uint64_t>(c.ws_bytes);
    Json::Object pred;
    for (const auto& [m, s] : c.predicted_seconds) pred[m] = s;
    jc["predicted"] = std::move(pred);
    jc["measured"] = c.measured;
    jc["measured_seconds"] = c.measured_seconds;
    jc["skip_reason"] = c.skip_reason;
    cand_arr.push_back(std::move(jc));
  }
  o["candidates"] = std::move(cand_arr);

  Json::Array sel_arr;
  for (const SelectionReport& s : selections) {
    Json::Object js;
    js["model"] = s.model;
    js["selected"] = s.selected_id;
    js["predicted_seconds"] = s.predicted_seconds;
    js["measured_seconds"] = s.measured_seconds;
    js["best"] = s.best_id;
    js["best_seconds"] = s.best_seconds;
    js["optimal"] = s.optimal;
    js["off_best"] = s.off_best;
    js["model_error"] = s.model_error;
    sel_arr.push_back(std::move(js));
  }
  o["selections"] = std::move(sel_arr);

  Json::Object threads_o;
  threads_o["count"] = threads;
  Json::Array samples;
  for (const ThreadSample& t : thread_samples) {
    Json::Object jt;
    jt["tid"] = t.tid;
    jt["seconds"] = t.seconds;
    jt["calls"] = static_cast<std::uint64_t>(t.calls);
    jt["items"] = static_cast<std::uint64_t>(t.items);
    samples.push_back(std::move(jt));
  }
  threads_o["samples"] = std::move(samples);
  o["threads"] = std::move(threads_o);

  Json::Object phases_o;
  for (const auto& [path, stat] : phases) phases_o[path] = span_stat_json(stat);
  o["phases"] = std::move(phases_o);

  Json::Object counters_o;
  for (const auto& [name, n] : counters)
    counters_o[name] = static_cast<std::uint64_t>(n);
  o["counters"] = std::move(counters_o);

  Json::Object dist_o;
  dist_o["enabled"] = dist.enabled;
  dist_o["ranks"] = dist.ranks;
  dist_o["iterations"] = dist.iterations;
  dist_o["comm_alpha_seconds"] = dist.comm_alpha_seconds;
  dist_o["comm_beta_bps"] = dist.comm_beta_bps;
  dist_o["predicted_mode"] = dist.predicted_mode;
  dist_o["measured_mode"] = dist.measured_mode;
  dist_o["model_match"] = dist.model_match;
  Json::Array modes_arr;
  for (const DistModeReport& m : dist.modes) {
    Json::Object jm;
    jm["mode"] = m.mode;
    jm["predicted_seconds"] = m.predicted_seconds;
    jm["measured_seconds"] = m.measured_seconds;
    Json::Array ranks_arr;
    for (const DistRankSample& s : m.rank_samples) {
      Json::Object js;
      js["rank"] = s.rank;
      js["rows"] = static_cast<std::int64_t>(s.rows);
      js["nnz"] = static_cast<std::uint64_t>(s.nnz);
      js["halo_cols"] = static_cast<std::uint64_t>(s.halo_cols);
      js["send_seconds"] = s.send_seconds;
      js["recv_seconds"] = s.recv_seconds;
      js["wait_seconds"] = s.wait_seconds;
      js["local_seconds"] = s.local_seconds;
      js["halo_seconds"] = s.halo_seconds;
      js["total_seconds"] = s.total_seconds;
      js["bytes_sent"] = static_cast<std::uint64_t>(s.bytes_sent);
      js["bytes_recv"] = static_cast<std::uint64_t>(s.bytes_recv);
      ranks_arr.push_back(std::move(js));
    }
    jm["ranks"] = std::move(ranks_arr);
    modes_arr.push_back(std::move(jm));
  }
  dist_o["modes"] = std::move(modes_arr);
  dist_o["supervised"] = dist.supervised;
  dist_o["outcome"] = dist.outcome;
  dist_o["ranks_final"] = dist.ranks_final;
  Json::Array rec_arr;
  for (const DistRecoveryEventReport& e : dist.recovery) {
    Json::Object je;
    je["epoch"] = static_cast<std::uint64_t>(e.epoch);
    je["completed_iterations"] = e.completed_iterations;
    je["cause"] = e.cause;
    Json::Array fr;
    for (int r : e.failed_ranks) fr.push_back(Json(r));
    je["failed_ranks"] = std::move(fr);
    je["action"] = e.action;
    je["seconds"] = e.seconds;
    je["backoff_ms"] = e.backoff_ms;
    je["ranks_after"] = e.ranks_after;
    je["detail"] = e.detail;
    rec_arr.push_back(std::move(je));
  }
  dist_o["recovery"] = std::move(rec_arr);
  o["dist"] = std::move(dist_o);

  return Json(std::move(o));
}

RunReport RunReport::from_json(const Json& j) {
  validate_report_json(j);
  RunReport r;

  const Json& matrix = j.at("matrix");
  r.matrix_name = matrix.at("name").as_string();
  r.rows = static_cast<std::int64_t>(matrix.at("rows").as_number());
  r.cols = static_cast<std::int64_t>(matrix.at("cols").as_number());
  r.nnz = static_cast<std::size_t>(matrix.at("nnz").as_number());
  r.csr_ws_bytes =
      static_cast<std::size_t>(matrix.at("csr_ws_bytes").as_number());
  r.precision = matrix.at("precision").as_string();

  const Json& machine = j.at("machine");
  r.machine_description = machine.at("description").as_string();
  r.bandwidth_bps = machine.at("bandwidth_bps").as_number();

  const Json& obs = j.at("observe");
  r.hooks_enabled = obs.at("hooks_enabled").as_bool();
  r.runtime_enabled = obs.at("runtime_enabled").as_bool();

  const Json& chosen = j.at("chosen");
  r.chosen_id = chosen.at("id").as_string();
  r.fallback = chosen.at("fallback").as_bool();
  for (const Json& f : chosen.at("failures").as_array())
    r.prepare_failures.emplace_back(f.at("id").as_string(),
                                    f.at("reason").as_string());

  for (const Json& jc : j.at("candidates").as_array()) {
    CandidateReport c;
    c.id = jc.at("id").as_string();
    c.format = jc.at("format").as_string();
    c.impl = jc.at("impl").as_string();
    c.ws_bytes = static_cast<std::size_t>(jc.at("ws_bytes").as_number());
    for (const auto& [m, s] : jc.at("predicted").as_object())
      c.predicted_seconds[m] = s.as_number();
    c.measured = jc.at("measured").as_bool();
    c.measured_seconds = jc.at("measured_seconds").as_number();
    c.skip_reason = jc.at("skip_reason").as_string();
    r.candidates.push_back(std::move(c));
  }

  for (const Json& js : j.at("selections").as_array()) {
    SelectionReport s;
    s.model = js.at("model").as_string();
    s.selected_id = js.at("selected").as_string();
    s.predicted_seconds = js.at("predicted_seconds").as_number();
    s.measured_seconds = js.at("measured_seconds").as_number();
    s.best_id = js.at("best").as_string();
    s.best_seconds = js.at("best_seconds").as_number();
    s.optimal = js.at("optimal").as_bool();
    s.off_best = js.at("off_best").as_number();
    s.model_error = js.at("model_error").as_number();
    r.selections.push_back(std::move(s));
  }

  const Json& threads_j = j.at("threads");
  r.threads = static_cast<int>(threads_j.at("count").as_number());
  for (const Json& jt : threads_j.at("samples").as_array()) {
    ThreadSample t;
    t.tid = static_cast<int>(jt.at("tid").as_number());
    t.seconds = jt.at("seconds").as_number();
    t.calls = static_cast<std::uint64_t>(jt.at("calls").as_number());
    t.items = static_cast<std::uint64_t>(jt.at("items").as_number());
    r.thread_samples.push_back(t);
  }

  for (const auto& [path, stat] : j.at("phases").as_object()) {
    SpanStat s;
    s.seconds = stat.at("seconds").as_number();
    s.calls = static_cast<std::uint64_t>(stat.at("calls").as_number());
    r.phases[path] = s;
  }

  for (const auto& [name, n] : j.at("counters").as_object())
    r.counters[name] = static_cast<std::uint64_t>(n.as_number());

  const Json& dist_j = j.at("dist");
  r.dist.enabled = dist_j.at("enabled").as_bool();
  r.dist.ranks = static_cast<int>(dist_j.at("ranks").as_number());
  r.dist.iterations = static_cast<int>(dist_j.at("iterations").as_number());
  r.dist.comm_alpha_seconds = dist_j.at("comm_alpha_seconds").as_number();
  r.dist.comm_beta_bps = dist_j.at("comm_beta_bps").as_number();
  r.dist.predicted_mode = dist_j.at("predicted_mode").as_string();
  r.dist.measured_mode = dist_j.at("measured_mode").as_string();
  r.dist.model_match = dist_j.at("model_match").as_bool();
  for (const Json& jm : dist_j.at("modes").as_array()) {
    DistModeReport m;
    m.mode = jm.at("mode").as_string();
    m.predicted_seconds = jm.at("predicted_seconds").as_number();
    m.measured_seconds = jm.at("measured_seconds").as_number();
    for (const Json& js : jm.at("ranks").as_array()) {
      DistRankSample s;
      s.rank = static_cast<int>(js.at("rank").as_number());
      s.rows = static_cast<std::int64_t>(js.at("rows").as_number());
      s.nnz = static_cast<std::uint64_t>(js.at("nnz").as_number());
      s.halo_cols = static_cast<std::uint64_t>(js.at("halo_cols").as_number());
      s.send_seconds = js.at("send_seconds").as_number();
      s.recv_seconds = js.at("recv_seconds").as_number();
      s.wait_seconds = js.at("wait_seconds").as_number();
      s.local_seconds = js.at("local_seconds").as_number();
      s.halo_seconds = js.at("halo_seconds").as_number();
      s.total_seconds = js.at("total_seconds").as_number();
      s.bytes_sent = static_cast<std::uint64_t>(js.at("bytes_sent").as_number());
      s.bytes_recv = static_cast<std::uint64_t>(js.at("bytes_recv").as_number());
      m.rank_samples.push_back(s);
    }
    r.dist.modes.push_back(std::move(m));
  }
  r.dist.supervised = dist_j.at("supervised").as_bool();
  r.dist.outcome = dist_j.at("outcome").as_string();
  r.dist.ranks_final = static_cast<int>(dist_j.at("ranks_final").as_number());
  for (const Json& je : dist_j.at("recovery").as_array()) {
    DistRecoveryEventReport e;
    e.epoch = static_cast<std::uint32_t>(je.at("epoch").as_number());
    e.completed_iterations =
        static_cast<int>(je.at("completed_iterations").as_number());
    e.cause = je.at("cause").as_string();
    for (const Json& fr : je.at("failed_ranks").as_array())
      e.failed_ranks.push_back(static_cast<int>(fr.as_number()));
    e.action = je.at("action").as_string();
    e.seconds = je.at("seconds").as_number();
    e.backoff_ms = je.at("backoff_ms").as_number();
    e.ranks_after = static_cast<int>(je.at("ranks_after").as_number());
    e.detail = je.at("detail").as_string();
    r.dist.recovery.push_back(std::move(e));
  }

  return r;
}

std::string RunReport::to_csv() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "id,format,impl,ws_bytes,pred_mem,pred_memcomp,pred_overlap,"
        "pred_memlat,measured_seconds,skip_reason\n";
  for (const CandidateReport& c : candidates) {
    os << c.id << ',' << c.format << ',' << c.impl << ',' << c.ws_bytes;
    for (const char* m : {"mem", "memcomp", "overlap", "memlat"}) {
      auto it = c.predicted_seconds.find(m);
      os << ',';
      if (it != c.predicted_seconds.end()) os << it->second;
    }
    os << ',';
    if (c.measured) os << c.measured_seconds;
    // Reasons may contain commas; CSV-quote the free-text column.
    os << ",\"";
    for (char ch : c.skip_reason) {
      if (ch == '"') os << '"';
      os << ch;
    }
    os << "\"\n";
  }
  return os.str();
}

void validate_report_json(const Json& j) {
  const auto fail = [](const std::string& what) {
    throw validation_error("run report: " + what);
  };
  if (!j.is_object()) fail("document is not an object");
  if (!j.contains("kind") || !j.at("kind").is_string() ||
      j.at("kind").as_string() != RunReport::kKind)
    fail("missing or wrong kind (expected bspmv_run_report)");
  if (!j.contains("schema_version") ||
      static_cast<int>(j.at("schema_version").as_number()) !=
          RunReport::kSchemaVersion)
    fail("schema version mismatch; expected " +
         std::to_string(RunReport::kSchemaVersion));

  for (const char* key : {"matrix", "machine", "observe", "chosen",
                          "candidates", "selections", "threads", "phases",
                          "counters", "dist"})
    if (!j.contains(key)) fail(std::string("missing section: ") + key);

  const Json& matrix = j.at("matrix");
  for (const char* key : {"name", "rows", "cols", "nnz", "precision"})
    if (!matrix.contains(key))
      fail(std::string("matrix section missing: ") + key);

  const auto& cands = j.at("candidates").as_array();
  if (cands.empty()) fail("candidates array is empty");
  for (const Json& c : cands) {
    if (!c.contains("id") || !c.contains("predicted"))
      fail("candidate entry missing id/predicted");
    const auto& pred = c.at("predicted").as_object();
    for (const char* m : {"mem", "memcomp", "overlap"})
      if (pred.find(m) == pred.end())
        fail("candidate " + c.at("id").as_string() +
             " missing prediction for model " + m);
  }

  const auto& sels = j.at("selections").as_array();
  for (const char* m : {"mem", "memcomp", "overlap", "memlat"}) {
    bool found = false;
    for (const Json& s : sels)
      if (s.at("model").as_string() == m) found = true;
    if (!found) fail(std::string("no selection entry for model ") + m);
  }

  const Json& threads_j = j.at("threads");
  if (static_cast<int>(threads_j.at("count").as_number()) < 1)
    fail("threads.count must be >= 1");
  const Json& obs = j.at("observe");
  if (obs.at("hooks_enabled").as_bool() &&
      obs.at("runtime_enabled").as_bool() &&
      threads_j.at("samples").as_array().empty())
    fail("hooks were live but threads.samples is empty");

  const Json& dist_j = j.at("dist");
  for (const char* key :
       {"enabled", "ranks", "modes", "predicted_mode", "measured_mode",
        "model_match", "supervised", "outcome", "ranks_final", "recovery"})
    if (!dist_j.contains(key))
      fail(std::string("dist section missing: ") + key);
  for (const Json& je : dist_j.at("recovery").as_array())
    for (const char* key : {"epoch", "cause", "action", "failed_ranks"})
      if (!je.contains(key))
        fail(std::string("dist recovery event missing: ") + key);
  if (dist_j.at("enabled").as_bool()) {
    if (static_cast<int>(dist_j.at("ranks").as_number()) < 1)
      fail("dist.ranks must be >= 1 when enabled");
    const auto& modes = dist_j.at("modes").as_array();
    for (const char* want : {"naive", "overlap"}) {
      bool found = false;
      for (const Json& m : modes)
        if (m.at("mode").as_string() == want) {
          found = true;
          if (m.at("ranks").as_array().empty())
            fail(std::string("dist mode ") + want + " has no rank samples");
        }
      if (!found) fail(std::string("dist section missing mode ") + want);
    }
  }
}

// ------------------------------------------------------------ builder ----

template <class V>
RunReport build_run_report(const Csr<V>& a, const std::string& name,
                           const MachineProfile& profile,
                           const ReportOptions& opt) {
  CounterRegistry::instance().reset();
  BSPMV_OBS_SPAN("report");

  RunReport r;
  r.matrix_name = name;
  r.rows = a.rows();
  r.cols = a.cols();
  r.nnz = a.nnz();
  r.csr_ws_bytes = a.working_set_bytes();
  constexpr Precision prec = precision_of<V>;
  r.precision = precision_name(prec);
  r.machine_description = profile.description;
  r.bandwidth_bps = profile.bandwidth_bps;
  r.runtime_enabled = enabled();
  r.threads = opt.threads > 0 ? opt.threads : omp_get_max_threads();

  const std::vector<Candidate> cands = model_candidates(true);
  const std::vector<CandidateCost> costs = all_candidate_costs(a, cands);
  const IrregularityStats irr = irregularity_stats(a);

  // Predicted (every model) and measured time per candidate — Fig. 3.
  std::map<std::string, double> measured;
  for (const CandidateCost& cost : costs) {
    CandidateReport cr;
    cr.id = cost.candidate.id();
    cr.format = format_name(cost.candidate.kind);
    cr.impl = impl_name(cost.candidate.impl);
    cr.ws_bytes = cost.total_ws();
    for (ModelKind m : kModels)
      cr.predicted_seconds[model_name(m)] =
          predict(m, cost, profile, prec, &irr);
    if (opt.measure_candidates) {
      std::string reason;
      if (auto f = try_convert(a, cost.candidate, &reason)) {
        cr.measured_seconds = measure_spmv_seconds(*f, opt.measure);
        cr.measured = true;
        measured[cr.id] = cr.measured_seconds;
      } else {
        cr.skip_reason = std::move(reason);
      }
    }
    r.candidates.push_back(std::move(cr));
  }
  if (opt.verbose)
    std::fprintf(stderr, "report: measured %zu/%zu candidates\n",
                 measured.size(), costs.size());

  std::string best_id;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [id, secs] : measured)
    if (secs < best) {
      best = secs;
      best_id = id;
    }

  // Each model's selection scored against the measured best — Table IV.
  for (ModelKind m : kModels) {
    const RankedCandidate sel = select_best(m, a, profile);
    SelectionReport s;
    s.model = model_name(m);
    s.selected_id = sel.candidate.id();
    s.predicted_seconds = sel.predicted_seconds;
    s.best_id = best_id;
    s.best_seconds = std::isfinite(best) ? best : 0.0;
    auto it = measured.find(s.selected_id);
    if (it != measured.end() && std::isfinite(best) && best > 0.0) {
      s.measured_seconds = it->second;
      s.off_best = it->second / best - 1.0;
      s.optimal = s.selected_id == best_id || it->second <= best * kOptimalSlack;
      s.model_error = (s.predicted_seconds - it->second) / it->second;
    }
    r.selections.push_back(std::move(s));
  }

  // Fault-tolerant selection (OVERLAP, the paper's most accurate model)
  // and its audit trail.
  PreparedExecutor<V> prep = select_and_prepare(ModelKind::kOverlap, a, profile);
  r.chosen_id = prep.format.candidate().id();
  r.fallback = prep.fallback;
  for (const PrepareFailure& f : prep.failures)
    r.prepare_failures.emplace_back(f.candidate.id(), f.reason);

  // Multithreaded run of the chosen candidate: the parallel drivers feed
  // per-thread kernel time + assigned weights into the registry.
  try {
    (void)measure_threaded_seconds(a, prep.format.candidate(), r.threads,
                                   opt.measure);
  } catch (const error&) {
    // Chosen format not parallelised (cannot happen for model candidates,
    // which are all §V-A formats; kept as a guard for future sets).
  }

  // Distributed section: only meaningful for double (the rank protocol
  // ships f64) and when the caller asked for more than one rank.
  if constexpr (std::is_same_v<V, double>) {
    if (opt.dist_ranks > 1) build_dist_section(a, profile, opt, r.dist);
  }

  const Snapshot snap = CounterRegistry::instance().snapshot();
  r.phases = snap.spans;
  r.counters = snap.counters;
  std::map<int, ThreadSample> per_tid;
  for (const auto& [metric, tids] : snap.thread_times) {
    (void)metric;
    for (const auto& [tid, st] : tids) {
      ThreadSample& t = per_tid[tid];
      t.tid = tid;
      t.seconds += st.seconds;
      t.calls += st.calls;
      t.items += st.items;
    }
  }
  for (const auto& [tid, t] : per_tid) r.thread_samples.push_back(t);
  return r;
}

// --------------------------------------------------------- trajectory ----

void append_to_trajectory(const std::string& path, const Json& entry) {
  constexpr int kTrajectorySchema = 1;
  constexpr const char* kTrajectoryKind = "bspmv_trajectory";

  Json doc;
  bool fresh = true;
  {
    std::ifstream f(path);
    if (f) {
      std::ostringstream ss;
      ss << f.rdbuf();
      try {
        doc = Json::parse(ss.str());
        if (!doc.is_object() || !doc.contains("kind") ||
            doc.at("kind").as_string() != kTrajectoryKind ||
            static_cast<int>(doc.at("schema_version").as_number()) !=
                kTrajectorySchema)
          throw validation_error("kind/schema mismatch");
        fresh = false;
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "warning: ignoring trajectory %s (%s); restarting\n",
                     path.c_str(), e.what());
      }
    }
  }
  if (fresh) {
    Json::Object o;
    o["schema_version"] = kTrajectorySchema;
    o["kind"] = kTrajectoryKind;
    o["entries"] = Json::Array{};
    doc = Json(std::move(o));
  }
  doc["entries"].as_array().push_back(entry);

  // Crash-safe append: rewrite via temp-file + rename so a kill mid-write
  // can only lose the newest entry, never the accumulated trajectory.
  atomic_write_file(path, doc.dump(-1) + '\n');
}

#define BSPMV_INST(V)                                          \
  template RunReport build_run_report(                         \
      const Csr<V>&, const std::string&, const MachineProfile&, \
      const ReportOptions&);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv::observe
