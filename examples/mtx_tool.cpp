// mtx_tool — command-line analysis of a Matrix Market file (or a suite
// matrix): structural statistics per blocking format, model predictions,
// and a recommendation from each performance model. Lets users run the
// paper's methodology on their own matrices.
//
//   $ ./mtx_tool matrix.mtx
//   $ ./mtx_tool --suite 21 --scale small --measure
//   $ ./mtx_tool report matrix.mtx --out report.json
//   $ ./mtx_tool report --validate report.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/core/engine.hpp"
#include "src/core/executor.hpp"
#include "src/dist/driver.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/util/timing.hpp"
#include "src/core/heuristic.hpp"
#include "src/core/models.hpp"
#include "src/core/working_set.hpp"
#include "src/core/reorder.hpp"
#include "src/core/selector.hpp"
#include "src/formats/permute.hpp"
#include "src/formats/stats.hpp"
#include "src/gen/suite.hpp"
#include "src/io/matrix_market.hpp"
#include "src/kernels/spmv.hpp"
#include "src/observe/report.hpp"
#include "src/profile/block_profiler.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/cli.hpp"
#include "src/util/errors.hpp"
#include "src/util/run_control.hpp"

using namespace bspmv;

namespace {

// Distinct exit codes per error family so scripts and CI can branch on
// the failure class without scraping stderr (see docs/robustness.md).
enum ExitCode {
  kExitError = 1,       // any other bspmv::error
  kExitParse = 2,       // unreadable/garbled input matrix
  kExitConversion = 3,  // format conversion failed / resource limit
  kExitTimeout = 4,     // deadline expired / run cancelled or stalled
  kExitNumerical = 5,   // NaN/Inf or fingerprint mismatch
  kExitIo = 6,          // corrupt or unwritable cache/output file
};

/// Arm a RunControl from --deadline-ms; returns nullptr (no control)
/// when the option is absent or zero.
RunControl* setup_control(const CliParser& cli,
                          std::optional<RunControl>& storage) {
  const auto deadline_ms = cli.get_int("deadline-ms");
  if (deadline_ms <= 0) return nullptr;
  storage.emplace();
  storage->set_deadline(static_cast<double>(deadline_ms) / 1e3);
  return &*storage;
}

/// Reject bad --ranks/--dist-mode/--dist-timeout values up front, before
/// any profiling or forking (typed invalid_argument_error -> exit 1).
void check_dist_flags(const CliParser& cli) {
  const auto ranks = cli.get_int("ranks");
  if (ranks < 0 || ranks > dist::kMaxRanks)
    throw invalid_argument_error("--ranks must be 0 or in [1, " +
                                 std::to_string(dist::kMaxRanks) + "]");
  (void)parse_dist_mode(cli.get("dist-mode"));
  if (!(cli.get_double("dist-timeout") > 0.0))
    throw invalid_argument_error("--dist-timeout must be positive seconds");
}

/// Load the target matrix for either subcommand: --suite id wins,
/// otherwise the positional path at `pos_index` is a Matrix Market file.
bool load_matrix(const CliParser& cli, std::size_t pos_index, Csr<double>& a,
                 std::string& name) {
  const int suite_id = static_cast<int>(cli.get_int("suite"));
  if (suite_id > 0) {
    a = build_suite_csr<double>(suite_id, parse_suite_scale(cli.get("scale")));
    name = suite_catalog()[static_cast<size_t>(suite_id - 1)].name;
    return true;
  }
  if (cli.positional().size() > pos_index) {
    name = cli.positional()[pos_index];
    std::printf("reading %s...\n", name.c_str());
    a = Csr<double>::from_coo(read_matrix_market<double>(name));
    return true;
  }
  return false;
}

/// `mtx_tool --ranks N` — row-sharded multi-process SpMV with halo
/// exchange (docs/distribution.md): print the shard plan, run the
/// requested exchange mode, verify against serial CSR, show the
/// per-rank send/recv/wait/local/halo timeline, and score the t_comm
/// model's overlap-vs-naive choice against the measured winner.
int run_dist(const CliParser& cli, const Csr<double>& a,
             const MachineProfile& base_profile, int ranks,
             RunControl* control) {
  const DistMode mode = parse_dist_mode(cli.get("dist-mode"));
  const int iterations =
      std::max(1, static_cast<int>(cli.get_int("iterations")));
  const double dist_timeout = cli.get_double("dist-timeout");

  MachineProfile profile = base_profile;
  if (profile.comm_beta_bps <= 0.0) {
    std::printf("\nprofiling wire comm (machine profile has no alpha/beta)...\n");
    const CommProfile c = profile_comm(/*quick=*/true);
    profile.comm_alpha_seconds = c.alpha_seconds;
    profile.comm_beta_bps = c.beta_bps;
  }
  std::printf("\ndistributed run: %d ranks, %s exchange, %d iterations "
              "(alpha %.2f us, beta %.2f GiB/s)\n",
              ranks, dist_mode_name(mode), iterations,
              profile.comm_alpha_seconds * 1e6,
              profile.comm_beta_bps / (1u << 30));

  dist::DistOptions dopt;
  dopt.ranks = ranks;
  dopt.mode = mode;
  dopt.timeout_seconds = dist_timeout;
  // Supervision is ON by default here (the library default stays off):
  // the tool survives a lost rank, degrades if it must, and always says
  // so. --dist-no-recover restores the fail-fast typed-exit contract.
  dopt.supervise.enabled = !cli.get_flag("dist-no-recover");
  dopt.supervise.max_respawns =
      static_cast<int>(cli.get_int("dist-max-respawns"));
  dopt.supervise.checkpoint_path = cli.get("dist-checkpoint");
  const double mtbf = cli.get_double("dist-mtbf");
  if (mtbf > 0.0) {
    // Young/Daly cadence from the model stack: predicted per-iteration
    // time x per-checkpoint cost x assumed MTBF.
    const double t_iter =
        predict_distributed(profile, dist::plan_shards(a, ranks)
                                         .rank_costs(sizeof(double)),
                            mode);
    const double ckpt = dist_checkpoint_seconds(
        profile, static_cast<std::size_t>(a.cols()) * sizeof(double));
    dopt.supervise.checkpoint_interval =
        dist_checkpoint_interval(t_iter, ckpt, mtbf);
    std::printf("checkpoint interval (Young, mtbf %.1fs, ckpt %.2fms): "
                "every %d iteration(s)\n",
                mtbf, ckpt * 1e3, dopt.supervise.checkpoint_interval);
  }
  dist::DistSpmv d(a, dopt);
  d.set_control(control);

  // Chaos drill: arm faults (alternating kills and stalls on the
  // non-zero ranks) that fire during the timed run; the recovery
  // timeline below is the receipt. Drives the dist soak harness.
  const int chaos = static_cast<int>(cli.get_int("dist-chaos"));
  if (chaos > 0 && dopt.supervise.enabled && ranks > 1) {
    for (int k = 0; k < chaos; ++k) {
      dist::FaultMsg f;
      f.kind = k % 2 == 0 ? dist::FaultKind::kExitAtIteration
                          : dist::FaultKind::kStallAtIteration;
      f.at_iteration =
          static_cast<std::uint32_t>(std::min(k + 1, iterations - 1));
      f.seconds = 3.0 * dist_timeout;  // past the stall-kill grace
      d.inject_fault(1 + k % (ranks - 1), f);
    }
    std::printf("chaos: armed %d fault(s) across ranks 1..%d\n", chaos,
                ranks - 1);
  }

  std::printf("shard plan (nnz-balanced rows):\n");
  for (int r = 0; r < ranks; ++r) {
    const dist::RankShard& sh = d.plan().shards[static_cast<std::size_t>(r)];
    std::printf("  rank %d: rows [%d, %d)  nnz %zu (local %zu, halo %zu)  "
                "halo in %zu / out %zu doubles, %d peer(s)\n",
                r, sh.row_begin, sh.row_end, sh.nnz, sh.local_nnz,
                sh.halo_nnz, sh.recv_count(), sh.send_count(),
                sh.peer_count());
  }

  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + 0.001 * static_cast<double>(i % 1000);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  if (chaos == 0) d.run(x.data(), y.data(), 1);  // warm-up
  Timer t;
  d.run(x.data(), y.data(), iterations);
  const double measured = t.elapsed() / iterations;

  // The supervision outcome is part of the result: a degraded run is
  // still correct, but never silently so.
  if (dopt.supervise.enabled && d.outcome() != dist::DistOutcome::kClean) {
    std::printf("recovery: outcome %s, %zu event(s), %d rank(s) left\n",
                dist::dist_outcome_name(d.outcome()),
                d.recovery_log().size(), d.ranks());
    for (const dist::RecoveryEvent& e : d.recovery_log()) {
      std::string who;
      for (int r : e.failed_ranks) who += " " + std::to_string(r);
      if (who.empty()) who = " -";
      std::printf("  epoch %u @ iter %d: %s on rank(s)%s -> %s "
                  "(%.1f ms, backoff %.0f ms)%s%s\n",
                  e.epoch, e.completed_iterations, e.cause.c_str(),
                  who.c_str(), e.action.c_str(), e.seconds * 1e3,
                  e.backoff_ms, e.detail.empty() ? "" : " | ",
                  e.detail.c_str());
    }
  }

  // Parity check against the serial CSR kernel (the column split only
  // reorders within-row sums).
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());
  double max_rel = 0.0;
  for (std::size_t i = 0; i < yref.size(); ++i) {
    const double scale = std::max({std::abs(y[i]), std::abs(yref[i]), 1.0});
    max_rel = std::max(max_rel, std::abs(y[i] - yref[i]) / scale);
  }
  if (max_rel > 1e-10)
    throw numerical_error("distributed result diverges from serial CSR "
                          "(max rel err " + std::to_string(max_rel) + ")");
  std::printf("verified against serial CSR: max rel err %.2e\n", max_rel);

  std::printf("per-rank timeline (ms over %d iterations):\n", iterations);
  std::printf("  %-5s %9s %9s %9s %9s %9s %9s\n", "rank", "send", "recv",
              "wait", "local", "halo", "total");
  for (int r = 0; r < static_cast<int>(d.last_stats().size()); ++r) {
    const dist::RankStats& s = d.last_stats()[static_cast<std::size_t>(r)];
    std::printf("  %-5d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n", r,
                s.send_seconds * 1e3, s.recv_seconds * 1e3,
                s.wait_seconds * 1e3, s.local_seconds * 1e3,
                s.halo_seconds * 1e3, s.total_seconds * 1e3);
  }

  // Model vs measured, both modes: time the other mode over the same
  // shard plan, then score choose_dist_mode against the measured winner.
  const DistMode other =
      mode == DistMode::kOverlap ? DistMode::kNaive : DistMode::kOverlap;
  d.set_mode(other);
  d.run(x.data(), y.data(), 1);
  Timer t2;
  d.run(x.data(), y.data(), iterations);
  const double measured_other = t2.elapsed() / iterations;

  const auto costs = d.rank_costs();
  const DistMode predicted = choose_dist_mode(profile, costs);
  // Tie-aware winner: inside the 3% noise floor either prediction is
  // right — the mode gap is below run-to-run scheduling jitter.
  constexpr double kNoiseMargin = 0.97;
  const char* winner = "tie";
  if (measured < kNoiseMargin * measured_other)
    winner = dist_mode_name(mode);
  else if (measured_other < kNoiseMargin * measured)
    winner = dist_mode_name(other);
  const bool match = std::string(winner) == "tie" ||
                     std::string(winner) == dist_mode_name(predicted);
  std::printf("model: naive %.3f ms, overlap %.3f ms -> %s | measured: "
              "%s %.3f ms, %s %.3f ms -> %s (%s)\n",
              predict_distributed(profile, costs, DistMode::kNaive) * 1e3,
              predict_distributed(profile, costs, DistMode::kOverlap) * 1e3,
              dist_mode_name(predicted), dist_mode_name(mode), measured * 1e3,
              dist_mode_name(other), measured_other * 1e3, winner,
              match ? "model match" : "model miss");
  return 0;
}

/// `mtx_tool report` — build a schema-versioned RunReport (predicted vs
/// measured time per model, Table IV selection scoring, per-thread
/// timing) and write it as JSON/CSV; or validate an existing report file.
int run_report(const CliParser& cli) {
  const std::string validate_path = cli.get("validate");
  if (!validate_path.empty()) {
    std::ifstream f(validate_path);
    if (!f) {
      std::fprintf(stderr, "error: cannot read %s\n", validate_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    observe::validate_report_json(Json::parse(ss.str()));
    std::printf("%s: valid %s (schema v%d)\n", validate_path.c_str(),
                observe::RunReport::kKind, observe::RunReport::kSchemaVersion);
    return 0;
  }

  Csr<double> a;
  std::string name;
  if (!load_matrix(cli, 1, a, name)) {
    std::fprintf(stderr,
                 "usage: mtx_tool report <file.mtx> | --suite <id> "
                 "[--out r.json] [--csv r.csv] [--append traj.json]\n"
                 "       mtx_tool report --validate <report.json>\n");
    return 1;
  }

  std::optional<RunControl> control_storage;
  RunControl* control = setup_control(cli, control_storage);

  ProfileOptions popt;
  popt.quick = true;
  popt.control = control;
  const MachineProfile profile = load_or_profile(cli.get("profile"), popt);

  observe::ReportOptions ropt;
  ropt.measure.iterations = static_cast<int>(cli.get_int("iterations"));
  ropt.measure.reps = static_cast<int>(cli.get_int("reps"));
  ropt.measure.control = control;
  ropt.measure.check_numerics = cli.get_flag("check-numerics");
  ropt.threads = static_cast<int>(cli.get_int("threads"));
  ropt.verbose = cli.get_flag("verbose");
  // --ranks N adds the distributed section (both exchange modes measured
  // over one shard plan, per-rank timelines, model-vs-winner scoring).
  ropt.dist_ranks = static_cast<int>(cli.get_int("ranks"));
  ropt.dist_supervise = !cli.get_flag("dist-no-recover");
  ropt.dist_chaos = static_cast<int>(cli.get_int("dist-chaos"));
  ropt.dist_timeout_seconds = cli.get_double("dist-timeout");

  const observe::RunReport report =
      observe::build_run_report(a, name, profile, ropt);
  const Json j = report.to_json();

  // Crash-safe outputs: a killed run leaves either the previous file or
  // the new one, never a truncated hybrid.
  const std::string out = cli.get("out");
  atomic_write_file(out, j.dump(2) + '\n');
  std::printf("wrote %s: %zu candidates, %zu selections, %d threads%s\n",
              out.c_str(), report.candidates.size(), report.selections.size(),
              report.threads, report.fallback ? " (CSR fallback)" : "");

  const std::string csv = cli.get("csv");
  if (!csv.empty()) {
    atomic_write_file(csv, report.to_csv());
    std::printf("wrote %s\n", csv.c_str());
  }

  const std::string traj = cli.get("append");
  if (!traj.empty()) {
    observe::append_to_trajectory(traj, j);
    std::printf("appended to trajectory %s\n", traj.c_str());
  }
  return 0;
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("suite", "0", "use suite matrix id 1..30 instead of a file");
  cli.add_option("scale", "small", "suite scale (with --suite)");
  cli.add_option("profile", "machine_profile.json", "machine profile path");
  cli.add_option("top", "8", "how many ranked candidates to print");
  cli.add_option("out", "report.json", "report: output JSON path");
  cli.add_option("csv", "", "report: also write the candidate table as CSV");
  cli.add_option("append", "", "report: also append to this trajectory file");
  cli.add_option("validate", "", "report: validate this file and exit");
  cli.add_option("threads", "0", "report: thread count (0 = all cores)");
  cli.add_option("iterations", "10",
                 "SpMV iterations per timed batch (paper setting: 100)");
  cli.add_option("reps", "2", "timed batches (minimum time reported)");
  cli.add_option("deadline-ms", "0",
                 "abort profiling/measurement after this many ms (exit 4)");
  cli.add_option("rhs", "1",
                 "right-hand sides per multiply; k > 1 measures SpMM "
                 "through run_multi (docs/spmm.md)");
  cli.add_option("layout", "row",
                 "multi-vector layout with --rhs: row (interleaved) or "
                 "col (vector-contiguous)");
  cli.add_option("ranks", "0",
                 "fork this many rank processes and run the row-sharded "
                 "distributed SpMV (docs/distribution.md); report: adds "
                 "the dist section");
  cli.add_option("dist-mode", "overlap",
                 "halo exchange mode with --ranks: overlap (hide comm "
                 "under the local pass) or naive (exchange then compute)");
  cli.add_option("dist-timeout", "30",
                 "wire read timeout in seconds on every dist channel; a "
                 "--deadline-ms budget additionally bounds each wait");
  cli.add_option("dist-checkpoint", "",
                 "supervised runs: write an iteration checkpoint here "
                 "(CRC-trailed atomic file) and resume from it");
  cli.add_option("dist-mtbf", "0",
                 "assumed seconds between rank failures; > 0 picks the "
                 "checkpoint interval by Young's formula");
  cli.add_option("dist-max-respawns", "2",
                 "consecutive failed recoveries before degrading "
                 "(reshard, then single-node)");
  cli.add_option("dist-chaos", "0",
                 "supervised runs: inject this many rank kills/stalls "
                 "during the timed run (soak/drill; recovery is printed)");
  cli.add_flag("dist-no-recover",
               "disable rank supervision: a lost rank exits with the "
               "typed error code instead of recovering");
  cli.add_flag("check-numerics",
               "scan vectors for NaN/Inf and verify output fingerprints");
  cli.add_flag("measure", "also measure the top candidates' real time");
  cli.add_flag("reorder", "apply the similarity row reordering first");
  cli.add_flag("verbose", "report: progress output on stderr");
  if (!cli.parse(argc, argv)) return 0;
  check_dist_flags(cli);

  if (!cli.positional().empty() && cli.positional().front() == "report")
    return run_report(cli);

  Csr<double> a;
  std::string name;
  if (!load_matrix(cli, 0, a, name)) {
    std::fprintf(stderr,
                 "usage: mtx_tool <file.mtx> | --suite <id> [--measure]\n"
                 "       mtx_tool report <file.mtx> | --suite <id>\n");
    return 1;
  }

  std::printf("matrix %s: %d x %d, %zu nonzeros, %.1f nnz/row, CSR ws %.2f "
              "MiB\n",
              name.c_str(), a.rows(), a.cols(), a.nnz(),
              static_cast<double>(a.nnz()) / static_cast<double>(a.rows()),
              static_cast<double>(a.working_set_bytes()) / (1 << 20));

  if (cli.get_flag("reorder")) {
    const double fill_before = bcsr_stats(a, BlockShape{3, 3}).fill();
    a = permute_rows(a, similarity_reorder(a));
    std::printf("applied similarity row reordering: 3x3 fill %.3f -> %.3f\n",
                fill_before, bcsr_stats(a, BlockShape{3, 3}).fill());
  }

  // Structural scan: fill ratio per BCSR shape, BCSD size, and 1D-VBL.
  std::printf("\nblock fill ratios (stored nonzeros / stored values):\n");
  std::printf("  %-8s", "BCSR:");
  for (BlockShape s : bcsr_shapes())
    std::printf(" %s=%.2f", s.to_string().c_str(), bcsr_stats(a, s).fill());
  std::printf("\n  %-8s", "BCSD:");
  for (int b : bcsd_sizes())
    std::printf(" b%d=%.2f", b, bcsd_stats(a, b).fill());
  std::printf("\n  1D-VBL: %.1f elements/block average\n",
              static_cast<double>(a.nnz()) /
                  static_cast<double>(vbl_block_count(a)));

  const int rhs = static_cast<int>(cli.get_int("rhs"));
  const std::string layout_str = cli.get("layout");
  if (rhs < 1 || (layout_str != "row" && layout_str != "col")) {
    std::fprintf(stderr,
                 "error: --rhs needs k >= 1 and --layout must be row|col\n");
    return 1;
  }
  const Layout layout =
      layout_str == "col" ? Layout::kColMajor : Layout::kRowMajor;
  // k-aware selection: with --rhs k > 1 every ranking below optimises
  // one k-wide SpMM multiply instead of a single SpMV (docs/spmm.md).
  const Workload workload{rhs, layout};

  std::optional<RunControl> control_storage;
  RunControl* control = setup_control(cli, control_storage);

  ProfileOptions popt;
  popt.quick = true;
  popt.control = control;
  const MachineProfile profile = load_or_profile(cli.get("profile"), popt);

  if (const int ranks = static_cast<int>(cli.get_int("ranks")); ranks != 0)
    return run_dist(cli, a, profile, ranks, control);

  if (rhs > 1)
    std::printf("\nmodel selections (k-aware, %d rhs, %s):\n", rhs,
                layout_name(layout));
  else
    std::printf("\nmodel selections:\n");
  for (ModelKind m : {ModelKind::kMem, ModelKind::kMemComp,
                      ModelKind::kOverlap, ModelKind::kMemLat}) {
    const RankedCandidate best = select_best(m, a, profile, workload);
    std::printf("  %-8s -> %-22s (predicted %.3f ms%s)\n", model_name(m),
                best.candidate.id().c_str(), best.predicted_seconds * 1e3,
                rhs > 1 ? "/multiply" : "");
  }
  const HeuristicSelection h = select_bcsr_heuristic(a, profile);
  std::printf("  %-8s -> %-22s (predicted %.3f ms, est. fill %.2f)\n",
              "oski", h.candidate.id().c_str(), h.predicted_seconds * 1e3,
              h.est_fill);

  const auto ranked =
      rank_candidates(ModelKind::kOverlap, a, profile, workload);
  const auto top = static_cast<std::size_t>(cli.get_int("top"));
  if (rhs > 1)
    std::printf("\ntop %zu candidates by the OVERLAP model (ranked by "
                "k=%d multiply time):\n",
                top, rhs);
  else
    std::printf("\ntop %zu candidates by the OVERLAP model:\n", top);
  MeasureOptions mopt;
  mopt.iterations = static_cast<int>(cli.get_int("iterations"));
  mopt.reps = static_cast<int>(cli.get_int("reps"));
  mopt.control = control;
  mopt.check_numerics = cli.get_flag("check-numerics");
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    std::printf("  %2zu. %-22s predicted %.3f ms", i + 1,
                ranked[i].candidate.id().c_str(),
                ranked[i].predicted_seconds * 1e3);
    if (rhs > 1) {
      // Workload-aware ranking already predicted the whole k-wide
      // multiply (matrix traffic amortised across the batch); show the
      // effective per-vector time next to it.
      std::printf(" (k=%d %s, %.3f ms/vec)", rhs, layout_name(layout),
                  ranked[i].predicted_seconds * 1e3 / rhs);
    }
    if (cli.get_flag("measure")) {
      const auto engine = SpmvEngine<double>::prepare(a, ranked[i].candidate);
      if (rhs > 1) {
        // One multi-vector multiply per iteration through run_multi;
        // the k=1 path below is byte-for-byte the single-vector tool.
        const double t = engine.measure_multi(rhs, layout, mopt);
        std::printf("  measured %.3f ms (%.3f ms/vec)", t * 1e3,
                    t * 1e3 / rhs);
      } else {
        std::printf("  measured %.3f ms", engine.measure(mopt) * 1e3);
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every deliberate library failure derives from bspmv::error; map each
  // family to its own exit code (derived classes before their bases —
  // resource_limit_error is a conversion_error, cancelled/timeout are
  // execution_errors).
  try {
    return run(argc, argv);
  } catch (const bspmv::parse_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitParse;
  } catch (const bspmv::execution_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitTimeout;
  } catch (const bspmv::numerical_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitNumerical;
  } catch (const bspmv::io_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitIo;
  } catch (const bspmv::conversion_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitConversion;
  } catch (const bspmv::error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitError;
  }
}
