// RunReport — the auditable model-vs-measured record of one autotuning
// run, the machine-readable counterpart of the paper's evaluation:
//
//   - per candidate: predicted seconds under every model (MEM eq. 1,
//     MEMCOMP eq. 2, OVERLAP eq. 3, plus the MEMLAT extension) next to
//     the measured seconds — the Fig. 3 view;
//   - per model: the selected candidate, its measured distance from the
//     best measured candidate, and whether the selection was optimal —
//     the Table IV selection-accuracy view;
//   - per thread: kernel time and assigned stored values from the §V-A
//     nnz-balanced parallel drivers — the load-imbalance view;
//   - the phase spans and counters accumulated by the observability
//     hooks (src/observe/observe.hpp) during the run.
//
// Serialised as schema-versioned JSON (see docs/observability.md for the
// schema) and a flat CSV of the candidate table. Consumed by
// `mtx_tool report`, the bench harness's BENCH_report.json trajectory,
// and scripts/make_report.sh.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/executor.hpp"
#include "src/core/models.hpp"
#include "src/observe/registry.hpp"
#include "src/util/json.hpp"

namespace bspmv::observe {

/// One candidate's predicted-vs-measured record.
struct CandidateReport {
  std::string id;       ///< e.g. "bcsr_3x3_simd"
  std::string format;   ///< format_name(kind)
  std::string impl;     ///< "scalar" / "simd"
  std::size_t ws_bytes = 0;  ///< model working set (eq. 1 numerator)
  /// model name -> predicted seconds per SpMV.
  std::map<std::string, double> predicted_seconds;
  double measured_seconds = 0.0;  ///< valid only when `measured`
  bool measured = false;
  std::string skip_reason;  ///< why conversion/measurement was skipped
};

/// One model's selection, scored against the best measured candidate the
/// way Table IV scores "optimal predictions".
struct SelectionReport {
  std::string model;
  std::string selected_id;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;  ///< measured time of the selection
  std::string best_id;            ///< fastest measured candidate
  double best_seconds = 0.0;
  bool optimal = false;     ///< selection within noise of the best
  double off_best = 0.0;    ///< measured/best - 1
  double model_error = 0.0; ///< (predicted - measured)/measured
};

/// One OpenMP thread's accumulated kernel work (totals over all timed
/// run() calls; divide by `calls` for per-SpMV numbers).
struct ThreadSample {
  int tid = 0;
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;  ///< stored values incl. padding, per §V-A weights
};

/// One rank's phase timeline from a distributed run (src/dist/): where
/// its wall time went, per mode. The overlap story is read straight off
/// these numbers — wait_seconds shrinks when comm hides under the
/// local-columns pass.
struct DistRankSample {
  int rank = 0;
  std::int64_t rows = 0;
  std::uint64_t nnz = 0;
  std::uint64_t halo_cols = 0;  ///< halo values received per iteration
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  double wait_seconds = 0.0;   ///< exchange time not hidden by compute
  double local_seconds = 0.0;
  double halo_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
};

/// One exchange mode's predicted-vs-measured record.
struct DistModeReport {
  std::string mode;  ///< "naive" / "overlap"
  double predicted_seconds = 0.0;  ///< predict_distributed, per iteration
  double measured_seconds = 0.0;   ///< wall per iteration, worst-rank view
  std::vector<DistRankSample> rank_samples;
};

/// One supervisor intervention from a supervised distributed run — the
/// JSON mirror of dist::RecoveryEvent (docs/distribution.md "Failure
/// modes and recovery").
struct DistRecoveryEventReport {
  std::uint32_t epoch = 0;
  int completed_iterations = 0;
  std::string cause;   ///< "rank_dead" / "rank_stalled" / "rank_error"
  std::vector<int> failed_ranks;
  std::string action;  ///< "respawn" / "retry" / "reshard" / "single_node"
  double seconds = 0.0;
  double backoff_ms = 0.0;
  int ranks_after = 0;
  std::string detail;
};

/// The distributed section: both modes measured over the same shard
/// plan, the t_comm-based model's choice, and whether it matched the
/// measured winner (the distributed analogue of Table IV). When the run
/// was supervised the section also carries the recovery outcome and the
/// per-event timeline — degradation is never silent.
struct DistReport {
  bool enabled = false;
  int ranks = 0;
  int iterations = 0;
  double comm_alpha_seconds = 0.0;
  double comm_beta_bps = 0.0;
  std::string predicted_mode;  ///< choose_dist_mode over the shard plan
  std::string measured_mode;   ///< faster measured mode
  bool model_match = false;
  std::vector<DistModeReport> modes;
  bool supervised = false;
  /// Worst dist_outcome_name over the measured runs: "clean" /
  /// "recovered" / "resharded" / "single_node".
  std::string outcome = "clean";
  int ranks_final = 0;  ///< mesh width at the end (shrinks on reshard)
  std::vector<DistRecoveryEventReport> recovery;
};

struct RunReport {
  /// Bump on any change to the JSON layout; validate_report_json and
  /// from_json reject mismatches (same policy as MachineProfile).
  /// v2 added the distributed section ("dist"); v3 its supervision
  /// fields (supervised/outcome/ranks_final/recovery); v4 dropped
  /// dist.threads_per_rank (every rank runs its local pass on one thread).
  static constexpr int kSchemaVersion = 4;
  static constexpr const char* kKind = "bspmv_run_report";

  // Matrix identity and structure.
  std::string matrix_name;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::size_t nnz = 0;
  std::size_t csr_ws_bytes = 0;
  std::string precision;  ///< "sp" / "dp"

  // Machine provenance (enough to interpret the predictions).
  std::string machine_description;
  double bandwidth_bps = 0.0;

  // Observability configuration this report was produced under.
  bool hooks_enabled = kHooksEnabled;
  bool runtime_enabled = true;

  // The fault-tolerant selection outcome (select_and_prepare).
  std::string chosen_id;
  bool fallback = false;
  std::vector<std::pair<std::string, std::string>> prepare_failures;

  std::vector<CandidateReport> candidates;
  std::vector<SelectionReport> selections;

  int threads = 0;  ///< thread count of the parallel timing step
  std::vector<ThreadSample> thread_samples;

  DistReport dist;  ///< enabled only when ReportOptions::dist_ranks > 1

  std::map<std::string, SpanStat> phases;
  std::map<std::string, std::uint64_t> counters;

  Json to_json() const;
  /// Parse; throws bspmv::validation_error on schema/kind mismatch or a
  /// structurally broken document.
  static RunReport from_json(const Json& j);
  /// Flat candidate table: one row per candidate, one column per model.
  std::string to_csv() const;
};

/// Structural validation of a serialised report: kind, schema version,
/// required sections, per-candidate prediction completeness, and (when
/// the report says hooks were live) non-empty per-thread timing. Throws
/// bspmv::validation_error naming the broken invariant.
void validate_report_json(const Json& j);

struct ReportOptions {
  MeasureOptions measure;      ///< per-candidate timing knobs
  int threads = 0;             ///< 0 = omp_get_max_threads()
  bool measure_candidates = true;  ///< measure every candidate (Fig. 3 view)
  bool verbose = false;        ///< progress on stderr
  /// Distributed section (double precision only): fork `dist_ranks`
  /// processes, measure both exchange modes over the same shard plan and
  /// score choose_dist_mode against the measured winner. 0/1 skips the
  /// section. Profiles comm α/β on the fly (quick) when the machine
  /// profile carries none.
  int dist_ranks = 0;
  int dist_iterations = 10;  ///< per measured mode
  /// Run the distributed section under rank supervision (recovery +
  /// degradation ladder); outcome and recovery timeline land in the
  /// report's dist section.
  bool dist_supervise = false;
  /// Chaos drill (requires dist_supervise): inject this many faults —
  /// alternating rank kills and stalls — before the first timed run.
  /// The soak harness drives this; the report records the recoveries.
  int dist_chaos = 0;
  /// Wire read timeout for the distributed section's channels.
  double dist_timeout_seconds = 30.0;
};

/// Build the full report for one matrix: predict every model candidate
/// under all four models, measure each one that converts, score every
/// model's selection against the measured best, run the chosen candidate
/// multithreaded for per-thread timing, and snapshot the observability
/// registry. Resets the global CounterRegistry first so the embedded
/// spans/counters describe this run only.
template <class V>
RunReport build_run_report(const Csr<V>& a, const std::string& name,
                           const MachineProfile& profile,
                           const ReportOptions& opt = {});

/// Append one JSON entry to a schema-versioned trajectory file
/// ({schema_version, kind: "bspmv_trajectory", entries: [...]}). A
/// missing file is created; a corrupt or version-mismatched one is
/// warned about and restarted (warn-and-regenerate, DESIGN.md §7).
void append_to_trajectory(const std::string& path, const Json& entry);

#define BSPMV_DECL(V)                                          \
  extern template RunReport build_run_report(                  \
      const Csr<V>&, const std::string&, const MachineProfile&, \
      const ReportOptions&);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv::observe
