// DistSpmv — the multi-process distributed SpMV driver.
//
// Construction builds the nnz-balanced shard plan, wires a socketpair
// mesh (one control channel per rank, one data channel per rank pair),
// forks one rank process per shard and ships each its kShard message.
// run() then scatters x, triggers `iterations` halo-exchange + SpMV
// rounds inside the ranks (overlap or naive, switchable per run without
// re-sharding), and gathers the y slices plus per-rank phase timings.
//
// Without supervision, failure surfaces through the typed taxonomy: a
// rank that dies mid-run is an io_error, a stalled one a timeout_error
// (wire read timeout), and a rank-reported failure rethrows via
// throw_wire_error — the same contract the serving client keeps.
//
// With SuperviseOptions::enabled the driver instead *survives* rank
// failure (docs/distribution.md "Failure modes and recovery"):
//
//   - run() executes in rounds of the checkpoint interval; after each
//     round every rank has replied, so recovery always starts from a
//     quiesced mesh.
//   - A failed round is classified per rank via waitpid (dead) or a
//     missed reply deadline (stalled — the rank is SIGKILLed into the
//     dead set). Recovery respawns the dead ranks on fresh socketpairs,
//     re-ships their shards (the ShardPlan is deterministic — no
//     re-plan), rewires every survivor through kPeerUpdate + SCM_RIGHTS,
//     drains stale pre-recovery frames, bumps the epoch and retries
//     after an exponential backoff.
//   - The iteration is an idempotent recompute of y from the constant x,
//     so a retried round reproduces the fault-free result *bitwise*; an
//     optional on-disk checkpoint (x + completed count, CRC-trailed
//     atomic file) lets a brand-new driver resume the count.
//   - After max_respawns consecutive failed recoveries the driver walks
//     a degradation ladder mirroring the serve layer: re-shard over the
//     surviving ranks, then fall back to a single-node SpmvEngine. The
//     outcome is never silent: recovery_log()/outcome() feed the
//     RunReport "dist" section and mtx_tool's report.
//
// The destructor shuts the ranks down gracefully, escalating to
// SIGKILL, and always reaps.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/models.hpp"
#include "src/dist/messages.hpp"
#include "src/dist/shard_plan.hpp"
#include "src/formats/csr.hpp"
#include "src/kernels/impl.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/run_control.hpp"

namespace bspmv::dist {

/// Rank-supervision policy. Defaults keep supervision OFF: the library's
/// fail-fast typed-error contract is unchanged unless a caller opts in.
struct SuperviseOptions {
  bool enabled = false;
  /// Consecutive failed recoveries tolerated before the degradation
  /// ladder engages (each successful round resets the count).
  int max_respawns = 2;
  /// Iterations per round (= checkpoint cadence). 0 picks a default of
  /// ~4 rounds per run; mtx_tool feeds the Young/Daly model choice
  /// (dist_checkpoint_interval) here.
  int checkpoint_interval = 0;
  /// On-disk resume point, written through atomic_write_file with a CRC
  /// trailer after every completed round. Empty = in-memory only.
  std::string checkpoint_path;
  double backoff_initial_ms = 10.0;
  double backoff_max_ms = 1000.0;
  /// Degradation ladder rungs (in order). Disabling both turns rung
  /// exhaustion into a typed rethrow of the last failure.
  bool allow_reshard = true;
  bool allow_single_node = true;
  /// Heartbeat cadence inside rounds (kProgress every N iterations;
  /// 0 = off). Lets wire timeouts stay short when rounds run long.
  std::uint32_t progress_every = 0;
};

struct DistOptions {
  int ranks = 2;
  DistMode mode = DistMode::kOverlap;
  /// Threads per rank: each rank runs its local-columns pass inline on
  /// its own thread (src/dist/rank.cpp says why not through OpenMP).
  static constexpr int threads_per_rank = 1;
  Impl impl = Impl::kScalar;
  /// Wire read timeout on every channel (driver and ranks).
  double timeout_seconds = 30.0;
  SuperviseOptions supervise;
};

/// How a supervised run() ended, worst rung reached.
enum class DistOutcome {
  kClean,       ///< no failures
  kRecovered,   ///< failures healed by respawn/retry; full rank count
  kResharded,   ///< re-sharded over the survivors
  kSingleNode,  ///< fell back to a single-node SpmvEngine
};

const char* dist_outcome_name(DistOutcome o);

/// One supervisor intervention, in run() order — the RunReport recovery
/// timeline entry.
struct RecoveryEvent {
  std::uint32_t epoch = 0;          ///< epoch of the failed round
  int completed_iterations = 0;     ///< progress when the failure hit
  std::string cause;                ///< "rank_dead" / "rank_stalled" / "rank_error"
  std::vector<int> failed_ranks;    ///< dead or killed-as-stalled ranks
  std::string action;  ///< "respawn" / "retry" / "reshard" / "single_node" / "abort"
  double seconds = 0.0;             ///< wall time of the intervention
  double backoff_ms = 0.0;          ///< backoff slept before it
  int ranks_after = 0;              ///< mesh width after the action
  std::string detail;               ///< first error message observed
};

class DistSpmv {
 public:
  DistSpmv(const Csr<double>& a, const DistOptions& opt);
  ~DistSpmv();
  DistSpmv(const DistSpmv&) = delete;
  DistSpmv& operator=(const DistSpmv&) = delete;

  const ShardPlan& plan() const { return plan_; }
  DistMode mode() const { return opt_.mode; }
  /// Exchange strategy of subsequent run() calls; the shards are mode-
  /// agnostic, so switching never re-forks or re-ships anything.
  void set_mode(DistMode m) { opt_.mode = m; }

  /// Current mesh width (shrinks only when recovery re-shards).
  int ranks() const { return opt_.ranks; }

  /// Optional run-level control: between rounds the supervisor polls its
  /// deadline/cancel state, and the per-frame wire timeout is clamped to
  /// the remaining budget — a run deadline bounds wire waits too. The
  /// control must outlive subsequent run() calls; nullptr detaches.
  void set_control(RunControl* control) { control_ = control; }

  /// y = A·x, executed `iterations` times back to back inside the ranks
  /// with a fresh halo exchange each round (the iterative-solver traffic
  /// pattern the models assume); y holds the final iteration's result.
  void run(const double* x, double* y, int iterations = 1);

  /// Per-rank phase timings of the last run() (send/recv/wait/local/halo
  /// seconds, bytes and frames), accumulated over its rounds — the
  /// RunReport timeline source.
  const std::vector<RankStats>& last_stats() const { return stats_; }

  /// Supervision outcome of the last run() (kClean when supervision is
  /// off or nothing failed) and its intervention timeline.
  DistOutcome outcome() const { return outcome_; }
  const std::vector<RecoveryEvent>& recovery_log() const { return log_; }
  /// Iterations skipped because an on-disk checkpoint vouched for them.
  int resumed_iterations() const { return resumed_; }

  /// Model inputs for predict_distributed / choose_dist_mode.
  std::vector<DistRankCost> rank_costs() const {
    return plan_.rank_costs(sizeof(double));
  }

  /// Fault-injection hook (tests): SIGKILL rank `r`. The next run()
  /// surfaces the death as a typed error (unsupervised) or recovers it.
  void kill_rank(int r);

  /// Fault-injection hook (tests / chaos soak): arm `f` inside rank `r`.
  /// With `persistent`, the fault is re-armed after every respawn of `r`
  /// — the way the degradation tests force K consecutive failures.
  void inject_fault(int r, const FaultMsg& f, bool persistent = false);

 private:
  struct RoundResult {
    bool ok = true;
    std::vector<int> failed;     ///< ranks now dead (incl. killed stalls)
    std::string cause;           ///< worst classification of the round
    std::string message;         ///< first error observed
    std::exception_ptr error;    ///< for the unsupervised rethrow path
    std::uint64_t bytes = 0;     ///< halo bytes this round (counters)
    std::uint64_t msgs = 0;      ///< halo frames this round (counters)
  };

  void spawn(const Csr<double>& a);
  void ship_shard(const Csr<double>& a, int r);
  void expect_ok(int r, serve::MsgType want, const serve::WireLimits& lim);
  bool child_exited(int r);
  void force_down(int r) noexcept;
  int live_ranks() const;
  RoundResult run_round(const double* x, double* y, int step, int first,
                        const serve::WireLimits& lim);
  void run_supervised(const double* x, double* y, int iterations);
  void run_unsupervised(const double* x, double* y, int iterations);
  void recover(const std::vector<int>& failed);
  void respawn_ranks(const std::vector<int>& dead);
  void reshard(int new_ranks);
  void run_single_node(const double* x, double* y);
  serve::WireLimits round_limits() const;
  void shutdown() noexcept;

  DistOptions opt_;
  ShardPlan plan_;
  serve::WireLimits limits_;
  std::vector<pid_t> pids_;
  std::vector<int> ctrl_fds_;  ///< driver-side control channel ends
  std::vector<RankStats> stats_;

  // Supervision state. The matrix is retained only when supervision is
  // on: respawn re-ships shards and the ladder re-shards / runs single-
  // node from it.
  Csr<double> matrix_;
  RunControl* control_ = nullptr;
  std::uint32_t epoch_ = 0;
  DistOutcome outcome_ = DistOutcome::kClean;
  std::vector<RecoveryEvent> log_;
  int resumed_ = 0;
  std::vector<FaultMsg> persistent_faults_;  ///< by rank; kNone = unset
};

}  // namespace bspmv::dist
