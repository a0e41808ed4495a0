// The paper's performance models (§IV) plus the future-work extensions.
//
//   MEM      (eq. 1): t = ws / BW                       [Gropp et al.]
//   MEMCOMP  (eq. 2): t = Σ_i ( ws_i/BW + nb_i·t_b_i )
//   OVERLAP  (eq. 3): t = Σ_i ( ws_i/BW + nof_i·nb_i·t_b_i )
//
// Extensions (§VI future work, built here):
//   MEMLAT: OVERLAP plus a latency term for irregular input-vector
//           accesses — the failure mode the paper diagnoses on matrices
//           #12/#14/#15/#28.
//   predict_multicore: shared-bandwidth multicore adaptation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/core/working_set.hpp"
#include "src/kernels/layout.hpp"
#include "src/profile/machine_profile.hpp"

namespace bspmv {

enum class ModelKind { kMem, kMemComp, kOverlap, kMemLat };

const char* model_name(ModelKind kind);

/// Structural irregularity of the input-vector access stream, the extra
/// input of the MEMLAT model (computed once per matrix).
struct IrregularityStats {
  /// Estimated x-vector cache-line fetches that the stride prefetchers
  /// cannot cover (non-sequential line jumps within a row).
  std::size_t irregular_lines = 0;
  /// Size of the input vector in bytes: an irregular access only pays a
  /// memory-latency penalty when x does not fit in the private cache, so
  /// the MEMLAT correction is gated by the fraction of x beyond it.
  std::size_t x_bytes = 0;
  /// Total nonzeros (normalises irregular_lines into a per-access ratio).
  std::size_t nnz = 0;
};

template <class V>
IrregularityStats irregularity_stats(const Csr<V>& a);

/// Predicted execution time (seconds per SpMV) of `cost` under `model`.
/// MEMLAT requires `irr`; the other models ignore it.
double predict(ModelKind model, const CandidateCost& cost,
               const MachineProfile& profile, Precision prec,
               const IrregularityStats* irr = nullptr);

/// Convenience wrappers for the three paper models.
double predict_mem(const CandidateCost& cost, const MachineProfile& profile);
double predict_memcomp(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec);
double predict_overlap(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec);

/// Multicore extension: computations parallelise across `threads` while
/// the memory streams share the machine's bandwidth.
double predict_multicore(ModelKind model, const CandidateCost& cost,
                         const MachineProfile& profile, Precision prec,
                         int threads);

/// Multi-vector (SpMM) extension of eq. (1)–(3): predicted seconds for
/// ONE multiply of all k right-hand sides (divide by k for the effective
/// per-vector time). The memory term splits cost into matrix traffic
/// (streamed once for row-major; once per vector for col-major unless the
/// matrix fits in the effective LLC) and x/y traffic (always ×k), while
/// every compute term scales ×k. k == 1 equals predict() for either
/// layout. Full derivation in docs/spmm.md.
double predict_spmm(ModelKind model, const CandidateCost& cost,
                    const MachineProfile& profile, Precision prec, int k,
                    Layout layout, const IrregularityStats* irr = nullptr);

/// Smallest k in `ks` (scanned in order) where `blocked` is predicted
/// strictly faster than `csr` at that k for the given layout; 0 when the
/// prediction never crosses within `ks`.
int spmm_crossover_k(ModelKind model, const CandidateCost& blocked,
                     const CandidateCost& csr,
                     const MachineProfile& profile, Precision prec,
                     Layout layout, const std::vector<int>& ks,
                     const IrregularityStats* irr = nullptr);

/// Smallest k in `ks` where row-major is predicted strictly faster than
/// col-major for `cost`; 0 when it never crosses within `ks` (i.e. the
/// matrix is predicted cache-resident throughout).
int spmm_layout_crossover_k(ModelKind model, const CandidateCost& cost,
                            const MachineProfile& profile, Precision prec,
                            const std::vector<int>& ks,
                            const IrregularityStats* irr = nullptr);

// ----------------------------------------------------------------------
// Distributed extension: t_comm = α·msgs + bytes/β
// ----------------------------------------------------------------------
//
// Row-sharded multi-process SpMV (src/dist/, docs/distribution.md)
// exchanges the x-vector halo every iteration. The exchange is either
// serialised before the compute (naive, the "vector mode" of arXiv
// 1106.5908) or run concurrently with the local-columns pass (overlap).
// The models gain a latency/bandwidth communication term and a chooser
// that predicts, per shard plan, which mode wins.

/// Halo-exchange strategy of the distributed runtime.
enum class DistMode { kNaive, kOverlap };

const char* dist_mode_name(DistMode m);
/// Parse "naive" / "overlap"; throws invalid_argument_error otherwise.
DistMode parse_dist_mode(const std::string& s);

/// One rank's model inputs, derived purely from the shard plan
/// (ShardPlan::rank_costs) — no timing required.
struct DistRankCost {
  std::size_t local_ws_bytes = 0;  ///< local-columns submatrix + x/y slices
  std::size_t halo_ws_bytes = 0;   ///< halo-columns submatrix + halo x
  std::size_t bytes_sent = 0;      ///< halo payload bytes out, per iteration
  std::size_t bytes_recv = 0;      ///< halo payload bytes in, per iteration
  int msgs_sent = 0;               ///< halo frames out, per iteration
  int msgs_recv = 0;               ///< halo frames in, per iteration
};

/// Latency/bandwidth cost of moving `bytes` in `msgs` frames between two
/// ranks on this machine: α·msgs + bytes/β, with α/β profiled over the
/// actual socketpair wire path (MachineProfile::comm_*). Throws
/// invalid_argument_error when the profile carries no comm parameters.
double t_comm(const MachineProfile& profile, std::size_t bytes, int msgs);

/// Predicted seconds per distributed SpMV iteration under `mode`: every
/// rank streams its shard at the shared-bandwidth rate (BW divided over
/// the ranks with work, as in predict_multicore), pays its halo traffic,
/// then runs the halo-columns pass; the iteration ends when the slowest
/// rank does.
///
/// The comm term t_comm = α·msgs + bytes/β splits into two physically
/// different costs, and overlap treats them differently:
///   - α·msgs is *blocking* time (waiting for peers / the kernel): the
///     CPU is free, so overlap always hides it under the local pass;
///   - bytes/β is *streaming* time (the socketpair memcpy): it needs CPU
///     cycles, so it only hides when spare cores exist beyond the ranks
///     (`cores > active`). On an oversubscribed node the copy instead
///     interleaves with the compute, stealing its cycles and evicting
///     its working set — overlap then pays the copy at a thrash penalty
///     while naive pays it once, serially, with no interference.
/// `cores` is the node's hardware concurrency; 0 means "ask the OS".
double predict_distributed(const MachineProfile& profile,
                           std::span<const DistRankCost> ranks,
                           DistMode mode, int cores = 0);

/// The selector's overlap-vs-naive choice for a shard plan: strictly
/// faster predicted overlap wins, otherwise naive (its serialised
/// exchange is the simpler machinery). The split comm model makes the
/// sign meaningful even for close calls — latency-dominated exchanges
/// favour overlap by ~α·msgs, bandwidth-dominated ones favour naive by
/// the unhidden copy penalty.
DistMode choose_dist_mode(const MachineProfile& profile,
                          std::span<const DistRankCost> ranks,
                          int cores = 0);

// ----------------------------------------------------------------------
// Recovery extension: expected cost of surviving rank failure
// ----------------------------------------------------------------------
//
// The supervised distributed driver (docs/distribution.md "Failure modes
// and recovery") checkpoints the x-vector every `interval` iterations
// and, on a rank failure, respawns the rank, re-ships its shard and
// retries from the last round boundary. These models price that
// machinery so the checkpoint cadence is a Young/Daly choice rather
// than a guess, and so "keep retrying" vs "degrade to single-node" is a
// decidable comparison instead of a hard-coded K.

/// Seconds to write one checkpoint: an fsync'd atomic-rename file of
/// `x_bytes` (the x snapshot plus its CRC trailer), costed as a fixed
/// fsync latency plus ~3 memory/disk passes over the payload at the
/// profiled stream bandwidth. Throws invalid_argument_error when the
/// profile carries no bandwidth.
double dist_checkpoint_seconds(const MachineProfile& profile,
                               std::size_t x_bytes);

/// Seconds to bring a dead rank back: fork/exec-free respawn (a fixed
/// spawn latency), the shard re-ship (one t_comm transfer of
/// `shard_bytes`), and the survivor rewiring handshake (two zero-byte
/// control round-trips per surviving peer).
double dist_restart_seconds(const MachineProfile& profile,
                            std::size_t shard_bytes, int peers);

/// Young's optimal checkpoint interval, in iterations: round(
/// sqrt(2 · C · MTBF) / t_iter ), clamped to >= 1. `t_iter` is the
/// predicted per-iteration time (predict_distributed), `ckpt_seconds`
/// the per-checkpoint cost, `mtbf_seconds` the assumed mean time
/// between rank failures. Returns 0 when any input is non-positive —
/// "no model choice"; the caller keeps its default cadence.
int dist_checkpoint_interval(double t_iter_seconds, double ckpt_seconds,
                             double mtbf_seconds);

/// Expected fractional overhead (>= 0) the recovery machinery adds to a
/// run at the given cadence: checkpoint cost amortised per iteration
/// plus the failure-rate-weighted cost of the rework (half a round on
/// average) and the restart itself, normalised by t_iter. Lets callers
/// compare cadences or report the modelled recovery tax.
double dist_recovery_overhead(double t_iter_seconds, double ckpt_seconds,
                              double restart_seconds, double mtbf_seconds,
                              int interval);

/// The degradation decision: true when finishing the remaining
/// iterations on a single node is expected to beat continuing the
/// failure-prone distributed run. The distributed side pays an expected
/// (remaining·t_dist/MTBF) restarts of `restart_seconds` each on top of
/// the compute; mtbf <= 0 means "failures keep happening" and always
/// degrades.
bool dist_degradation_beats_retry(double t_dist_iter_seconds,
                                  double t_single_iter_seconds,
                                  double restart_seconds,
                                  double mtbf_seconds, int remaining);

#define BSPMV_DECL(V) \
  extern template IrregularityStats irregularity_stats(const Csr<V>&);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
