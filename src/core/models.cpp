#include "src/core/models.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/util/errors.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMem: return "mem";
    case ModelKind::kMemComp: return "memcomp";
    case ModelKind::kOverlap: return "overlap";
    case ModelKind::kMemLat: return "memlat";
  }
  return "?";
}

template <class V>
IrregularityStats irregularity_stats(const Csr<V>& a) {
  // Count input-vector cache-line switches within a row that are neither
  // the same line nor the next sequential line — the access pattern the
  // stride prefetchers cannot cover (§V-B's latency-bound matrices).
  constexpr index_t kLineElems =
      static_cast<index_t>(kCacheLineBytes / sizeof(V));
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();

  IrregularityStats st;
  st.x_bytes = static_cast<std::size_t>(a.cols()) * sizeof(V);
  st.nnz = a.nnz();
  for (index_t i = 0; i < a.rows(); ++i) {
    index_t prev_line = -2;
    for (index_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t line = col_ind[static_cast<std::size_t>(k)] / kLineElems;
      if (line != prev_line && line != prev_line + 1) ++st.irregular_lines;
      prev_line = line;
    }
  }
  return st;
}

namespace {

// MEMLAT slowdown per unit of (irregular-access ratio × out-of-cache
// fraction of x). A deliberately simple constant: MEMLAT is the paper's
// future-work direction, built as a first-order multiplicative
// correction — latency exposure grows with both how irregular the access
// stream is and how much of x cannot stay cache-resident.
constexpr double kLatencyGamma = 2.0;

double memory_time(const CandidateCost& cost, const MachineProfile& profile) {
  BSPMV_CHECK_MSG(profile.bandwidth_bps > 0,
                  "machine profile has no measured bandwidth");
  return static_cast<double>(cost.total_ws()) / profile.bandwidth_bps;
}

double compute_time(const CandidateCost& cost, const MachineProfile& profile,
                    Precision prec, bool apply_nof) {
  double t = 0.0;
  for (const CostPart& part : cost.parts) {
    const KernelProfile& kp = profile.kernel(prec, part.kernel_id);
    const double factor = apply_nof ? kp.nof : 1.0;
    t += factor * static_cast<double>(part.nb) * kp.tb;
  }
  return t;
}

}  // namespace

double predict_mem(const CandidateCost& cost, const MachineProfile& profile) {
  return memory_time(cost, profile);
}

double predict_memcomp(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec) {
  return memory_time(cost, profile) +
         compute_time(cost, profile, prec, /*apply_nof=*/false);
}

double predict_overlap(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec) {
  return memory_time(cost, profile) +
         compute_time(cost, profile, prec, /*apply_nof=*/true);
}

double predict(ModelKind model, const CandidateCost& cost,
               const MachineProfile& profile, Precision prec,
               const IrregularityStats* irr) {
  switch (model) {
    case ModelKind::kMem:
      return predict_mem(cost, profile);
    case ModelKind::kMemComp:
      return predict_memcomp(cost, profile, prec);
    case ModelKind::kOverlap:
      return predict_overlap(cost, profile, prec);
    case ModelKind::kMemLat: {
      BSPMV_CHECK_MSG(irr != nullptr,
                      "MEMLAT model needs irregularity statistics");
      // Irregular accesses cost extra only when x cannot stay resident in
      // the private cache; the slowdown scales with the fraction of
      // accesses that are irregular and the fraction of x beyond cache.
      const double xb = static_cast<double>(irr->x_bytes);
      const double miss_fraction =
          xb > profile.private_cache_bytes
              ? 1.0 - profile.private_cache_bytes / xb
              : 0.0;
      const double ratio =
          irr->nnz == 0 ? 0.0
                        : static_cast<double>(irr->irregular_lines) /
                              static_cast<double>(irr->nnz);
      return predict_overlap(cost, profile, prec) *
             (1.0 + kLatencyGamma * ratio * miss_fraction);
    }
  }
  BSPMV_CHECK_MSG(false, "unknown model");
  return 0.0;
}

namespace {

/// The MEMLAT multiplicative correction factor (1.0 for other models).
double latency_factor(ModelKind model, const MachineProfile& profile,
                      const IrregularityStats* irr) {
  if (model != ModelKind::kMemLat) return 1.0;
  BSPMV_CHECK_MSG(irr != nullptr,
                  "MEMLAT model needs irregularity statistics");
  const double xb = static_cast<double>(irr->x_bytes);
  const double miss_fraction = xb > profile.private_cache_bytes
                                   ? 1.0 - profile.private_cache_bytes / xb
                                   : 0.0;
  const double ratio = irr->nnz == 0
                           ? 0.0
                           : static_cast<double>(irr->irregular_lines) /
                                 static_cast<double>(irr->nnz);
  return 1.0 + kLatencyGamma * ratio * miss_fraction;
}

}  // namespace

double predict_spmm(ModelKind model, const CandidateCost& cost,
                    const MachineProfile& profile, Precision prec, int k,
                    Layout layout, const IrregularityStats* irr) {
  BSPMV_CHECK(k >= 1);
  BSPMV_CHECK_MSG(profile.bandwidth_bps > 0,
                  "machine profile has no measured bandwidth");
  const double kd = static_cast<double>(k);
  const double xy = static_cast<double>(cost.xy_bytes);
  const double matrix = static_cast<double>(cost.matrix_ws());

  // Matrix traffic: row-major streams the arrays once for all k vectors;
  // col-major re-streams them per vector unless they are predicted to
  // stay LLC-resident after the first pass.
  double matrix_streams = 1.0;
  if (layout == Layout::kColMajor && k > 1 &&
      matrix > profile.effective_llc_bytes)
    matrix_streams = kd;
  const double t_mem =
      (matrix * matrix_streams + kd * xy) / profile.bandwidth_bps;

  // Every block is multiplied against k right-hand sides.
  double t_comp = 0.0;
  switch (model) {
    case ModelKind::kMem:
      break;
    case ModelKind::kMemComp:
      t_comp = kd * compute_time(cost, profile, prec, /*apply_nof=*/false);
      break;
    case ModelKind::kOverlap:
    case ModelKind::kMemLat:
      t_comp = kd * compute_time(cost, profile, prec, /*apply_nof=*/true);
      break;
  }
  // First-order: the latency exposure of irregular x accesses carries
  // over per vector touched, so the correction stays multiplicative.
  return (t_mem + t_comp) * latency_factor(model, profile, irr);
}

int spmm_crossover_k(ModelKind model, const CandidateCost& blocked,
                     const CandidateCost& csr,
                     const MachineProfile& profile, Precision prec,
                     Layout layout, const std::vector<int>& ks,
                     const IrregularityStats* irr) {
  for (int k : ks) {
    const double tb =
        predict_spmm(model, blocked, profile, prec, k, layout, irr);
    const double tc = predict_spmm(model, csr, profile, prec, k, layout, irr);
    if (tb < tc) return k;
  }
  return 0;
}

int spmm_layout_crossover_k(ModelKind model, const CandidateCost& cost,
                            const MachineProfile& profile, Precision prec,
                            const std::vector<int>& ks,
                            const IrregularityStats* irr) {
  for (int k : ks) {
    const double tr = predict_spmm(model, cost, profile, prec, k,
                                   Layout::kRowMajor, irr);
    const double tc = predict_spmm(model, cost, profile, prec, k,
                                   Layout::kColMajor, irr);
    if (tr < tc) return k;
  }
  return 0;
}

double predict_multicore(ModelKind model, const CandidateCost& cost,
                         const MachineProfile& profile, Precision prec,
                         int threads) {
  BSPMV_CHECK(threads >= 1);
  // Memory streams share the machine bandwidth, computations parallelise.
  const double t_mem = memory_time(cost, profile);
  switch (model) {
    case ModelKind::kMem:
      return t_mem;
    case ModelKind::kMemComp:
      return t_mem + compute_time(cost, profile, prec, false) / threads;
    case ModelKind::kOverlap:
    case ModelKind::kMemLat:
      return t_mem + compute_time(cost, profile, prec, true) / threads;
  }
  BSPMV_CHECK_MSG(false, "unknown model");
  return 0.0;
}

// ----------------------------------------------------------------------
// Distributed extension
// ----------------------------------------------------------------------

const char* dist_mode_name(DistMode m) {
  return m == DistMode::kNaive ? "naive" : "overlap";
}

DistMode parse_dist_mode(const std::string& s) {
  if (s == "naive") return DistMode::kNaive;
  if (s == "overlap") return DistMode::kOverlap;
  throw invalid_argument_error("unknown dist mode '" + s +
                               "' (expected 'naive' or 'overlap')");
}

double t_comm(const MachineProfile& profile, std::size_t bytes, int msgs) {
  if (profile.comm_beta_bps <= 0.0)
    throw invalid_argument_error(
        "machine profile carries no comm parameters (comm_beta_bps == 0); "
        "profile α/β first (profile_comm)");
  return profile.comm_alpha_seconds * msgs +
         static_cast<double>(bytes) / profile.comm_beta_bps;
}

namespace {

/// Cycle-stealing penalty on the wire-streaming (memcpy) part of the
/// exchange when it cannot run on a spare core: interleaving the copy
/// with the local-columns pass evicts the compute working set, so each
/// copied byte effectively crosses the memory system twice.
constexpr double kOversubscribedCopyPenalty = 2.0;

int resolve_cores(int cores) {
  if (cores > 0) return cores;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

double predict_distributed(const MachineProfile& profile,
                           std::span<const DistRankCost> ranks,
                           DistMode mode, int cores) {
  // The ranks' memory streams share the node's bandwidth, like the
  // threads of predict_multicore: each active rank sees BW / active.
  int active = 0;
  for (const auto& r : ranks)
    if (r.local_ws_bytes + r.halo_ws_bytes > 0) ++active;
  if (active == 0) return 0.0;
  const double bw = profile.bandwidth_bps / active;
  // Spare cores beyond the compute ranks are what lets the exchange
  // threads actually stream bytes while the local pass runs; without
  // them the copy steals compute cycles instead (see models.hpp).
  const bool spare_cores = resolve_cores(cores) > active;

  double worst = 0.0;
  for (const auto& r : ranks) {
    const double t_local = static_cast<double>(r.local_ws_bytes) / bw;
    const double t_halo = static_cast<double>(r.halo_ws_bytes) / bw;
    const int msgs = r.msgs_sent + r.msgs_recv;
    double t = t_local + t_halo;
    if (msgs > 0) {
      if (profile.comm_beta_bps <= 0.0)  // same guard as t_comm
        (void)t_comm(profile, 0, 0);
      const double t_block = profile.comm_alpha_seconds * msgs;
      const double t_stream =
          static_cast<double>(r.bytes_sent + r.bytes_recv) /
          profile.comm_beta_bps;
      if (mode == DistMode::kNaive) {
        // Exchange completes before any compute starts: the rank pays
        // the full wire cost serially, with no interference.
        t = t_block + t_stream + t_local + t_halo;
      } else if (spare_cores) {
        // The exchange threads run on their own cores: the whole wire
        // cost hides under the local-columns pass.
        t = std::max(t_block + t_stream, t_local) + t_halo;
      } else {
        // Oversubscribed: blocking time still hides (the CPU computes
        // while waiting on peers), but the copy interleaves with the
        // compute at a thrash penalty.
        t = std::max(t_block, t_local) +
            kOversubscribedCopyPenalty * t_stream + t_halo;
      }
    }
    worst = std::max(worst, t);
  }
  return worst;
}

DistMode choose_dist_mode(const MachineProfile& profile,
                          std::span<const DistRankCost> ranks, int cores) {
  const double naive =
      predict_distributed(profile, ranks, DistMode::kNaive, cores);
  const double overlap =
      predict_distributed(profile, ranks, DistMode::kOverlap, cores);
  // Strictly-faster wins; a dead heat keeps the serialised exchange. No
  // noise margin here: the split comm model already separates the modes
  // by physically real terms (hidden α·msgs vs the unhidden copy), so
  // the sign of a small predicted gap is informative, not jitter.
  return overlap < naive ? DistMode::kOverlap : DistMode::kNaive;
}

namespace {
/// Fixed latencies of the recovery machinery, measured once on the dev
/// box and deliberately coarse: they only matter relative to MTBF and
/// t_iter, which differ from them by orders of magnitude.
constexpr double kFsyncSeconds = 2e-3;   ///< atomic_write_file fsync+rename
constexpr double kSpawnSeconds = 5e-3;   ///< fork + shard decode + split
}  // namespace

double dist_checkpoint_seconds(const MachineProfile& profile,
                               std::size_t x_bytes) {
  if (profile.bandwidth_bps <= 0.0)
    throw invalid_argument_error(
        "checkpoint model needs a profiled stream bandwidth");
  // Serialize, CRC, and write-through: ~3 passes over the payload.
  return kFsyncSeconds +
         3.0 * static_cast<double>(x_bytes) / profile.bandwidth_bps;
}

double dist_restart_seconds(const MachineProfile& profile,
                            std::size_t shard_bytes, int peers) {
  if (peers < 0) peers = 0;
  return kSpawnSeconds + t_comm(profile, shard_bytes, 1) +
         t_comm(profile, 0, 2 * peers);
}

int dist_checkpoint_interval(double t_iter_seconds, double ckpt_seconds,
                             double mtbf_seconds) {
  if (t_iter_seconds <= 0.0 || ckpt_seconds <= 0.0 || mtbf_seconds <= 0.0)
    return 0;
  // Young's first-order optimum: checkpoint every sqrt(2·C·M) seconds.
  const double t_opt = std::sqrt(2.0 * ckpt_seconds * mtbf_seconds);
  const int iters = static_cast<int>(std::lround(t_opt / t_iter_seconds));
  return std::max(1, iters);
}

double dist_recovery_overhead(double t_iter_seconds, double ckpt_seconds,
                              double restart_seconds, double mtbf_seconds,
                              int interval) {
  if (t_iter_seconds <= 0.0 || interval < 1) return 0.0;
  // Checkpoint tax, amortised over the round.
  double overhead = ckpt_seconds / (interval * t_iter_seconds);
  if (mtbf_seconds > 0.0) {
    // Failures arrive at rate 1/MTBF; each costs the restart plus, on
    // average, half a round of redone iterations.
    const double failure_rate = t_iter_seconds / mtbf_seconds;
    overhead += failure_rate *
                (interval * t_iter_seconds / 2.0 + restart_seconds) /
                t_iter_seconds;
  }
  return overhead;
}

bool dist_degradation_beats_retry(double t_dist_iter_seconds,
                                  double t_single_iter_seconds,
                                  double restart_seconds,
                                  double mtbf_seconds, int remaining) {
  if (remaining <= 0) return false;
  if (mtbf_seconds <= 0.0) return true;  // failures never stop coming
  const double t_single = remaining * t_single_iter_seconds;
  const double compute = remaining * t_dist_iter_seconds;
  const double expected_failures = compute / mtbf_seconds;
  const double t_dist = compute + expected_failures * restart_seconds;
  return t_single < t_dist;
}

template IrregularityStats irregularity_stats(const Csr<float>&);
template IrregularityStats irregularity_stats(const Csr<double>&);

}  // namespace bspmv
