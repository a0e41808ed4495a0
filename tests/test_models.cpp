// Performance-model tests: eq. (1)-(3) arithmetic against hand-computed
// values, model orderings, the MEMLAT extension and the multicore
// adaptation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/models.hpp"
#include "src/core/selector.hpp"
#include "src/core/working_set.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::synthetic_profile;

CandidateCost hand_cost() {
  CandidateCost cost;
  cost.candidate = Candidate{FormatKind::kBcsrDec, BlockShape{2, 2}, 0,
                             Impl::kScalar};
  cost.parts.push_back(CostPart{"bcsr_2x2_scalar", 1000000, 5000});
  cost.parts.push_back(CostPart{"csr_scalar", 200000, 3000});
  return cost;
}

TEST(Models, MemMatchesEquationOne) {
  const MachineProfile p = synthetic_profile(/*bw=*/1e9);
  // t = ws / BW = 1.2e6 / 1e9
  EXPECT_DOUBLE_EQ(predict_mem(hand_cost(), p), 1.2e-3);
}

TEST(Models, MemCompMatchesEquationTwo) {
  const MachineProfile p = synthetic_profile(1e9, /*tb=*/2e-9, /*nof=*/0.25);
  // t = sum(ws_i/BW + nb_i*tb) = 1.2e-3 + (5000+3000)*2e-9
  EXPECT_DOUBLE_EQ(predict_memcomp(hand_cost(), p, Precision::kDouble),
                   1.2e-3 + 8000 * 2e-9);
}

TEST(Models, OverlapMatchesEquationThree) {
  const MachineProfile p = synthetic_profile(1e9, 2e-9, 0.25);
  EXPECT_DOUBLE_EQ(predict_overlap(hand_cost(), p, Precision::kDouble),
                   1.2e-3 + 0.25 * 8000 * 2e-9);
}

TEST(Models, OrderingMemLeqOverlapLeqMemcomp) {
  // With nof in [0,1]: MEM <= OVERLAP <= MEMCOMP for any cost — MEM is the
  // paper's performance upper bound, MEMCOMP its lower bound (Fig. 3).
  const MachineProfile p = synthetic_profile(5e9, 3e-9, 0.4);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(80, 80, 3, 0.3, 0.8, 1));
  for (const auto& cost : all_candidate_costs(a, model_candidates(true))) {
    const double mem = predict_mem(cost, p);
    const double ovl = predict_overlap(cost, p, Precision::kDouble);
    const double mc = predict_memcomp(cost, p, Precision::kDouble);
    EXPECT_LE(mem, ovl + 1e-18) << cost.candidate.id();
    EXPECT_LE(ovl, mc + 1e-18) << cost.candidate.id();
  }
}

TEST(Models, PredictDispatchesAllKinds) {
  const MachineProfile p = synthetic_profile();
  const CandidateCost cost = hand_cost();
  const IrregularityStats irr{1000, 1ull << 30, 2000};  // x >> cache
  EXPECT_DOUBLE_EQ(predict(ModelKind::kMem, cost, p, Precision::kDouble),
                   predict_mem(cost, p));
  EXPECT_DOUBLE_EQ(predict(ModelKind::kMemComp, cost, p, Precision::kDouble),
                   predict_memcomp(cost, p, Precision::kDouble));
  EXPECT_DOUBLE_EQ(predict(ModelKind::kOverlap, cost, p, Precision::kDouble),
                   predict_overlap(cost, p, Precision::kDouble));
  EXPECT_GT(predict(ModelKind::kMemLat, cost, p, Precision::kDouble, &irr),
            predict_overlap(cost, p, Precision::kDouble));
  EXPECT_THROW(predict(ModelKind::kMemLat, cost, p, Precision::kDouble),
               invalid_argument_error);
}

TEST(Models, MissingKernelProfileThrows) {
  MachineProfile p;
  p.bandwidth_bps = 1e9;
  const CandidateCost cost = hand_cost();
  EXPECT_NO_THROW(predict_mem(cost, p));  // MEM needs no kernel profile
  EXPECT_THROW(predict_memcomp(cost, p, Precision::kDouble),
               invalid_argument_error);
}

TEST(Models, MissingBandwidthThrows) {
  const MachineProfile p;  // bandwidth 0
  EXPECT_THROW(predict_mem(hand_cost(), p), invalid_argument_error);
}

TEST(Models, IrregularityDetectsScatteredColumns) {
  // Sequential row: one irregular line at the start of each row only.
  Coo<double> seq(4, 512);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 64; ++j) seq.add(i, j, 1.0);
  const auto irr_seq = irregularity_stats(Csr<double>::from_coo(seq));
  // 8 doubles per line -> 64 cols = 8 lines walked sequentially; only the
  // first access of each row is a non-sequential jump.
  EXPECT_EQ(irr_seq.irregular_lines, 4u);

  // Scattered row: every access far apart -> every access irregular.
  Coo<double> scat(1, 512);
  for (index_t j = 0; j < 512; j += 32) scat.add(0, j, 1.0);
  const auto irr_scat = irregularity_stats(Csr<double>::from_coo(scat));
  EXPECT_EQ(irr_scat.irregular_lines, 16u);
}

TEST(Models, MemLatPenalisesIrregularMatrices) {
  const MachineProfile p = synthetic_profile();
  const CandidateCost cost = hand_cost();
  const IrregularityStats low{10, 1ull << 30, 100000};
  const IrregularityStats high{100000, 1ull << 30, 100000};
  EXPECT_LT(predict(ModelKind::kMemLat, cost, p, Precision::kDouble, &low),
            predict(ModelKind::kMemLat, cost, p, Precision::kDouble, &high));
}

TEST(Models, MulticoreShrinksComputeOnly) {
  const MachineProfile p = synthetic_profile(1e9, 5e-9, 0.5);
  const CandidateCost cost = hand_cost();
  const double t1 =
      predict_multicore(ModelKind::kOverlap, cost, p, Precision::kDouble, 1);
  const double t4 =
      predict_multicore(ModelKind::kOverlap, cost, p, Precision::kDouble, 4);
  EXPECT_DOUBLE_EQ(t1, predict_overlap(cost, p, Precision::kDouble));
  EXPECT_LT(t4, t1);
  // The memory term is the floor:
  EXPECT_GE(t4, predict_mem(cost, p));
  // MEM is thread-count invariant.
  EXPECT_DOUBLE_EQ(
      predict_multicore(ModelKind::kMem, cost, p, Precision::kDouble, 4),
      predict_mem(cost, p));
}

// ------------------------------------------------------- selection ----

TEST(Selector, RanksDeterministicallyAndSorted) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(70, 70, 2, 0.4, 0.9, 2));
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p);
  ASSERT_EQ(ranked.size(), model_candidates(true).size());
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
  const auto again = rank_candidates(ModelKind::kOverlap, a, p);
  for (std::size_t i = 0; i < ranked.size(); ++i)
    EXPECT_EQ(ranked[i].candidate.id(), again[i].candidate.id());
}

TEST(Selector, MemModelRanksScalarOnly) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(50, 50, 2, 0.3, 0.9, 3));
  for (const auto& r : rank_candidates(ModelKind::kMem, a, p))
    EXPECT_EQ(r.candidate.impl, Impl::kScalar) << r.candidate.id();
}

TEST(Selector, PicksBlockedFormatOnPerfectlyBlockyMatrix) {
  // Under a uniform synthetic kernel profile, the ws-dominant term decides
  // — on a fully-blocky matrix a blocked format must beat CSR.
  const MachineProfile p = synthetic_profile(1e9, 1e-12, 0.0);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(96, 96, 4, 0.5, 1.01, 4));
  const auto best = select_best(ModelKind::kOverlap, a, p);
  EXPECT_NE(best.candidate.kind, FormatKind::kCsr) << best.candidate.id();
  EXPECT_GT(best.predicted_seconds, 0.0);
}

// ------------------------------------------------ k-aware selection ----

TEST(Selector, WorkloadDefaultMatchesPlainRanking) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 60, 2, 0.4, 0.9, 7));
  const auto plain = rank_candidates(ModelKind::kOverlap, a, p);
  const auto wl = rank_candidates(ModelKind::kOverlap, a, p, Workload{});
  ASSERT_EQ(plain.size(), wl.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].candidate.id(), wl[i].candidate.id());
    EXPECT_DOUBLE_EQ(plain[i].predicted_seconds, wl[i].predicted_seconds);
  }
}

TEST(Selector, KAwareRankingUsesSpmmPredictions) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 60, 2, 0.4, 0.9, 7));
  const Workload wl{8, Layout::kRowMajor};
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p, wl);
  ASSERT_FALSE(ranked.empty());
  // Every prediction must equal predict_spmm for that candidate — the
  // k-aware path amortises the x/matrix streams over 8 vectors, so the
  // per-multiply times sit below the k=1 predictions.
  const auto costs =
      all_candidate_costs(a, model_candidates(true));
  for (const auto& r : ranked) {
    const auto it = std::find_if(costs.begin(), costs.end(),
                                 [&](const CandidateCost& c) {
                                   return c.candidate.id() == r.candidate.id();
                                 });
    ASSERT_NE(it, costs.end());
    EXPECT_DOUBLE_EQ(r.predicted_seconds,
                     predict_spmm(ModelKind::kOverlap, *it, p,
                                  Precision::kDouble, 8, Layout::kRowMajor,
                                  nullptr));
    EXPECT_LE(r.predicted_seconds / 8,
              predict(ModelKind::kOverlap, *it, p, Precision::kDouble) +
                  1e-15);
  }
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
}

TEST(Selector, KAwareSelectionCanDisagreeWithSingleVector) {
  // select_best with a Workload is the same candidate as the front of
  // the k-aware ranking (and a valid candidate either way).
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(80, 80, 4, 0.5, 1.01, 11));
  const Workload wl{16, Layout::kColMajor};
  const auto best = select_best(ModelKind::kOverlap, a, p, wl);
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p, wl);
  EXPECT_EQ(best.candidate.id(), ranked.front().candidate.id());
}

TEST(Selector, RejectsNonPositiveWorkload) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(20, 20, 2, 0.4, 0.9, 13));
  EXPECT_ANY_THROW(
      rank_candidates(ModelKind::kOverlap, a, p, Workload{0}));
}

TEST(Selector, MemCompPenalisesManyBlocks) {
  // Give blocks a huge per-block time: MEMCOMP must fall back to the
  // candidate with the fewest blocks even if ws is larger.
  MachineProfile p = synthetic_profile(1e12, 1e-6, 1.0);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(64, 64, 8, 0.4, 1.01, 5));
  const auto best = select_best(ModelKind::kMemComp, a, p);
  // The fewest-blocks candidate is a large blocked shape, never CSR
  // (nb = nnz) — and never a 1xN shape with tiny blocks.
  EXPECT_NE(best.candidate.kind, FormatKind::kCsr);
}

}  // namespace
}  // namespace bspmv
