// Distributed SpMV: shard-plan invariants, the HaloDec column split
// against the generic drivers, multi-process parity (bitwise vs the
// same decomposition in-process, tolerance vs serial CSR), the overlap
// and naive exchange modes, wire-decoder fuzzing, rank-kill fault
// injection and the communication model/benchmark.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/core/models.hpp"
#include "src/dist/comm.hpp"
#include "src/dist/driver.hpp"
#include "src/dist/halo_format.hpp"
#include "src/dist/messages.hpp"
#include "src/dist/shard_plan.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/profile/machine_profile.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using dist::DistOptions;
using dist::DistSpmv;
using dist::HaloDec;
using dist::RankShard;
using dist::ShardPlan;
using dist::plan_shards;
using testing::expect_typed_errors_only;
using testing::expect_vectors_near;
using testing::random_coo;
using testing::random_x;

Csr<double> test_matrix(index_t n, index_t m, double density,
                        std::uint64_t seed) {
  return Csr<double>::from_coo(random_coo<double>(n, m, density, seed));
}

/// A matrix with strongly skewed row density: the top rows are much
/// denser, so nnz-balanced shards get very different row counts.
Csr<double> skewed_matrix(index_t n, std::uint64_t seed) {
  Coo<double> coo(n, n);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < n; ++i) {
    const double density = i < n / 8 ? 0.5 : 0.02;
    for (index_t j = 0; j < n; ++j)
      if (rng.uniform() < density)
        coo.add(i, j, 0.1 + rng.uniform());
  }
  return Csr<double>::from_coo(std::move(coo));
}

// ---------------------------------------------------------------------
// Shard plan structure.

TEST(ShardPlan, BoundsCoverAndHaloMirrorsSendLists) {
  const Csr<double> a = test_matrix(60, 60, 0.08, 42);
  for (int ranks : {1, 2, 3, 4}) {
    const ShardPlan plan = plan_shards(a, ranks);
    ASSERT_EQ(plan.ranks, ranks);
    ASSERT_EQ(static_cast<int>(plan.shards.size()), ranks);
    ASSERT_EQ(plan.row_bounds.front(), 0);
    ASSERT_EQ(plan.row_bounds.back(), a.rows());
    ASSERT_EQ(plan.x_bounds.back(), a.cols());

    std::size_t nnz_total = 0;
    for (int r = 0; r < ranks; ++r) {
      const RankShard& sh = plan.shards[static_cast<std::size_t>(r)];
      EXPECT_LE(sh.row_begin, sh.row_end);
      EXPECT_LE(sh.x_begin, sh.x_end);
      EXPECT_EQ(sh.local_nnz + sh.halo_nnz, sh.nnz);
      nnz_total += sh.nnz;
      // Halo columns are sorted, outside the owned range, and segmented
      // consistently with the owning ranks' x bounds.
      ASSERT_EQ(sh.halo_seg.size(), static_cast<std::size_t>(ranks) + 1);
      ASSERT_EQ(sh.halo_seg.back(),
                static_cast<index_t>(sh.halo_cols.size()));
      for (std::size_t k = 0; k < sh.halo_cols.size(); ++k) {
        const index_t c = sh.halo_cols[k];
        EXPECT_TRUE(c < sh.x_begin || c >= sh.x_end);
        if (k) {
          EXPECT_LT(sh.halo_cols[k - 1], c);
        }
      }
      for (int p = 0; p < ranks; ++p) {
        const index_t s0 = sh.halo_seg[static_cast<std::size_t>(p)];
        const index_t s1 = sh.halo_seg[static_cast<std::size_t>(p) + 1];
        for (index_t k = s0; k < s1; ++k) {
          const index_t c = sh.halo_cols[static_cast<std::size_t>(k)];
          EXPECT_GE(c, plan.x_bounds[static_cast<std::size_t>(p)]);
          EXPECT_LT(c, plan.x_bounds[static_cast<std::size_t>(p) + 1]);
        }
      }
    }
    EXPECT_EQ(nnz_total, a.nnz());

    // Mirror symmetry: what r receives from p is exactly what p sends
    // to r, in the same order, translated between index spaces.
    for (int r = 0; r < ranks; ++r) {
      const RankShard& dst = plan.shards[static_cast<std::size_t>(r)];
      for (int p = 0; p < ranks; ++p) {
        if (p == r) continue;
        const RankShard& src = plan.shards[static_cast<std::size_t>(p)];
        const index_t s0 = dst.halo_seg[static_cast<std::size_t>(p)];
        const index_t s1 = dst.halo_seg[static_cast<std::size_t>(p) + 1];
        const auto& send = src.send_cols[static_cast<std::size_t>(r)];
        ASSERT_EQ(static_cast<index_t>(send.size()), s1 - s0);
        for (index_t k = 0; k < s1 - s0; ++k)
          EXPECT_EQ(send[static_cast<std::size_t>(k)] + src.x_begin,
                    dst.halo_cols[static_cast<std::size_t>(s0 + k)]);
      }
    }
  }
}

TEST(ShardPlan, RankCountIsValidated) {
  const Csr<double> a = test_matrix(8, 8, 0.3, 1);
  EXPECT_THROW(plan_shards(a, 0), invalid_argument_error);
  EXPECT_THROW(plan_shards(a, -2), invalid_argument_error);
  EXPECT_THROW(plan_shards(a, dist::kMaxRanks + 1), invalid_argument_error);
}

// ---------------------------------------------------------------------
// HaloDec through the generic drivers.

TEST(HaloDecFormat, SplitMatchesSerialCsr) {
  const Csr<double> a = test_matrix(40, 40, 0.12, 7);
  const auto x = random_x<double>(a.cols(), 11);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());

  // Split at an interior owned range; the shard view of x is
  // [owned slice | halo values in halo_cols order].
  const index_t xb = 10, xe = 25;
  const HaloDec<double> h = HaloDec<double>::split(a, 0, a.rows(), xb, xe);
  aligned_vector<double> xs;
  for (index_t c = xb; c < xe; ++c) xs.push_back(x[c]);
  for (index_t c : h.halo_cols()) xs.push_back(x[c]);
  ASSERT_EQ(static_cast<index_t>(xs.size()), h.cols());

  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(h, xs.data(), y.data());
  expect_vectors_near(y.data(), yref.data(), a.rows(), "halo_dec split");
}

TEST(HaloDecFormat, GenericThreadedDriverAgrees) {
  const Csr<double> a = test_matrix(64, 64, 0.1, 3);
  const auto x = random_x<double>(a.cols(), 5);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());

  const Candidate c{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const HaloDec<double> h = FormatOps<HaloDec<double>>::convert(a, c);
  EXPECT_EQ(h.halo_count(), 0);  // whole-local single-process view

  aligned_vector<double> ys(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(h, x.data(), ys.data());
  for (index_t i = 0; i < a.rows(); ++i)
    EXPECT_EQ(ys[static_cast<std::size_t>(i)],
              yref[static_cast<std::size_t>(i)]);  // bitwise: same kernel

  for (int threads : {2, 4}) {
    aligned_vector<double> yp(static_cast<std::size_t>(a.rows()), 1.0);
    ThreadedSpmv<HaloDec<double>>(h, threads).run(x.data(), yp.data());
    expect_vectors_near(yp.data(), yref.data(), a.rows(), "threaded halo_dec");
  }
}

// ---------------------------------------------------------------------
// Multi-process parity.

/// Reference for one rank, same decomposition and same passes the
/// forked rank runs (serial local pass, then serial halo pass), so the
/// comparison is bitwise.
aligned_vector<double> rank_reference(const Csr<double>& a,
                                      const RankShard& sh,
                                      const aligned_vector<double>& x,
                                      Impl impl) {
  const HaloDec<double> h = HaloDec<double>::split(a, sh.row_begin,
                                                   sh.row_end, sh.x_begin,
                                                   sh.x_end);
  aligned_vector<double> xs;
  for (index_t c = sh.x_begin; c < sh.x_end; ++c)
    xs.push_back(x[static_cast<std::size_t>(c)]);
  for (index_t c : h.halo_cols()) xs.push_back(x[static_cast<std::size_t>(c)]);

  aligned_vector<double> y(static_cast<std::size_t>(h.rows()), 0.0);
  FormatOps<Csr<double>>::spmv_add(h.local(), xs.data(), y.data(), impl);
  FormatOps<Csr<double>>::spmv_add(h.halo(), xs.data() + h.local_cols(),
                                   y.data(), impl);
  return y;
}

void check_dist_parity(const Csr<double>& a, int ranks, Impl impl,
                       int iterations, double timeout_seconds = 30.0) {
  const auto x = random_x<double>(a.cols(), 23);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());

  DistOptions opt;
  opt.ranks = ranks;
  opt.impl = impl;
  opt.timeout_seconds = timeout_seconds;
  DistSpmv d(a, opt);

  aligned_vector<double> y_overlap(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y_overlap.data(), iterations);
  ASSERT_EQ(d.last_stats().size(), static_cast<std::size_t>(ranks));

  d.set_mode(DistMode::kNaive);
  aligned_vector<double> y_naive(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y_naive.data(), iterations);

  // Both modes run the identical compute sequence — bitwise equal.
  for (index_t i = 0; i < a.rows(); ++i)
    ASSERT_EQ(y_overlap[static_cast<std::size_t>(i)],
              y_naive[static_cast<std::size_t>(i)])
        << "overlap/naive diverge at row " << i;

  // Bitwise vs the same decomposition executed in this process.
  for (int r = 0; r < ranks; ++r) {
    const RankShard& sh = d.plan().shards[static_cast<std::size_t>(r)];
    const auto yr = rank_reference(a, sh, x, impl);
    for (index_t i = 0; i < sh.rows(); ++i)
      ASSERT_EQ(y_overlap[static_cast<std::size_t>(sh.row_begin + i)],
                yr[static_cast<std::size_t>(i)])
          << "rank " << r << " row " << i << " (ranks=" << ranks << ")";
  }

  // Tolerance vs plain serial CSR (the column split reorders sums).
  expect_vectors_near(y_overlap.data(), yref.data(), a.rows(),
                      "dist vs serial");
}

TEST(DistSpmv, MatchesSingleProcessAcrossRanksAndImpls) {
  const Csr<double> a = test_matrix(96, 96, 0.08, 9);
  for (int ranks : {1, 2, 4}) check_dist_parity(a, ranks, Impl::kScalar, 3);
  check_dist_parity(a, 4, Impl::kSimd, 2);
}

TEST(DistSpmv, SkewedAndRectangularMatrices) {
  check_dist_parity(skewed_matrix(80, 17), 4, Impl::kScalar, 2);
  check_dist_parity(test_matrix(70, 40, 0.1, 31), 3, Impl::kScalar, 2);
}

TEST(DistSpmv, SerialLocalPassWhenThreadsZero) {
  // Every rank runs its local pass serially on its own thread
  // (DistOptions::threads_per_rank is fixed at 1).
  check_dist_parity(test_matrix(50, 50, 0.1, 13), 2, Impl::kScalar, 2);
}

TEST(DistSpmv, RanksForkedAfterOpenMPRegion) {
  // Start libgomp's thread pool in this process first, the order
  // `mtx_tool report` runs in (threaded timing, then the dist section).
  // A rank that ran its local pass through OpenMP would hang in the
  // forked child; the short wire timeout turns that into a typed failure.
  const Csr<double> a = test_matrix(96, 96, 0.08, 41);
  const auto x = random_x<double>(a.cols(), 42);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  ThreadedSpmv<Csr<double>>(a, 4).run(x.data(), y.data());

  check_dist_parity(a, 2, Impl::kScalar, 2, /*timeout_seconds=*/5.0);
}

TEST(DistSpmv, StatsAccountForHaloTraffic) {
  const Csr<double> a = test_matrix(64, 64, 0.15, 19);
  DistOptions opt;
  opt.ranks = 4;
  DistSpmv d(a, opt);
  const auto x = random_x<double>(a.cols(), 3);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const int iters = 3;
  d.run(x.data(), y.data(), iters);

  const auto costs = d.rank_costs();
  for (int r = 0; r < opt.ranks; ++r) {
    const auto& st = d.last_stats()[static_cast<std::size_t>(r)];
    const auto& c = costs[static_cast<std::size_t>(r)];
    EXPECT_EQ(st.iterations, static_cast<std::uint32_t>(iters));
    EXPECT_EQ(st.msgs_sent,
              static_cast<std::uint64_t>(c.msgs_sent) * iters);
    EXPECT_EQ(st.msgs_recv,
              static_cast<std::uint64_t>(c.msgs_recv) * iters);
    // Wire bytes include the frame/message headers on top of the raw
    // halo doubles the model counts.
    EXPECT_GE(st.bytes_sent, static_cast<std::uint64_t>(c.bytes_sent) * iters);
    EXPECT_GE(st.bytes_recv, static_cast<std::uint64_t>(c.bytes_recv) * iters);
    EXPECT_GT(st.total_seconds, 0.0);
  }
}

TEST(DistSpmvFault, KilledRankSurfacesTypedError) {
  const Csr<double> a = test_matrix(48, 48, 0.15, 29);
  DistOptions opt;
  opt.ranks = 2;
  opt.timeout_seconds = 10.0;
  DistSpmv d(a, opt);
  const auto x = random_x<double>(a.cols(), 2);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data());  // healthy first

  d.kill_rank(1);
  // The survivor sees EOF mid-exchange (io_error via its kError reply)
  // or the driver reads EOF from the dead rank's control channel.
  EXPECT_THROW(d.run(x.data(), y.data()), error);
}

// ---------------------------------------------------------------------
// Wire decoder fuzzing.

using testing::binary_corruptions;

TEST(DistMessages, CorruptedPayloadsFailTyped) {
  const Csr<double> a = test_matrix(20, 20, 0.2, 77);
  const ShardPlan plan = plan_shards(a, 2);

  dist::ShardMsg shard;
  shard.rank = 0;
  shard.ranks = 2;
  shard.row_begin = plan.shards[0].row_begin;
  shard.row_end = plan.shards[0].row_end;
  shard.x_begin = plan.shards[0].x_begin;
  shard.x_end = plan.shards[0].x_end;
  shard.cols = a.cols();
  shard.halo_seg = plan.shards[0].halo_seg;
  shard.send_cols = plan.shards[0].send_cols;
  const index_t nz1 = a.row_ptr()[shard.row_end];
  shard.row_ptr.assign(a.row_ptr().begin(),
                       a.row_ptr().begin() + shard.row_end + 1);
  shard.col_ind.assign(a.col_ind().begin(), a.col_ind().begin() + nz1);
  shard.val.assign(a.val().begin(), a.val().begin() + nz1);

  dist::RunMsg run;
  run.iterations = 3;
  run.x.assign(static_cast<std::size_t>(shard.x_end - shard.x_begin), 1.5);

  dist::DoneMsg done;
  done.y.assign(static_cast<std::size_t>(shard.rows()), 2.0);
  done.stats.iterations = 3;

  dist::HaloMsg halo;
  halo.from = 1;
  halo.iter = 0;
  halo.x = {1.0, 2.0, 3.0};

  expect_typed_errors_only(binary_corruptions(shard.encode()),
                           [](const std::string& s) { dist::ShardMsg::decode(s); },
                           "ShardMsg");
  expect_typed_errors_only(binary_corruptions(run.encode()),
                           [](const std::string& s) { dist::RunMsg::decode(s); },
                           "RunMsg");
  expect_typed_errors_only(binary_corruptions(done.encode()),
                           [](const std::string& s) { dist::DoneMsg::decode(s); },
                           "DoneMsg");
  expect_typed_errors_only(binary_corruptions(halo.encode()),
                           [](const std::string& s) { dist::HaloMsg::decode(s); },
                           "HaloMsg");
}

TEST(DistMessages, RoundTrip) {
  dist::RunMsg run;
  run.mode = DistMode::kNaive;
  run.impl = 1;
  run.iterations = 7;
  run.epoch = 4;
  run.first_iteration = 12;
  run.progress_every = 5;
  run.x = {0.5, -1.25, 3.0};
  const dist::RunMsg back = dist::RunMsg::decode(run.encode());
  EXPECT_EQ(back.mode, DistMode::kNaive);
  EXPECT_EQ(back.impl, 1);
  EXPECT_EQ(back.iterations, 7u);
  EXPECT_EQ(back.epoch, 4u);
  EXPECT_EQ(back.first_iteration, 12u);
  EXPECT_EQ(back.progress_every, 5u);
  EXPECT_EQ(back.x, run.x);

  dist::HaloMsg h;
  h.from = 3;
  h.epoch = 2;
  h.iter = 9;
  h.x = {4.0, 5.0};
  const dist::HaloMsg hb = dist::HaloMsg::decode(h.encode());
  EXPECT_EQ(hb.from, 3u);
  EXPECT_EQ(hb.epoch, 2u);
  EXPECT_EQ(hb.iter, 9u);
  EXPECT_EQ(hb.x, h.x);

  dist::FaultMsg f;
  f.kind = dist::FaultKind::kStallAtIteration;
  f.at_iteration = 6;
  f.seconds = 1.5;
  const dist::FaultMsg fb = dist::FaultMsg::decode(f.encode());
  EXPECT_EQ(fb.kind, dist::FaultKind::kStallAtIteration);
  EXPECT_EQ(fb.at_iteration, 6u);
  EXPECT_DOUBLE_EQ(fb.seconds, 1.5);
}

// ---------------------------------------------------------------------
// In-process halo exchange (the TSan target: two exchange threads over a
// socketpair, no fork).

TEST(DistComm, HaloExchangeInProcessThreads) {
  // Rank 0 owns x[0,4) and needs global cols {5,7}; rank 1 owns x[4,8)
  // and needs {0}. ranks = 2.
  RankShard s0;
  s0.row_begin = 0;
  s0.row_end = 4;
  s0.x_begin = 0;
  s0.x_end = 4;
  s0.halo_cols = {5, 7};
  s0.halo_seg = {0, 0, 2};
  s0.send_cols = {{}, {0}};  // rank 1's halo {0} → owned offset 0

  RankShard s1;
  s1.row_begin = 4;
  s1.row_end = 8;
  s1.x_begin = 4;
  s1.x_end = 8;
  s1.halo_cols = {0};
  s1.halo_seg = {0, 1, 1};
  s1.send_cols = {{1, 3}, {}};  // rank 0's halo {5,7} → offsets {1,3}

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::WireLimits limits;
  limits.read_timeout_seconds = 10.0;

  const double x0[4] = {10, 11, 12, 13};
  const double x1[4] = {20, 21, 22, 23};
  double halo0[2] = {0, 0};
  double halo1[1] = {0};

  const int iters = 4;
  std::thread peer([&] {
    dist::HaloExchange ex(s1, 1, {fds[1], -1}, limits);
    for (int it = 0; it < iters; ++it) {
      ex.start(x1, halo1, static_cast<std::uint32_t>(it));
      ex.finish();
    }
  });
  {
    dist::HaloExchange ex(s0, 0, {-1, fds[0]}, limits);
    for (int it = 0; it < iters; ++it) {
      ex.start(x0, halo0, static_cast<std::uint32_t>(it));
      ex.finish();
    }
    EXPECT_EQ(ex.totals().msgs_sent, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(ex.totals().msgs_recv, static_cast<std::uint64_t>(iters));
  }
  peer.join();

  EXPECT_EQ(halo0[0], 21.0);  // global col 5 = x1[1]
  EXPECT_EQ(halo0[1], 23.0);  // global col 7 = x1[3]
  EXPECT_EQ(halo1[0], 10.0);  // global col 0 = x0[0]
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(DistComm, PeerEofIsTypedIoError) {
  RankShard s0;
  s0.x_begin = 0;
  s0.x_end = 2;
  s0.halo_cols = {2};
  s0.halo_seg = {0, 0, 1};
  s0.send_cols = {{}, {}};

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer "dies" immediately
  serve::WireLimits limits;
  limits.read_timeout_seconds = 5.0;

  const double x0[2] = {1, 2};
  double halo0[1] = {0};
  dist::HaloExchange ex(s0, 0, {-1, fds[0]}, limits);
  ex.start(x0, halo0, 0);
  EXPECT_THROW(ex.finish(), io_error);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------
// Communication model + micro-benchmark.

MachineProfile comm_profile(double alpha, double beta, double mem_bw) {
  MachineProfile p;
  p.comm_alpha_seconds = alpha;
  p.comm_beta_bps = beta;
  p.bandwidth_bps = mem_bw;
  p.read_bandwidth_bps = mem_bw;
  return p;
}

TEST(DistModel, TCommIsAffineAndGuarded) {
  const MachineProfile p = comm_profile(1e-5, 1e9, 2e10);
  EXPECT_DOUBLE_EQ(t_comm(p, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t_comm(p, 0, 2), 2e-5);
  EXPECT_DOUBLE_EQ(t_comm(p, 1e9, 1), 1e-5 + 1.0);
  MachineProfile unprofiled;
  unprofiled.bandwidth_bps = 2e10;
  EXPECT_THROW(t_comm(unprofiled, 100, 1), invalid_argument_error);
}

TEST(DistModel, SpareCoresHideTheWholeWireCost) {
  // 4 ranks on a 16-core node: the exchange threads get their own
  // cores, so overlap hides all of t_comm under the local pass and is
  // never predicted worse than naive.
  const MachineProfile p = comm_profile(5e-5, 5e8, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) {
    c.local_ws_bytes = 8u << 20;
    c.halo_ws_bytes = 1u << 20;
    c.bytes_sent = c.bytes_recv = 4u << 20;  // heavy comm, similar compute
    c.msgs_sent = c.msgs_recv = 3;
  }
  const double naive =
      predict_distributed(p, ranks, DistMode::kNaive, /*cores=*/16);
  const double overlap =
      predict_distributed(p, ranks, DistMode::kOverlap, /*cores=*/16);
  EXPECT_GT(naive, 0.0);
  EXPECT_LE(overlap, naive);
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/16), DistMode::kOverlap);
}

TEST(DistModel, OversubscribedCopiesFavourNaive) {
  // The same bandwidth-heavy plan on a node with no spare cores: the
  // halo memcpy cannot hide (it steals compute cycles and thrashes the
  // cache), so naive's serial-but-undisturbed exchange is predicted
  // faster — while the blocking α·msgs part still hides, so a
  // latency-dominated plan flips the choice back to overlap.
  const MachineProfile p = comm_profile(5e-5, 5e8, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) {
    c.local_ws_bytes = 8u << 20;
    c.halo_ws_bytes = 1u << 20;
    c.bytes_sent = c.bytes_recv = 4u << 20;  // bandwidth-dominated comm
    c.msgs_sent = c.msgs_recv = 3;
  }
  const double naive =
      predict_distributed(p, ranks, DistMode::kNaive, /*cores=*/4);
  const double overlap =
      predict_distributed(p, ranks, DistMode::kOverlap, /*cores=*/4);
  EXPECT_GT(overlap, naive);
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kNaive);

  // Latency-dominated: big α, a few bytes. Hiding α·msgs is pure win
  // even with zero spare cores.
  for (auto& c : ranks) {
    c.bytes_sent = c.bytes_recv = 64;
    c.msgs_sent = c.msgs_recv = 4;
  }
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kOverlap);
}

TEST(DistModel, CommFreePlanTiesToNaive) {
  // A block-diagonal plan (no halo traffic at all) predicts identical
  // times for both modes; the tie keeps the serialised exchange.
  const MachineProfile p = comm_profile(1e-6, 5e9, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) c.local_ws_bytes = 8u << 20;
  EXPECT_DOUBLE_EQ(predict_distributed(p, ranks, DistMode::kNaive, 4),
                   predict_distributed(p, ranks, DistMode::kOverlap, 4));
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kNaive);
}

TEST(DistModel, ModeNamesRoundTrip) {
  EXPECT_STREQ(dist_mode_name(DistMode::kOverlap), "overlap");
  EXPECT_STREQ(dist_mode_name(DistMode::kNaive), "naive");
  EXPECT_EQ(parse_dist_mode("overlap"), DistMode::kOverlap);
  EXPECT_EQ(parse_dist_mode("naive"), DistMode::kNaive);
  EXPECT_THROW(parse_dist_mode("bogus"), invalid_argument_error);
}

TEST(CommBench, QuickProfileIsPlausible) {
  const CommProfile p = profile_comm(/*quick=*/true);
  EXPECT_GT(p.alpha_seconds, 0.0);
  EXPECT_LT(p.alpha_seconds, 0.01);  // a local socketpair RTT, not a WAN
  EXPECT_GT(p.beta_bps, 1e6);
}

TEST(CommBench, ProfileJsonRoundTripsCommFields) {
  MachineProfile p;
  p.comm_alpha_seconds = 3e-6;
  p.comm_beta_bps = 4.5e9;
  const MachineProfile back = MachineProfile::from_json(p.to_json());
  EXPECT_DOUBLE_EQ(back.comm_alpha_seconds, 3e-6);
  EXPECT_DOUBLE_EQ(back.comm_beta_bps, 4.5e9);
}

}  // namespace
}  // namespace bspmv
