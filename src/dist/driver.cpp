#include "src/dist/driver.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/core/candidates.hpp"
#include "src/core/engine.hpp"
#include "src/dist/checkpoint.hpp"
#include "src/dist/fdpass.hpp"
#include "src/dist/rank.hpp"
#include "src/observe/observe.hpp"
#include "src/observe/registry.hpp"
#include "src/util/errors.hpp"
#include "src/util/macros.hpp"
#include "src/util/numerics.hpp"
#include "src/util/timing.hpp"

namespace bspmv::dist {

using serve::MsgType;

namespace {

/// One full-duplex socketpair; [0] stays with `a`, [1] with `b`.
struct Pair {
  int fds[2] = {-1, -1};
};

void make_pair_or_throw(Pair& p) {
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, p.fds) != 0)
    throw io_error(std::string("socketpair failed: ") +
                   std::strerror(errno));
}

void close_quiet(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Failure-cause precedence for a round's classification.
int cause_rank(const std::string& c) {
  if (c == "rank_dead") return 3;
  if (c == "rank_stalled") return 2;
  if (c == "rank_error") return 1;
  return 0;
}

}  // namespace

const char* dist_outcome_name(DistOutcome o) {
  switch (o) {
    case DistOutcome::kClean: return "clean";
    case DistOutcome::kRecovered: return "recovered";
    case DistOutcome::kResharded: return "resharded";
    case DistOutcome::kSingleNode: return "single_node";
  }
  return "?";
}

DistSpmv::DistSpmv(const Csr<double>& a, const DistOptions& opt)
    : opt_(opt) {
  BSPMV_CHECK_MSG(opt_.timeout_seconds > 0.0, "timeout must be positive");
  plan_ = plan_shards(a, opt_.ranks);  // validates the rank count
  limits_.read_timeout_seconds = opt_.timeout_seconds;
  // Supervision needs the matrix after construction: respawn re-ships
  // shards, the ladder re-shards or runs single-node.
  if (opt_.supervise.enabled) matrix_ = a;
  persistent_faults_.assign(static_cast<std::size_t>(opt_.ranks), FaultMsg{});
  spawn(a);
}

void DistSpmv::spawn(const Csr<double>& a) {
  const int n = opt_.ranks;
  std::vector<Pair> ctrl(static_cast<std::size_t>(n));
  // data[i][j] for i < j: fds[0] is rank i's end, fds[1] rank j's.
  std::vector<std::vector<Pair>> data(static_cast<std::size_t>(n));
  for (auto& row : data) row.resize(static_cast<std::size_t>(n));

  try {
    for (int r = 0; r < n; ++r)
      make_pair_or_throw(ctrl[static_cast<std::size_t>(r)]);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        make_pair_or_throw(data[static_cast<std::size_t>(i)]
                               [static_cast<std::size_t>(j)]);

    for (int r = 0; r < n; ++r) {
      const pid_t pid = fork();
      if (pid < 0)
        throw io_error(std::string("fork failed: ") + std::strerror(errno));
      if (pid == 0) {
        // Child: keep only this rank's fds, serve, and _exit — never
        // return into the parent's stack/atexit/gtest machinery.
        RankContext ctx;
        ctx.rank = r;
        ctx.limits = limits_;
        ctx.peer_fds.assign(static_cast<std::size_t>(n), -1);
        for (int q = 0; q < n; ++q) {
          Pair& c = ctrl[static_cast<std::size_t>(q)];
          if (q == r) {
            ctx.ctrl_fd = c.fds[1];
            close_quiet(c.fds[0]);
          } else {
            close_quiet(c.fds[0]);
            close_quiet(c.fds[1]);
          }
        }
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j) {
            Pair& d = data[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
            if (i == r) {
              ctx.peer_fds[static_cast<std::size_t>(j)] = d.fds[0];
              close_quiet(d.fds[1]);
            } else if (j == r) {
              ctx.peer_fds[static_cast<std::size_t>(i)] = d.fds[1];
              close_quiet(d.fds[0]);
            } else {
              close_quiet(d.fds[0]);
              close_quiet(d.fds[1]);
            }
          }
        _exit(rank_main(ctx));
      }
      pids_.push_back(pid);
    }
  } catch (...) {
    for (auto& c : ctrl) {
      close_quiet(c.fds[0]);
      close_quiet(c.fds[1]);
    }
    for (auto& row : data)
      for (auto& d : row) {
        close_quiet(d.fds[0]);
        close_quiet(d.fds[1]);
      }
    shutdown();
    throw;
  }

  // Parent: keep the driver ends, drop everything else.
  for (int r = 0; r < n; ++r) {
    ctrl_fds_.push_back(ctrl[static_cast<std::size_t>(r)].fds[0]);
    close_quiet(ctrl[static_cast<std::size_t>(r)].fds[1]);
  }
  for (auto& row : data)
    for (auto& d : row) {
      close_quiet(d.fds[0]);
      close_quiet(d.fds[1]);
    }

  // Ship the shards, then confirm every rank decoded its own. Children
  // are already blocked in read_frame, so the sequential sends drain.
  try {
    BSPMV_OBS_SPAN("dist/shard");
    for (int r = 0; r < n; ++r) ship_shard(a, r);
    for (int r = 0; r < n; ++r) expect_ok(r, MsgType::kShardOk, limits_);
  } catch (...) {
    shutdown();
    throw;
  }
}

void DistSpmv::ship_shard(const Csr<double>& a, int r) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto& val = a.val();
  const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
  ShardMsg msg;
  msg.rank = static_cast<std::uint32_t>(r);
  msg.ranks = static_cast<std::uint32_t>(opt_.ranks);
  msg.row_begin = sh.row_begin;
  msg.row_end = sh.row_end;
  msg.x_begin = sh.x_begin;
  msg.x_end = sh.x_end;
  msg.cols = a.cols();
  msg.halo_seg = sh.halo_seg;
  msg.send_cols = sh.send_cols;
  const index_t nz0 = row_ptr[sh.row_begin];
  const index_t nz1 = row_ptr[sh.row_end];
  msg.row_ptr.reserve(static_cast<std::size_t>(sh.rows()) + 1);
  for (index_t i = sh.row_begin; i <= sh.row_end; ++i)
    msg.row_ptr.push_back(row_ptr[i] - nz0);
  msg.col_ind.assign(col_ind.begin() + nz0, col_ind.begin() + nz1);
  msg.val.assign(val.begin() + nz0, val.begin() + nz1);
  serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)], MsgType::kShard,
                     msg.encode(), limits_);
}

void DistSpmv::expect_ok(int r, MsgType want, const serve::WireLimits& lim) {
  MsgType type{};
  std::string payload;
  if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                         payload, lim))
    throw io_error("rank " + std::to_string(r) + " exited while the driver "
                   "waited for " + serve::msg_type_name(want));
  if (type == MsgType::kError) {
    const auto rep = serve::ErrorReply::decode(payload);
    serve::throw_wire_error(rep.code,
                            "rank " + std::to_string(r) + ": " + rep.message);
  }
  if (type != want)
    throw parse_error(std::string("expected ") + serve::msg_type_name(want) +
                      " from rank, got " + serve::msg_type_name(type));
}

serve::WireLimits DistSpmv::round_limits() const {
  // Satellite of the supervision work: a run-level deadline (RunControl)
  // bounds wire waits too — the per-frame read timeout never exceeds the
  // remaining run budget.
  serve::WireLimits lim = limits_;
  if (control_ && control_->has_deadline()) {
    const double rem = control_->remaining_seconds();
    lim.read_timeout_seconds =
        std::max(0.05, std::min(lim.read_timeout_seconds, rem));
  }
  return lim;
}

bool DistSpmv::child_exited(int r) {
  pid_t& pid = pids_[static_cast<std::size_t>(r)];
  if (pid <= 0) return true;
  const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
  if (got == pid || (got < 0 && errno == ECHILD)) {
    pid = -1;
    return true;
  }
  return false;
}

void DistSpmv::force_down(int r) noexcept {
  pid_t& pid = pids_[static_cast<std::size_t>(r)];
  if (pid > 0) {
    const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
    if (got != pid) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    pid = -1;
  }
  close_quiet(ctrl_fds_[static_cast<std::size_t>(r)]);
}

int DistSpmv::live_ranks() const {
  int live = 0;
  for (pid_t pid : pids_)
    if (pid > 0) ++live;
  return live;
}

void DistSpmv::run(const double* x, double* y, int iterations) {
  BSPMV_CHECK_MSG(iterations >= 1, "iterations must be >= 1");
  BSPMV_OBS_SPAN("dist/run");
  Timer wall;
  log_.clear();
  outcome_ = DistOutcome::kClean;
  resumed_ = 0;
  if (control_) control_->check();
  if (pids_.empty()) {
    // A previous supervised run degraded to single-node and tore the
    // mesh down; every later run stays on the single-node rung.
    BSPMV_CHECK_MSG(opt_.supervise.enabled && matrix_.rows() > 0,
                    "distributed mesh is gone (was it shut down?)");
    outcome_ = DistOutcome::kSingleNode;
    // Every iteration recomputes the same y from the constant x, so one
    // engine pass covers the whole run.
    run_single_node(x, y);
    observe::CounterRegistry::instance().add_span("dist/run_wall",
                                                  wall.elapsed());
    return;
  }
  if (opt_.supervise.enabled)
    run_supervised(x, y, iterations);
  else
    run_unsupervised(x, y, iterations);
  observe::CounterRegistry::instance().add_span("dist/run_wall",
                                                wall.elapsed());
}

void DistSpmv::run_unsupervised(const double* x, double* y, int iterations) {
  const serve::WireLimits lim = round_limits();
  ++epoch_;
  for (int r = 0; r < opt_.ranks; ++r) {
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    RunMsg msg;
    msg.mode = opt_.mode;
    msg.impl = opt_.impl == Impl::kSimd ? 1 : 0;
    msg.iterations = static_cast<std::uint32_t>(iterations);
    msg.epoch = epoch_;
    msg.x.assign(x + sh.x_begin, x + sh.x_end);
    serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)],
                       MsgType::kDistRun, msg.encode(), lim);
  }

  stats_.assign(static_cast<std::size_t>(opt_.ranks), RankStats{});
  std::uint64_t bytes = 0, msgs = 0;
  for (int r = 0; r < opt_.ranks; ++r) {
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    MsgType type{};
    std::string payload;
    if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                           payload, lim))
      throw io_error("rank " + std::to_string(r) +
                     " exited mid-run (no dist_done frame)");
    if (type == MsgType::kError) {
      const auto rep = serve::ErrorReply::decode(payload);
      serve::throw_wire_error(
          rep.code, "rank " + std::to_string(r) + ": " + rep.message);
    }
    if (type != MsgType::kDistDone)
      throw parse_error(std::string("expected dist_done from rank, got ") +
                        serve::msg_type_name(type));
    DoneMsg done = DoneMsg::decode(payload);
    if (done.y.size() != static_cast<std::size_t>(sh.rows()))
      throw parse_error("rank " + std::to_string(r) + " returned " +
                        std::to_string(done.y.size()) + " y values for " +
                        std::to_string(sh.rows()) + " rows");
    std::copy(done.y.begin(), done.y.end(), y + sh.row_begin);
    stats_[static_cast<std::size_t>(r)] = done.stats;
    bytes += done.stats.bytes_sent;
    msgs += done.stats.msgs_sent;

    // Per-rank timeline record: the same thread_times channel the
    // threaded drivers feed, keyed dist/<mode>, tid = rank. items =
    // stored values processed over all iterations (the §V-A load view).
    observe::CounterRegistry::instance().add_thread_time(
        std::string("dist/") + dist_mode_name(opt_.mode), r,
        done.stats.total_seconds,
        sh.nnz * static_cast<std::uint64_t>(iterations));
  }
  BSPMV_OBS_COUNT("dist.runs", 1);
  BSPMV_OBS_COUNT("dist.iterations",
                  static_cast<std::uint64_t>(iterations));
  BSPMV_OBS_COUNT("dist.halo_bytes", bytes);
  BSPMV_OBS_COUNT("dist.halo_msgs", msgs);
}

DistSpmv::RoundResult DistSpmv::run_round(const double* x, double* y,
                                          int step, int first,
                                          const serve::WireLimits& lim) {
  ++epoch_;
  const int n = opt_.ranks;
  RoundResult rr;

  auto note = [&rr](int r, const char* cause, const std::string& msg,
                    std::exception_ptr ep, bool now_dead) {
    rr.ok = false;
    if (now_dead) rr.failed.push_back(r);
    if (cause_rank(cause) > cause_rank(rr.cause)) rr.cause = cause;
    if (rr.message.empty())
      rr.message = "rank " + std::to_string(r) + ": " + msg;
    if (!rr.error && ep) rr.error = ep;
  };

  std::vector<char> sent(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    if (pids_[static_cast<std::size_t>(r)] <= 0) {
      // Already down (a previous recovery failed to bring it back).
      note(r, "rank_dead", "rank is down entering the round", nullptr, true);
      continue;
    }
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    RunMsg msg;
    msg.mode = opt_.mode;
    msg.impl = opt_.impl == Impl::kSimd ? 1 : 0;
    msg.iterations = static_cast<std::uint32_t>(step);
    msg.epoch = epoch_;
    msg.first_iteration = static_cast<std::uint32_t>(first);
    msg.progress_every = opt_.supervise.progress_every;
    msg.x.assign(x + sh.x_begin, x + sh.x_end);
    try {
      serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)],
                         MsgType::kDistRun, msg.encode(), lim);
      sent[static_cast<std::size_t>(r)] = 1;
    } catch (const error& e) {
      // A write on a socketpair only fails when the child is gone.
      force_down(r);
      note(r, "rank_dead", e.what(), std::current_exception(), true);
    }
  }

  // Collect a reply from EVERY rank the round reached — recovery must
  // start from a quiesced mesh, so no throw-on-first-failure here. The
  // collect timeout carries a grace over the rank-side wire timeout so a
  // rank's own typed timeout surfaces as kError before the driver
  // classifies the rank itself as stalled.
  serve::WireLimits collect = lim;
  collect.read_timeout_seconds = lim.read_timeout_seconds * 1.5 + 0.5;
  if (control_ && control_->has_deadline())
    collect.read_timeout_seconds =
        std::max(0.05, std::min(collect.read_timeout_seconds,
                                control_->remaining_seconds()));
  for (int r = 0; r < n; ++r) {
    if (!sent[static_cast<std::size_t>(r)]) continue;
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    try {
      for (;;) {
        MsgType type{};
        std::string payload;
        if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                               payload, collect)) {
          force_down(r);
          note(r, "rank_dead", "exited mid-round (no dist_done frame)",
               std::make_exception_ptr(io_error(
                   "rank " + std::to_string(r) +
                   " exited mid-run (no dist_done frame)")),
               true);
          break;
        }
        if (type == MsgType::kProgress) continue;  // heartbeat
        if (type == MsgType::kError) {
          const auto rep = serve::ErrorReply::decode(payload);
          std::exception_ptr ep;
          try {
            serve::throw_wire_error(
                rep.code, "rank " + std::to_string(r) + ": " + rep.message);
          } catch (...) {
            ep = std::current_exception();
          }
          // The rank reported and survived: alive, not in the dead set.
          note(r, "rank_error", rep.message, ep, false);
          break;
        }
        if (type != MsgType::kDistDone)
          throw parse_error(
              std::string("expected dist_done from rank, got ") +
              serve::msg_type_name(type));
        DoneMsg done = DoneMsg::decode(payload);
        if (done.y.size() != static_cast<std::size_t>(sh.rows()))
          throw parse_error("rank returned " + std::to_string(done.y.size()) +
                            " y values for " + std::to_string(sh.rows()) +
                            " rows");
        std::copy(done.y.begin(), done.y.end(), y + sh.row_begin);
        RankStats& acc = stats_[static_cast<std::size_t>(r)];
        acc.iterations += done.stats.iterations;
        acc.send_seconds += done.stats.send_seconds;
        acc.recv_seconds += done.stats.recv_seconds;
        acc.wait_seconds += done.stats.wait_seconds;
        acc.local_seconds += done.stats.local_seconds;
        acc.halo_seconds += done.stats.halo_seconds;
        acc.total_seconds += done.stats.total_seconds;
        acc.bytes_sent += done.stats.bytes_sent;
        acc.bytes_recv += done.stats.bytes_recv;
        acc.msgs_sent += done.stats.msgs_sent;
        acc.msgs_recv += done.stats.msgs_recv;
        rr.bytes += done.stats.bytes_sent;
        rr.msgs += done.stats.msgs_sent;
        observe::CounterRegistry::instance().add_thread_time(
            std::string("dist/") + dist_mode_name(opt_.mode), r,
            done.stats.total_seconds,
            sh.nnz * static_cast<std::uint64_t>(step));
        break;
      }
    } catch (const timeout_error& e) {
      // No reply within the grace window: a stall. The rank cannot be
      // trusted mid-protocol, so it joins the dead set via SIGKILL and
      // recovery respawns it. (If it in fact died, waitpid says so.)
      const bool was_dead = child_exited(r);
      force_down(r);
      if (!was_dead) BSPMV_OBS_COUNT("dist.recovery.stalls_killed", 1);
      note(r, was_dead ? "rank_dead" : "rank_stalled", e.what(),
           std::current_exception(), true);
    } catch (const error& e) {
      // Undecodable traffic on the control channel: the stream is not
      // trustworthy any more; take the rank down and respawn it.
      force_down(r);
      note(r, "rank_dead", e.what(), std::current_exception(), true);
    }
  }
  return rr;
}

void DistSpmv::run_supervised(const double* x, double* y, int iterations) {
  const SuperviseOptions& sup = opt_.supervise;
  int interval = sup.checkpoint_interval;
  if (interval <= 0) interval = std::max(1, (iterations + 3) / 4);
  interval = std::min(interval, iterations);

  const std::size_t n_x = static_cast<std::size_t>(plan_.cols);
  int completed = 0;
  std::uint64_t xfp = 0;
  if (!sup.checkpoint_path.empty()) {
    xfp = bits_fingerprint(x, n_x);
    if (auto ck = load_checkpoint(sup.checkpoint_path)) {
      if (ck->x_fingerprint == xfp &&
          ck->total == static_cast<std::uint32_t>(iterations) &&
          ck->completed > 0) {
        // Resume the count, but always rerun at least one iteration:
        // each iteration recomputes y from the constant x, so the rerun
        // both materialises y in this process and stays bitwise
        // faithful to a fault-free run.
        completed = std::min(static_cast<int>(ck->completed), iterations - 1);
        resumed_ = completed;
        BSPMV_OBS_COUNT("dist.recovery.resumed_iterations",
                        static_cast<std::uint64_t>(completed));
      }
    }
  }

  stats_.assign(static_cast<std::size_t>(opt_.ranks), RankStats{});
  std::uint64_t bytes = 0, msgs = 0;
  int consecutive = 0;
  double backoff_ms = sup.backoff_initial_ms;

  while (completed < iterations) {
    if (control_) control_->check();  // typed deadline/cancel between rounds
    const int step = std::min(interval, iterations - completed);
    RoundResult rr = run_round(x, y, step, completed, round_limits());
    bytes += rr.bytes;
    msgs += rr.msgs;
    if (rr.ok) {
      completed += step;
      consecutive = 0;
      backoff_ms = sup.backoff_initial_ms;
      if (!sup.checkpoint_path.empty() && completed < iterations) {
        DistCheckpoint ck;
        ck.completed = static_cast<std::uint32_t>(completed);
        ck.total = static_cast<std::uint32_t>(iterations);
        ck.x_fingerprint = xfp;
        ck.x.assign(x, x + n_x);
        try {
          save_checkpoint(sup.checkpoint_path, ck);
          BSPMV_OBS_COUNT("dist.recovery.checkpoints", 1);
        } catch (const error&) {
          // A failed checkpoint write costs the resume point, never the
          // run; the next round retries it.
        }
      }
      continue;
    }

    ++consecutive;
    BSPMV_OBS_COUNT("dist.recovery.failed_rounds", 1);
    Timer rt;
    RecoveryEvent ev;
    ev.epoch = epoch_;
    ev.completed_iterations = completed;
    ev.cause = rr.cause;
    ev.failed_ranks = rr.failed;
    ev.detail = rr.message;

    if (consecutive > sup.max_respawns) {
      // The retry rung is exhausted: walk the degradation ladder.
      const int live = live_ranks();
      if (sup.allow_reshard && live >= 2 && live < opt_.ranks) {
        reshard(live);
        ev.action = "reshard";
        ev.ranks_after = opt_.ranks;
        ev.seconds = rt.elapsed();
        log_.push_back(ev);
        outcome_ = DistOutcome::kResharded;
        consecutive = 0;
        backoff_ms = sup.backoff_initial_ms;
        BSPMV_OBS_COUNT("dist.recovery.resharded", 1);
        continue;
      }
      if (sup.allow_single_node) {
        ev.action = "single_node";
        ev.ranks_after = 1;
        ev.seconds = rt.elapsed();
        log_.push_back(ev);
        outcome_ = DistOutcome::kSingleNode;
        BSPMV_OBS_COUNT("dist.recovery.single_node", 1);
        shutdown();
        run_single_node(x, y);
        completed = iterations;
        continue;
      }
      ev.action = "abort";
      ev.ranks_after = live;
      ev.seconds = rt.elapsed();
      log_.push_back(ev);
      if (rr.error) std::rethrow_exception(rr.error);
      throw io_error("distributed run failed and every ladder rung is "
                     "disabled: " + rr.message);
    }

    // Bounded retry: back off, heal the mesh, go around again.
    const double ms = std::min(backoff_ms, sup.backoff_max_ms);
    ev.backoff_ms = ms;
    ::usleep(static_cast<useconds_t>(ms * 1000.0));
    backoff_ms *= 2.0;
    try {
      recover(rr.failed);
      ev.action = rr.failed.empty() ? "retry" : "respawn";
      ev.ranks_after = opt_.ranks;
      if (outcome_ == DistOutcome::kClean) outcome_ = DistOutcome::kRecovered;
      if (!rr.failed.empty())
        BSPMV_OBS_COUNT("dist.recovery.respawns", rr.failed.size());
    } catch (const error& e) {
      // A failed recovery just leaves the next round to fail too; the
      // consecutive counter walks the ladder.
      ev.action = "respawn_failed";
      ev.detail += std::string(" | recovery: ") + e.what();
      BSPMV_OBS_COUNT("dist.recovery.respawn_failures", 1);
    }
    ev.seconds = rt.elapsed();
    log_.push_back(ev);
  }

  // The run completed; the resume point is obsolete.
  if (!sup.checkpoint_path.empty()) ::unlink(sup.checkpoint_path.c_str());
  BSPMV_OBS_COUNT("dist.runs", 1);
  BSPMV_OBS_COUNT("dist.iterations",
                  static_cast<std::uint64_t>(iterations - resumed_));
  BSPMV_OBS_COUNT("dist.halo_bytes", bytes);
  BSPMV_OBS_COUNT("dist.halo_msgs", msgs);
}

void DistSpmv::recover(const std::vector<int>& failed) {
  BSPMV_OBS_SPAN("dist/recover");
  if (!failed.empty()) respawn_ranks(failed);

  // Quiesce + drain: every rank discards whatever stale pre-recovery
  // frames a failed peer left in its kernel buffers, so the next epoch
  // starts on clean streams (the epoch stamp on every halo frame is the
  // belt to this suspenders).
  const serve::WireLimits lim = round_limits();
  for (int r = 0; r < opt_.ranks; ++r) {
    if (pids_[static_cast<std::size_t>(r)] <= 0)
      throw io_error("rank " + std::to_string(r) +
                     " is still down after recovery");
    serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)],
                       MsgType::kDrain, "", lim);
  }
  std::uint64_t stale = 0;
  for (int r = 0; r < opt_.ranks; ++r) {
    MsgType type{};
    std::string payload;
    if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                           payload, lim))
      throw io_error("rank " + std::to_string(r) + " exited during drain");
    if (type == MsgType::kError) {
      const auto rep = serve::ErrorReply::decode(payload);
      serve::throw_wire_error(
          rep.code, "rank " + std::to_string(r) + ": " + rep.message);
    }
    if (type != MsgType::kDrainOk)
      throw parse_error(std::string("expected drain_ok from rank, got ") +
                        serve::msg_type_name(type));
    stale += DrainReply::decode(payload).bytes;
  }
  if (stale > 0) BSPMV_OBS_COUNT("dist.recovery.stale_bytes", stale);
}

void DistSpmv::respawn_ranks(const std::vector<int>& dead_in) {
  std::vector<int> dead = dead_in;
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  const int n = opt_.ranks;
  std::vector<char> is_dead(static_cast<std::size_t>(n), 0);
  for (int d : dead) {
    BSPMV_CHECK(d >= 0 && d < n);
    BSPMV_CHECK_MSG(pids_[static_cast<std::size_t>(d)] <= 0,
                    "respawn asked for a rank that is still alive");
    is_dead[static_cast<std::size_t>(d)] = 1;
  }

  // Fresh channels: one ctrl pair per dead rank, one data pair for every
  // rank pair with at least one dead endpoint. All pairs must exist
  // before the first fork so each new child inherits its ends to every
  // peer, including other respawned ranks.
  std::vector<Pair> ctrl(static_cast<std::size_t>(n));
  std::vector<std::vector<Pair>> data(static_cast<std::size_t>(n));
  for (auto& row : data) row.resize(static_cast<std::size_t>(n));

  auto close_all_local = [&] {
    for (auto& c : ctrl) {
      close_quiet(c.fds[0]);
      close_quiet(c.fds[1]);
    }
    for (auto& row : data)
      for (auto& d : row) {
        close_quiet(d.fds[0]);
        close_quiet(d.fds[1]);
      }
  };

  try {
    for (int d : dead) make_pair_or_throw(ctrl[static_cast<std::size_t>(d)]);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (is_dead[static_cast<std::size_t>(i)] ||
            is_dead[static_cast<std::size_t>(j)])
          make_pair_or_throw(data[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(j)]);

    for (int d : dead) {
      const pid_t pid = fork();
      if (pid < 0)
        throw io_error(std::string("fork failed: ") + std::strerror(errno));
      if (pid == 0) {
        RankContext ctx;
        ctx.rank = d;
        ctx.limits = limits_;
        ctx.ctrl_fd = ctrl[static_cast<std::size_t>(d)].fds[1];
        ctx.peer_fds.assign(static_cast<std::size_t>(n), -1);
        for (int q = 0; q < n; ++q) {
          if (q == d) continue;
          const int i = std::min(d, q), j = std::max(d, q);
          Pair& p = data[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)];
          ctx.peer_fds[static_cast<std::size_t>(q)] =
              d == i ? p.fds[0] : p.fds[1];
        }
        // Close everything else inherited from the parent: the live
        // ranks' ctrl channels, other new ctrl pairs, the parent side of
        // this rank's own pairs, and every pair end that is not ours.
        for (int q = 0; q < n; ++q) {
          Pair& c = ctrl[static_cast<std::size_t>(q)];
          if (q == d) {
            close_quiet(c.fds[0]);
          } else {
            close_quiet(c.fds[0]);
            close_quiet(c.fds[1]);
          }
        }
        for (int& fd : ctrl_fds_) close_quiet(fd);
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j) {
            Pair& p = data[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
            if (i == d) {
              close_quiet(p.fds[1]);
            } else if (j == d) {
              close_quiet(p.fds[0]);
            } else {
              close_quiet(p.fds[0]);
              close_quiet(p.fds[1]);
            }
          }
        _exit(rank_main(ctx));
      }
      pids_[static_cast<std::size_t>(d)] = pid;
    }

    // Parent bookkeeping: adopt the new ctrl ends; release the fds the
    // children now own. Ends destined for live survivors stay open until
    // SCM_RIGHTS delivers them.
    for (int d : dead) {
      Pair& c = ctrl[static_cast<std::size_t>(d)];
      close_quiet(ctrl_fds_[static_cast<std::size_t>(d)]);
      ctrl_fds_[static_cast<std::size_t>(d)] = c.fds[0];
      c.fds[0] = -1;
      close_quiet(c.fds[1]);
    }
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        Pair& p = data[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)];
        if (is_dead[static_cast<std::size_t>(i)]) close_quiet(p.fds[0]);
        if (is_dead[static_cast<std::size_t>(j)]) close_quiet(p.fds[1]);
      }

    // Re-ship the dead ranks' shards — the ShardPlan is deterministic,
    // so this is the same slice they held before — and re-arm any
    // persistent test faults.
    const serve::WireLimits lim = round_limits();
    for (int d : dead) ship_shard(matrix_, d);
    for (int d : dead) expect_ok(d, MsgType::kShardOk, lim);
    for (int d : dead) {
      const FaultMsg& f = persistent_faults_[static_cast<std::size_t>(d)];
      if (f.kind == FaultKind::kNone) continue;
      serve::write_frame(ctrl_fds_[static_cast<std::size_t>(d)],
                         MsgType::kFault, f.encode(), lim);
      expect_ok(d, MsgType::kFaultOk, lim);
    }

    // Rewire every survivor: announce the replaced peers, then pass each
    // replacement fd over the control stream (ordered, so the fds land
    // right behind the frame).
    PeerUpdateMsg upd;
    for (int d : dead) upd.peers.push_back(static_cast<std::uint32_t>(d));
    const std::string upd_payload = upd.encode();
    for (int q = 0; q < n; ++q) {
      if (is_dead[static_cast<std::size_t>(q)] ||
          pids_[static_cast<std::size_t>(q)] <= 0)
        continue;
      const int cfd = ctrl_fds_[static_cast<std::size_t>(q)];
      serve::write_frame(cfd, MsgType::kPeerUpdate, upd_payload, lim);
      for (int d : dead) {
        const int i = std::min(d, q), j = std::max(d, q);
        Pair& p = data[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)];
        int& fd = q == i ? p.fds[0] : p.fds[1];
        send_fd(cfd, fd);
        close_quiet(fd);
      }
      expect_ok(q, MsgType::kPeerOk, lim);
    }
  } catch (...) {
    close_all_local();
    throw;
  }
  close_all_local();
}

void DistSpmv::reshard(int new_ranks) {
  // Second ladder rung: tear the whole mesh down and rebuild it over the
  // survivors' count with a fresh deterministic plan. Armed test faults
  // die with the old mesh (rank identities changed).
  shutdown();
  opt_.ranks = new_ranks;
  plan_ = plan_shards(matrix_, new_ranks);
  persistent_faults_.assign(static_cast<std::size_t>(new_ranks), FaultMsg{});
  stats_.assign(static_cast<std::size_t>(new_ranks), RankStats{});
  spawn(matrix_);
}

void DistSpmv::run_single_node(const double* x, double* y) {
  // Final ladder rung, mirroring the serve layer's: a plain serial
  // scalar-CSR engine over the retained matrix. Different summation
  // order than the sharded run (tolerance-correct, not bitwise), which
  // is why the outcome is always reported, never silent.
  Candidate c;
  c.impl = opt_.impl;
  auto engine = SpmvEngine<double>::prepare(matrix_, c, /*threads=*/0);
  engine.run(x, y);
}

void DistSpmv::kill_rank(int r) {
  BSPMV_CHECK(r >= 0 && r < static_cast<int>(pids_.size()));
  if (pids_[static_cast<std::size_t>(r)] > 0)
    ::kill(pids_[static_cast<std::size_t>(r)], SIGKILL);
}

void DistSpmv::inject_fault(int r, const FaultMsg& f, bool persistent) {
  BSPMV_CHECK(r >= 0 && r < static_cast<int>(pids_.size()));
  if (persistent) persistent_faults_[static_cast<std::size_t>(r)] = f;
  serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)], MsgType::kFault,
                     f.encode(), limits_);
  expect_ok(r, MsgType::kFaultOk, limits_);
}

void DistSpmv::shutdown() noexcept {
  serve::WireLimits quick = limits_;
  quick.read_timeout_seconds = std::min(limits_.read_timeout_seconds, 5.0);
  for (int& fd : ctrl_fds_) {
    if (fd < 0) continue;
    try {
      serve::write_frame(fd, MsgType::kShutdown, "", quick);
      MsgType type{};
      std::string payload;
      serve::read_frame(fd, type, payload, quick);
    } catch (...) {
      // A dead or wedged rank is handled by the reaper below.
    }
    close_quiet(fd);
  }
  ctrl_fds_.clear();

  Timer t;
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) break;
      if (t.elapsed() > 5.0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      ::usleep(2000);
    }
    pid = -1;
  }
  pids_.clear();
}

DistSpmv::~DistSpmv() { shutdown(); }

}  // namespace bspmv::dist
