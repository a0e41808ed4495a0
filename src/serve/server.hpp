// The SpMV serving daemon: a long-lived Unix-socket server wrapped
// around the prepare-once/run-many SpmvEngine, hardened by the typed
// error taxonomy, RunControl deadlines and crash-safe persistence.
//
// Request lifecycle (state machine in docs/serving.md and DESIGN.md):
//
//   read frame ─┬─ malformed ──────────► typed error reply, close conn
//               └─ parsed ──► admission ─┬─ queue full ► shed (overloaded)
//                                        └─ queued ──► worker
//   worker: submit ── cache hit ───────► reply (cached)
//                  ├─ engine preparing ► requeue with exponential backoff
//                  └─ miss ────────────► prepare (measured selection,
//                                        ConversionGuard-capped, CSR
//                                        fallback) ► cache insert ► reply
//           spmv ─── cache hit ────────► run under RunControl deadline +
//                                        Watchdog ► reply y
//                  ├─ spool hit ───────► rebuild engine from persisted
//                  │                     matrix (crash recovery) ► run
//                  └─ miss ────────────► unknown_matrix (client resubmits)
//
// Graceful degradation ladder (each rung trades quality for survival,
// never crashes):
//   1. queue full            → shed lowest-priority work (overloaded)
//   2. conversion over budget→ try_prepare walks down to scalar CSR
//   3. repeated stalls       → new engines skip measured selection, then
//                              drop to single-threaded scalar CSR
// The ladder climbs back down as requests succeed again.
//
// Every outcome is counted (serve.* counters in the observe registry and
// the Stats snapshot served over the wire), and submitted matrices are
// optionally spooled via atomic_write_file so a kill -9 loses no
// prepared-matrix state: the restarted server lazily reloads engines
// from the spool on first request.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/serve/admission.hpp"
#include "src/serve/engine_cache.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/json.hpp"
#include "src/util/timing.hpp"

namespace bspmv::serve {

struct ServerOptions {
  std::string socket_path;  ///< Unix socket path (required)

  std::size_t cache_bytes = std::size_t{256} << 20;  ///< engine cache budget
  std::size_t queue_capacity = 64;  ///< admission queue bound
  int workers = 2;                  ///< request-executing threads
  int engine_threads = 0;  ///< per-engine thread plan (0 = single-threaded)
  bool simd = true;        ///< allow simd candidates in selection

  /// Measured selection on prepare: convert each parallel-safe candidate
  /// and time `prepare_iterations` SpMVs, keeping the fastest — the
  /// paper's empirical selection, amortised by the cache. false = take
  /// the first candidate that converts.
  bool prepare_measure = true;
  int prepare_iterations = 3;
  double prepare_deadline_seconds = 60.0;  ///< budget for one preparation

  double default_deadline_seconds = 10.0;  ///< per-request budget when the
                                           ///< request doesn't carry one
  double max_deadline_seconds = 120.0;     ///< cap on requested budgets
  double stall_timeout_seconds = 5.0;      ///< watchdog stall detection
  double watchdog_poll_seconds = 0.002;    ///< RunControl watchdog_poll

  int max_retries = 5;            ///< requeue attempts (engine busy)
  double backoff_base_seconds = 0.005;  ///< doubles per attempt

  /// Same-matrix batching: concurrent spmv requests against one cached
  /// engine are gathered (up to this many) into a single run_multi SpMM
  /// call, streaming the matrix once for the whole batch (docs/spmm.md).
  /// <= 1 disables batching and every request runs the single-vector
  /// path.
  int max_batch = 8;

  int stall_strikes_to_degrade = 2;  ///< stalls before the ladder climbs

  std::string spool_dir;  ///< persist submitted matrices here ("" = off)

  WireLimits wire;  ///< frame cap + per-connection read timeout
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket, spawn the acceptor and worker pool. Throws
  /// io_error when the socket cannot be created/bound.
  void start();

  /// Stop accepting, shed queued work, drain connections, join threads.
  /// Idempotent.
  void stop();

  /// Block until a client sends kShutdown or `request_stop` is called
  /// (e.g. from a signal handler's flag-poll loop).
  void wait();

  /// Ask the server to stop; wait() returns and the owner calls stop().
  /// Safe from any thread (not async-signal-safe — poll a flag instead).
  void request_stop();

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  /// Counter snapshot: requests, cache hits/misses/evictions, shed,
  /// retries, timeouts, degradation level, queue depth.
  Json stats_json() const;

  const ServerOptions& options() const { return opt_; }

 private:
  struct Connection;
  struct ServerStats;
  struct SpmmBatch;
  struct SpmvRun;

  void accept_loop();
  void worker_loop();
  void connection_loop(std::shared_ptr<Connection> conn);

  /// Dispatch one parsed frame from `conn`; cheap requests are answered
  /// inline, submit/spmv go through admission.
  void dispatch(const std::shared_ptr<Connection>& conn, MsgType type,
                std::string&& payload);

  void enqueue(const std::shared_ptr<Connection>& conn, MsgType type,
               std::string&& payload, int priority, int attempts,
               double not_before);

  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const std::string& payload, int attempts);
  void handle_spmv(const std::shared_ptr<Connection>& conn,
                   const std::string& payload, int attempts);

  /// Same-matrix batcher (opt_.max_batch > 1): enqueue the request under
  /// its fingerprint's batch box; the first worker in becomes the leader
  /// and drains the box — gathering up to max_batch requests into one
  /// run_multi call per round — while followers return to the pool
  /// immediately.
  void spmv_batched(const std::shared_ptr<Connection>& conn,
                    SpmvRequest&& req,
                    std::shared_ptr<const CachedEngine> entry, Timer t);

  /// Completion of one non-batched spmv on the request worker: reply or
  /// typed error, counters, degradation bookkeeping.
  void finish_spmv(const std::shared_ptr<Connection>& conn, SpmvRun& st,
                   std::exception_ptr err);

  /// Requeue a busy request with exponential backoff; replies overloaded
  /// once attempts exceed max_retries. Returns true if requeued.
  bool requeue_backoff(const std::shared_ptr<Connection>& conn, MsgType type,
                       const std::string& payload, int priority,
                       int attempts);

  /// Build + cache an engine for `a` (admission against the preparing
  /// set is the caller's job). Never throws for a valid matrix: walks
  /// the degradation ladder down to scalar CSR.
  std::shared_ptr<const CachedEngine> prepare_and_cache(
      const Csr<double>& a, const MatrixKey& key,
      const std::string& submit_payload);

  /// Try to rebuild the engine for `hash` from the spool; nullptr when
  /// the spool has nothing usable (missing, torn, or mismatched file).
  std::shared_ptr<const CachedEngine> load_from_spool(std::uint64_t hash);

  std::string spool_path(std::uint64_t hash) const;

  int degrade_level() const;
  void record_stall();
  void record_success();

  void send_reply(const std::shared_ptr<Connection>& conn, MsgType type,
                  const std::string& payload);
  void send_error(const std::shared_ptr<Connection>& conn, ErrorCode code,
                  const std::string& message);

  ServerOptions opt_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::unordered_set<std::shared_ptr<Connection>> conns_;
  std::condition_variable conns_cv_;

  std::unique_ptr<EngineCache> cache_;
  std::unique_ptr<AdmissionQueue> queue_;

  std::mutex preparing_mu_;
  std::unordered_set<std::uint64_t> preparing_;

  std::mutex batches_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<SpmmBatch>> batches_;

  std::atomic<int> stall_strikes_{0};

  std::unique_ptr<ServerStats> stats_;
};

}  // namespace bspmv::serve
