// The rank runtime: what one forked child process runs.
//
// A rank receives its shard once (kShard), builds the local/halo column
// split (HaloDec), and then serves kDistRun requests: per iteration it
// posts the halo send/recv (HaloExchange), runs the local-columns pass
// on its own thread while bytes are in flight (overlap) or after the
// exchange completes (naive), then accumulates the halo-columns pass
// once the halo buffer is full.
//
// rank_main never throws and never returns into the caller's stack
// frames beyond its own: the forked child must _exit() with its return
// value (no atexit handlers, no gtest teardown, no stdio double-flush).
#pragma once

#include <vector>

#include "src/serve/protocol.hpp"

namespace bspmv::dist {

struct RankContext {
  int rank = -1;
  int ctrl_fd = -1;            ///< channel to the driver
  std::vector<int> peer_fds;   ///< by rank; -1 for self / absent
  serve::WireLimits limits;
};

/// Serve the rank protocol until shutdown or error. Takes the context by
/// value: a kPeerUpdate frame (mesh recovery after a peer died) swaps
/// entries of peer_fds in place. Returns the child's exit code: 0 on
/// clean shutdown (kShutdown or driver EOF), 1 after a fatal protocol
/// error (which is first reported to the driver as a kError frame, best
/// effort). A *run* failure — a dead or stalled peer mid-exchange, a
/// corrupt halo frame — is reported the same way but keeps the rank
/// alive and serving: its shard state is intact, and the supervisor will
/// retry the round after healing the mesh.
int rank_main(RankContext ctx) noexcept;

}  // namespace bspmv::dist
