#!/usr/bin/env bash
# Build under ThreadSanitizer and run the OpenMP-free concurrency tests:
#
#   - test_run_control: RunControl/Watchdog (deadline enforcement,
#     first-abort-wins, heartbeat stall detection), plus AtomicFile
#     and the robust-sample / numeric guard helpers;
#   - test_dist, DistComm cases only: the halo exchange's per-peer
#     send/recv threads over real socketpairs, in-process
#     (docs/distribution.md) — concurrent pairwise exchange,
#     first-error propagation, and peer-EOF typed errors. The
#     fork-based DistSpmv cases stay out (TSan's runtime does not
#     survive multi-threaded fork() children), and the HaloDecFormat
#     parity cases stay out because they drive the OpenMP ThreadedSpmv;
#   - test_dist_recovery, fork-free supervisor paths only: the
#     epoch-consistency rejection across two in-process exchange
#     endpoints (DistCommEpoch — a real two-thread wire race), plus the
#     single-threaded checkpoint codec/file cases and the recovery cost
#     models. The respawn/reshard/single-node ladder itself forks and is
#     covered by the functional suite and the ASan dist chaos soak
#     (scripts/run_dist_soak.sh) instead.
#
# Scope: only those binaries, and only their OpenMP-free cases;
# TSan has well-known false positives with libgomp's barrier/team
# implementation (it cannot see GOMP's internal synchronisation), so the
# bulk-synchronous OpenMP driver is excluded here and covered by
# ASan/UBSan and the functional suite instead. --no-tests=error fails
# the run if the filter ever stops matching anything.
#
# Usage: scripts/run_tsan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBSPMV_TSAN=ON \
  -DBSPMV_BUILD_BENCH=OFF \
  -DBSPMV_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_run_control test_dist test_dist_recovery

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

ctest --test-dir "$build_dir" --output-on-failure --timeout 300 \
  -j "$(nproc)" --no-tests=error \
  -R '^(RunControl|Watchdog|AtomicFile|RobustSamples|Numerics|DistComm|DistCommEpoch|DistCheckpointFile|RecoveryModel)\.' \
  "$@"
