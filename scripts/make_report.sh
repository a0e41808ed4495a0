#!/usr/bin/env bash
# Build the tree and produce validated RunReports for a handful of suite
# matrices — the one-command demo of the observability subsystem
# (docs/observability.md). Each report is re-validated through the schema
# validator and appended to the BENCH_report.json trajectory; finishes
# with the docs link check so the whole pipeline gates on one exit code.
#
#   scripts/make_report.sh [--no-build] [--bench]
#
# --bench additionally regenerates the checked-in performance baselines:
#   BENCH_spmm.json          bench_spmm at small scale (the per-k
#                            blocked-vs-CSR crossover table, docs/spmm.md)
#   BENCH_kernels_micro.json bench_kernels_micro GFLOP/s per kernel plus
#                            the geomean headline, stamped with nproc,
#                            CPU model, compiler, git sha and
#                            BSPMV_OBSERVE
#   BENCH_dist.json          bench_dist at small scale (4-rank overlap vs
#                            naive halo exchange, docs/distribution.md)
set -eu
cd "$(dirname "$0")/.."

build=1 bench=0
for arg in "$@"; do
  case "$arg" in
    --no-build) build=0 ;;
    --bench) bench=1 ;;
    *) echo "make_report: unknown flag $arg" >&2; exit 1 ;;
  esac
done

if [ "$build" = 1 ]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j >/dev/null
fi

tool=build/examples/mtx_tool
[ -x "$tool" ] || { echo "make_report: $tool not built" >&2; exit 1; }

# Scratch per-suite reports land in reports/ (gitignored). The appended
# BENCH_report.json trajectory is ALSO gitignored — it is a per-machine
# local history, not a committed baseline; the checked-in baselines are
# the BENCH_*.json files written by --bench below.
mkdir -p reports

# Small dense-ish, large sparse, and the paper's hardest irregular case.
for id in 2 8 21; do
  out="reports/report_suite${id}.json"
  "$tool" report --suite "$id" --scale tiny --iterations 3 --reps 1 \
    --out "$out" --append BENCH_report.json
  "$tool" report --validate "$out"
done

if [ "$bench" = 1 ]; then
  build/bench/bench_spmm --scale small --out BENCH_spmm.json
  build/bench/bench_dist --scale small --out BENCH_dist.json
  build/bench/bench_kernels_micro --benchmark_format=json \
    2>/dev/null >/tmp/kernels_micro_raw.json
  python3 - <<'EOF'
import json, math, os, re, subprocess

def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

# Provenance stamp: enough to tell a regression from a machine change.
cache = open("build/CMakeCache.txt").read()
def cache_var(name):
    m = re.search(r"^" + name + r":\w+=(.*)$", cache, re.M)
    return m.group(1) if m else "unknown"
cpu = "unknown"
for line in open("/proc/cpuinfo"):
    if line.startswith("model name"):
        cpu = line.split(":", 1)[1].strip()
        break
compiler = sh(cache_var("CMAKE_CXX_COMPILER"), "--version").splitlines()
meta = {
    "nproc": os.cpu_count(),
    "cpu_model": cpu,
    "compiler": compiler[0] if compiler else "unknown",
    "git_sha": sh("git", "rev-parse", "HEAD"),
    "bspmv_observe": cache_var("BSPMV_OBSERVE"),
}

raw = json.load(open("/tmp/kernels_micro_raw.json"))
rows = []
for b in raw["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    row = {"name": b["run_name"], "gflops": b["GFLOP/s"] / 1e9}
    if "exec_threads" in b:  # exec/ group: the threaded driver's width
        row["threads"] = int(b["exec_threads"])
    rows.append(row)
geomean = math.exp(sum(math.log(r["gflops"]) for r in rows) / len(rows))
doc = {
    "bench": "kernels_micro",
    "meta": meta,
    "kernels": rows,
    "geomean_gflops": round(geomean, 4),
}
with open("BENCH_kernels_micro.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"make_report: kernels_micro geomean {geomean:.2f} GFLOP/s "
      f"over {len(rows)} kernels")
EOF
fi

bash scripts/check_links.sh
echo "make_report: OK (reports + trajectory validated)"
