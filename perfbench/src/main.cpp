// perfbench: the repository's benchmark driver.
//
//   perfbench --workload solve|serve|dist --seed N --seconds S --trace 0|1
//             [--state-dir DIR] [--corrupt-reference 1]
//   perfbench --workload profile [--state-dir DIR]
//
// `--workload profile` only makes (or loads) the machine profile, so the
// first measured run of a checkout does not carry the profiler's time and
// memory.
//
// Prints a metric table and a run-metadata line, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the named workload's end-to-end metrics, with --trace 1 the
// per-layer metrics of all three workloads. See perfbench/README.md.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "perfbench/src/workloads.hpp"
#include "src/observe/registry.hpp"
#include "src/profile/block_profiler.hpp"
#include "src/profile/cache_info.hpp"
#include "src/util/errors.hpp"
#include "src/util/timing.hpp"

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string cpu_model() {
  std::istringstream in(read_file("/proc/cpuinfo"));
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw bspmv::invalid_argument_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--corrupt-reference") {
      a.corrupt_reference = v != "0";
    } else if (k == "--state-dir") {
      a.state_dir = v;
    } else {
      throw bspmv::invalid_argument_error("unknown option " + k);
    }
  }
  if (!have_workload || (a.workload != "solve" && a.workload != "serve" &&
                         a.workload != "dist" && a.workload != "profile"))
    throw bspmv::invalid_argument_error(
        "--workload must be solve, serve, dist or profile");
  if (!(a.seconds > 0.0)) throw bspmv::invalid_argument_error("--seconds must be > 0");
  return a;
}

/// One machine profile per machine, made once with the default
/// ProfileOptions and loaded on every later run. A profile that exists
/// but does not load is re-made, and the run says so.
bspmv::MachineProfile machine_profile(const Args& args, Json::Object& meta) {
  const std::string path = args.state_dir + "/machine_profile.json";
  const std::string cold_path = args.state_dir + "/profile_cold_s.txt";
  const bool had_file = exists(path);
  if (had_file)
    if (auto p = bspmv::MachineProfile::try_load(path)) {
      meta["profile_status"] = "loaded";
      return *p;
    }
  meta["profile_status"] = had_file ? "reprofiled (existing profile failed to load)"
                                    : "created";
  std::printf("profile: %s; profiling this machine with default ProfileOptions\n",
              had_file ? "existing profile failed to load" : "no profile yet");
  std::fflush(stdout);
  bspmv::Timer t;
  bspmv::MachineProfile p = bspmv::profile_machine();
  const double cold_s = t.elapsed();
  p.save(path);
  std::ofstream(cold_path) << cold_s << "\n";
  return p;
}

Json registry_json() {
  const auto snap = bspmv::observe::CounterRegistry::instance().snapshot();
  Json::Object spans, counters, threads;
  for (const auto& [k, s] : snap.spans) {
    Json::Object o;
    o["seconds"] = s.seconds;
    o["calls"] = s.calls;
    spans[k] = Json(std::move(o));
  }
  for (const auto& [k, n] : snap.counters) counters[k] = n;
  for (const auto& [k, per] : snap.thread_times) {
    Json::Object t;
    for (const auto& [tid, st] : per) {
      Json::Object o;
      o["seconds"] = st.seconds;
      o["calls"] = st.calls;
      o["items"] = st.items;
      t[std::to_string(tid)] = Json(std::move(o));
    }
    threads[k] = Json(std::move(t));
  }
  Json::Object o;
  o["spans"] = Json(std::move(spans));
  o["counters"] = Json(std::move(counters));
  o["thread_times"] = Json(std::move(threads));
  return Json(std::move(o));
}

void run_workload(const Context& ctx, Result& res) {
  if (ctx.args.workload == "solve") run_solve(ctx, res);
  else if (ctx.args.workload == "serve") run_serve(ctx, res);
  else run_dist(ctx, res);
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v && *v ? v : fallback;
}

int run(int argc, char** argv) {
  Context ctx;
  ctx.args = parse(argc, argv);
  const Args& args = ctx.args;
  ::mkdir(args.state_dir.c_str(), 0755);
  ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Result res;
  auto& meta = res.meta;
  bspmv::Timer load;
  ctx.profile = machine_profile(args, meta);
  const double profile_load_s = load.elapsed();
  if (args.workload == "profile") {
    std::printf("profile: %s\n", meta["profile_status"].as_string().c_str());
    return 0;
  }
  const auto cache = bspmv::detect_cache_info();
  meta["workload"] = args.workload;
  meta["seed"] = static_cast<std::uint64_t>(args.seed);
  meta["seconds"] = args.seconds;
  meta["trace"] = args.trace;
  meta["cpu_model"] = cpu_model();
  meta["nproc"] = ctx.nproc;
  meta["l1d_bytes"] = static_cast<std::uint64_t>(cache.l1d_bytes);
  meta["l2_bytes"] = static_cast<std::uint64_t>(cache.l2_bytes);
  meta["l3_bytes"] = static_cast<std::uint64_t>(cache.llc_bytes);
  meta["profile_effective_llc_bytes"] = ctx.profile.effective_llc_bytes;
  meta["profile_stream_bw_bps"] = ctx.profile.bandwidth_bps;
  meta["compiler"] = std::string("g++ ") + __VERSION__;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["git_sha"] = env_or("PERFBENCH_GIT_SHA", "unavailable");
  meta["source_hash"] = env_or("PERFBENCH_SOURCE_HASH", "unavailable");
  meta["observe_compiled"] = bspmv::observe::kHooksEnabled;
  meta["observe_runtime"] = bspmv::observe::enabled();
  meta["profile_hash"] =
      fnv1a_hex(read_file(args.state_dir + "/machine_profile.json"));
  meta["tolerance"] = kTol;
  meta["corrupt_reference"] = args.corrupt_reference;

  Tracer::instance().enable(args.trace);
  if (!args.trace) {
    run_workload(ctx, res);
  } else {
    // A traced run reports every per-layer metric, so it runs every
    // workload, each for a third of --seconds. `dist` goes first: it forks
    // its ranks, best done before this process has started thread pools.
    Context part = ctx;
    part.args.seconds = args.seconds / 3.0;
    Json::Array order;
    for (const char* w : {"dist", "serve", "solve"}) {
      part.args.workload = w;
      order.emplace_back(w);
      run_workload(part, res);
    }
    meta["traced_workloads"] = Json(std::move(order));
  }

  // The cold profile is made once per checkout, so its time would read the
  // same on every run: it goes to the metadata. Each run pays the load.
  if (auto cold = read_file(args.state_dir + "/profile_cold_s.txt"); !cold.empty())
    meta["profile_cold_s"] = std::stod(cold);
  if (args.trace)
    res.add("profile.load_s", profile_load_s, "s", "none (paid before setup_s)");

  const std::uint64_t attempted = res.attempted, failed = res.failed;
  const bool correct = attempted > 0 && failed == 0;
  std::printf("%-44s %14s  %-8s %s\n", "metric", "value", "unit", "moves");
  Json::Object out_metrics, all_metrics;
  for (const Metric& m : res.metrics) {
    std::printf("%-44s %14.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.moves.c_str());
    Json::Object o;
    o["value"] = json_number(m.value);
    o["unit"] = m.unit;
    if (!m.moves.empty()) o["moves"] = m.moves;
    all_metrics[m.name] = Json(o);
    // End-to-end metrics have no `moves` tag; a traced run reports only
    // per-layer metrics, a timed run only end-to-end ones. The result
    // line must carry numbers: a percentile over failed operations (only
    // possible when `correct` is false) is written as 1e300.
    if (m.moves.empty() != args.trace) {
      o.erase("moves");
      o["value"] = std::isfinite(m.value) ? m.value : 1e300;
      out_metrics[m.name] = Json(std::move(o));
    }
  }
  std::printf("%-44s %14.6g  %-8s (%llu of %llu operations)\n", "failed_frac",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          (args.trace ? "-trace" : "");
  Json::Object record;
  record["meta"] = Json(meta);
  record["metrics"] = Json(std::move(all_metrics));
  record["attempted"] = attempted;
  record["failed"] = failed;
  ::mkdir((args.state_dir + "/results").c_str(), 0755);
  std::ofstream(args.state_dir + "/results/" + tag + ".json")
      << Json(std::move(record)).dump(2) << "\n";
  if (args.trace)
    Tracer::instance().write(args.state_dir + "/results/" + tag + ".spans.json",
                             registry_json());

  std::printf("meta %s\n", Json(std::move(meta)).dump(-1).c_str());
  Json::Object last;
  last["correct"] = correct;
  last["attempted"] = attempted;
  last["failed"] = failed;
  last["metrics"] = Json(std::move(out_metrics));
  std::printf("%s\n", Json(std::move(last)).dump(-1).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
