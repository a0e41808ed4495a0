#include "perfbench/src/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>

#include "src/util/prng.hpp"

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();
thread_local std::uint32_t t_current = 0;  // innermost open span per thread

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void Tracer::record(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

Tracer::Scope::Scope(Tracer& t, std::string_view name, std::int64_t request,
                     std::uint32_t parent) {
  if (!t.on()) return;
  t_ = &t;
  span_.id = t.next_id_++;
  span_.parent = parent ? parent : t_current;
  span_.name = name;
  span_.request = request;
  saved_ = t_current;
  t_current = span_.id;
  span_.start = t.now();
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  span_.end = t_->now();
  t_current = saved_;
  t_->record(std::move(span_));
}

Json Tracer::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) children[s.parent].push_back(&s);
  struct Agg {
    std::uint64_t calls = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (const Span* c : children[s.id])
      iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    Agg& g = agg[s.name];
    ++g.calls;
    g.total += s.end - s.start;
    g.self += std::max(0.0, s.end - s.start - covered);
  }
  Json::Object out;
  for (const auto& [name, g] : agg) {
    Json::Object o;
    o["calls"] = g.calls;
    o["total_s"] = g.total;
    o["self_s"] = g.self;
    out[name] = Json(std::move(o));
  }
  return Json(std::move(out));
}

void Tracer::write(const std::string& path, Json registry) const {
  Json::Array spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans.reserve(spans_.size());
    for (const Span& s : spans_) {
      Json::Object o;
      o["id"] = static_cast<std::uint64_t>(s.id);
      o["parent"] = static_cast<std::uint64_t>(s.parent);
      o["name"] = s.name;
      o["start_s"] = s.start;
      o["end_s"] = s.end;
      if (s.request >= 0) o["request"] = s.request;
      spans.emplace_back(std::move(o));
    }
  }
  Json::Object doc;
  doc["self_time"] = summary();
  doc["spans"] = Json(std::move(spans));
  doc["registry"] = std::move(registry);
  std::ofstream(path) << Json(std::move(doc)).dump(-1) << "\n";
}

Reference reference(const Csr<double>& a, const double* x, bool corrupt) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_ind();
  const auto& v = a.val();
  Reference r;
  r.y.assign(static_cast<std::size_t>(a.rows()), 0.0);
  r.scale.assign(r.y.size(), 0.0);
  for (std::size_t i = 0; i < r.y.size(); ++i) {
    double s = 0.0, m = 0.0;
    for (auto k = rp[i]; k < rp[i + 1]; ++k) {
      const double t = v[k] * x[ci[k]];
      s += t;
      m += std::fabs(t);
    }
    r.y[i] = s;
    r.scale[i] = m;
  }
  if (corrupt)
    for (std::size_t i = 0; i < r.y.size(); i += 97)
      r.y[i] += 1.0 + 2.0 * r.scale[i];
  return r;
}

bool matches(const Reference& r, const double* y) {
  for (std::size_t i = 0; i < r.y.size(); ++i)
    if (!(std::fabs(y[i] - r.y[i]) <= kTol * r.scale[i] + 1e-300))
      return false;
  return true;
}

std::vector<double> make_x(std::size_t n, std::uint64_t seed) {
  bspmv::Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& e : x) e = rng.uniform() - 0.5;
  return x;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (pos == static_cast<double>(lo) || v[hi] == v[lo]) return v[lo];
  if (std::isinf(v[hi])) return v[hi];  // failed operations count as infinite
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double e : v) s += std::log(e);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
