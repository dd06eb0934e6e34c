#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/trace.h"

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double SupportedTail(const std::vector<double>& v, double* p) {
  for (double q : {0.99, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(v.size()) * (1 - q) >= 10) {
      *p = q;
      return Percentile(v, q);
    }
  }
  *p = 0.5;
  return Percentile(v, 0.5);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Mix(const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  void MixRow(const cgq::Row& row) {
    for (const cgq::Value& v : row) {
      if (v.is_null()) {
        Mix("NULL|");
      } else if (v.is_double()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
        Mix(buf);
      } else {
        Mix(v.ToString() + "|");
      }
    }
    Mix("\n");
  }
};

}  // namespace

uint64_t ResultDigest(const cgq::QueryResult& r) {
  Fnv f;
  for (const std::string& name : r.column_names) f.Mix(name + ";");
  for (const cgq::Row& row : r.rows) f.MixRow(row);
  return f.h;
}

uint64_t RowsDigest(const std::vector<cgq::Row>& rows) {
  Fnv f;
  for (const cgq::Row& row : rows) f.MixRow(row);
  return f.h;
}

ShipAccount ShipAccountOf(const cgq::ExecMetrics& m) {
  return ShipAccount{m.ships, m.rows_shipped, m.bytes_shipped};
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

CpuTicks ProcStatTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    int64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const int64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0;
}

int64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

int64_t RegistryValue(const std::string& name) {
  return cgq::MetricsRegistry::Value(name);
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, int thread) {
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, now, -1, thread, false});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(id)];
  s.dur_ms = now - s.start_ms;
}

int64_t Tracer::Derived(const std::string& name, int64_t parent,
                        double dur_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  const Span p = spans_[static_cast<size_t>(parent)];
  spans_.push_back(Span{name, parent, p.start_ms, dur_ms, p.thread, true});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Complete(const std::string& name, int64_t parent,
                         double dur_ms, int thread) {
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, now - dur_ms, dur_ms, thread, false});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Sum of direct-child durations per span id.
std::vector<double> ChildMs(const std::vector<Tracer::Span>& spans) {
  std::vector<double> child(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0 && s.dur_ms > 0) {
      child[static_cast<size_t>(s.parent)] += s.dur_ms;
    }
  }
  return child;
}

}  // namespace

std::map<std::string, double> Tracer::LayerSelfMs() const {
  const std::vector<Span> all = spans();
  const std::vector<double> child = ChildMs(all);
  std::map<std::string, double> self;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].dur_ms < 0) continue;
    const std::string layer = LayerOf(all[i].name);
    if (layer == "client" || layer == "probe") continue;
    if (all[i].name == kSessionSpan) continue;  // its self time is uncovered
    self[layer] += std::max(0.0, all[i].dur_ms - child[i]);
  }
  return self;
}

double Tracer::UncoveredShare() const {
  const std::vector<Span> all = spans();
  const std::vector<double> child = ChildMs(all);
  double session = 0, covered = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name != kSessionSpan || all[i].dur_ms <= 0) continue;
    session += all[i].dur_ms;
    covered += std::min(child[i], all[i].dur_ms);
  }
  return session > 0 ? 1.0 - covered / session : 0;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  const std::vector<Span> all = spans();
  bool first = true;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].dur_ms < 0) continue;
    out << (first ? "" : ",") << "\n{\"name\":" << JsonString(all[i].name)
        << ",\"cat\":" << JsonString(LayerOf(all[i].name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << all[i].thread
        << ",\"ts\":" << JsonNumber(all[i].start_ms * 1000)
        << ",\"dur\":" << JsonNumber(all[i].dur_ms * 1000)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << all[i].parent
        << ",\"derived\":" << (all[i].derived ? "true" : "false") << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Tally::Fail(const std::string& why) {
  ++failed;
  if (problems.size() < 8) problems.push_back(why);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& p : other.problems) {
    if (problems.size() < 8) problems.push_back(p);
  }
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

void MetricSink::PrintTable(const std::string& heading) const {
  std::printf("# %s\n", heading.c_str());
  for (const auto& [name, vu] : values_) {
    std::printf("#   %-36s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
}

std::string MetricSink::JsonObject(
    const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const std::string& name : names) {
    auto it = values_.find(name);
    if (it == values_.end()) continue;
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(it->second.first)
        << ", \"unit\": " << JsonString(it->second.second) << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Require(const cgq::Status& s, const std::string& what) {
  if (!s.ok()) throw SetupError(what + ": " + s.ToString());
}

std::string QueryClass(const std::string& sql) {
  const size_t from = sql.find(" FROM ");
  size_t end = sql.find(" WHERE ", from);
  if (end == std::string::npos) end = sql.size();
  int tables = 1;
  for (size_t i = from; i < end; ++i) tables += sql[i] == ',' ? 1 : 0;
  const bool agg = sql.find(" GROUP BY ") != std::string::npos ||
                   sql.find(" AS agg") != std::string::npos;
  return std::to_string(tables) + (agg ? "-agg" : "-spj");
}

void PrintParams(const std::string& workload,
                 const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string line = "# params {\"workload\": " + JsonString(workload);
  for (const auto& [k, v] : kv) {
    line += ", " + JsonString(k) + ": " + JsonString(v);
  }
  std::printf("%s}\n", line.c_str());
}

}  // namespace perfbench
