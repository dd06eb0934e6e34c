#include "common/trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/logging.h"

namespace cgq {

namespace {

// ----------------------------------------------------------------------
// Metrics registry storage.

struct MetricCell {
  MetricsRegistry::Counter counter;
  MetricsRegistry::Gauge gauge;
  bool is_gauge = false;
};

struct MetricsStore {
  std::mutex mu;
  // std::map keeps Snapshot() sorted by name for free.
  std::map<std::string, MetricCell*> cells;
};

// Leaked singleton: cells must outlive the static-destruction phase
// because call sites cache raw pointers in function-local statics.
MetricsStore& TheMetrics() {
  static MetricsStore* store = new MetricsStore();
  return *store;
}

MetricCell* GetCell(const std::string& name, bool gauge) {
  MetricsStore& store = TheMetrics();
  std::lock_guard<std::mutex> lock(store.mu);
  auto it = store.cells.find(name);
  if (it == store.cells.end()) {
    auto* cell = new MetricCell();
    cell->is_gauge = gauge;
    it = store.cells.emplace(name, cell).first;
  }
  CGQ_CHECK(it->second->is_gauge == gauge)
      << "metric '" << name << "' registered as both counter and gauge";
  return it->second;
}

// ----------------------------------------------------------------------
// Thread-local trace context (installed by ScopedTraceContext).

#ifdef CGQ_TRACING
struct TraceTls {
  TraceSession* session = nullptr;
  int64_t span = -1;
  int track = 0;
};

TraceTls& Tls() {
  thread_local TraceTls tls;
  return tls;
}
#endif  // CGQ_TRACING

// ----------------------------------------------------------------------
// JSON rendering helpers.

std::string RenderInt(int64_t v) { return std::to_string(v); }

// %.17g round-trips doubles exactly, so traced byte counts reconcile
// bit-for-bit with ExecMetrics totals.
std::string RenderDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderString(const std::string& v) {
  const std::string escaped = EscapeJson(v);
  return "\"" + escaped + "\"";
}

}  // namespace

// ----------------------------------------------------------------------
// MetricsRegistry.

MetricsRegistry::Counter* MetricsRegistry::GetCounter(
    const std::string& name) {
  return &GetCell(name, /*gauge=*/false)->counter;
}

MetricsRegistry::Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return &GetCell(name, /*gauge=*/true)->gauge;
}

int64_t MetricsRegistry::Value(const std::string& name) {
  MetricsStore& store = TheMetrics();
  std::lock_guard<std::mutex> lock(store.mu);
  auto it = store.cells.find(name);
  if (it == store.cells.end()) return 0;
  return it->second->is_gauge ? it->second->gauge.Get()
                              : it->second->counter.Get();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Snapshot() {
  MetricsStore& store = TheMetrics();
  std::lock_guard<std::mutex> lock(store.mu);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(store.cells.size());
  for (const auto& [name, cell] : store.cells) {
    out.emplace_back(name, cell->is_gauge ? cell->gauge.Get()
                                          : cell->counter.Get());
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  MetricsStore& store = TheMetrics();
  std::lock_guard<std::mutex> lock(store.mu);
  for (auto& [name, cell] : store.cells) {
    cell->counter.value_.store(0, std::memory_order_relaxed);
    cell->gauge.value_.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------------
// TraceSession.

TraceSession::TraceSession(std::string label, TraceClock clock)
    : label_(std::move(label)),
      clock_(clock),
      start_(std::chrono::steady_clock::now()) {}

int64_t TraceSession::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

int64_t TraceSession::BeginSpan(const char* name, int64_t parent,
                                int ordinal, int track) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.ordinal = ordinal;
  rec.track = track;
  rec.begin_us = NowUs();
  spans_.push_back(std::move(rec));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceSession::EndSpan(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  SpanRecord& rec = spans_[static_cast<size_t>(id)];
  if (rec.end_us < 0) rec.end_us = NowUs();
}

void TraceSession::AddSpanArg(int64_t id, const char* key, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].args.emplace_back(key, RenderInt(value));
}

void TraceSession::AddSpanArg(int64_t id, const char* key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].args.emplace_back(key,
                                                    RenderDouble(value));
}

void TraceSession::AddSpanArg(int64_t id, const char* key,
                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int64_t>(spans_.size())) return;
  spans_[static_cast<size_t>(id)].args.emplace_back(key,
                                                    RenderString(value));
}

size_t TraceSession::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<CanonicalSpan> TraceSession::CanonicalSpans() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t now = NowUs();
    for (SpanRecord& rec : spans_) {
      if (rec.end_us < 0) rec.end_us = now;
    }
    spans = spans_;
  }

  // Children sorted by (ordinal, begin id): concurrent siblings carry an
  // explicit ordinal, sequential siblings fall back to creation order.
  size_t n = spans.size();
  std::vector<std::vector<size_t>> children(n);
  std::vector<size_t> roots;
  for (size_t i = 0; i < n; ++i) {
    int64_t p = spans[i].parent;
    if (p >= 0 && p < static_cast<int64_t>(n)) {
      children[static_cast<size_t>(p)].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  auto by_ordinal = [&spans](size_t a, size_t b) {
    if (spans[a].ordinal != spans[b].ordinal) {
      return spans[a].ordinal < spans[b].ordinal;
    }
    return a < b;
  };
  std::sort(roots.begin(), roots.end(), by_ordinal);
  for (auto& c : children) std::sort(c.begin(), c.end(), by_ordinal);

  std::vector<CanonicalSpan> out;
  out.reserve(n);
  const bool deterministic = clock_ == TraceClock::kDeterministic;
  int64_t tick = 0;
  // Preorder walk. In deterministic mode each span's begin is the next
  // virtual tick and its duration is its subtree's tick count, so a
  // parent exactly covers its children (plus one tick for itself).
  std::function<void(size_t, int, const std::string&)> visit =
      [&](size_t idx, int depth, const std::string& parent_path) {
        const SpanRecord& rec = spans[idx];
        CanonicalSpan c;
        c.name = rec.name;
        c.path = parent_path.empty() ? rec.name : parent_path + "/" + rec.name;
        c.depth = depth;
        c.ordinal = rec.ordinal;
        c.track = rec.track;
        c.args = rec.args;
        if (deterministic) {
          c.ts = tick++;
        } else {
          c.ts = rec.begin_us;
          c.dur = std::max<int64_t>(rec.end_us - rec.begin_us, 0);
        }
        size_t pos = out.size();
        out.push_back(std::move(c));
        for (size_t child : children[idx]) {
          visit(child, depth + 1, out[pos].path);
        }
        if (deterministic) out[pos].dur = tick - out[pos].ts;
      };
  for (size_t r : roots) visit(r, 0, "");
  return out;
}

std::string TraceSession::ToChromeJson() const {
  std::vector<CanonicalSpan> spans = CanonicalSpans();
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << " {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"cgq\"}}";
  for (const CanonicalSpan& s : spans) {
    os << ",\n {\"name\":\"" << EscapeJson(s.name)
       << "\",\"cat\":\"cgq\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.track
       << ",\"ts\":" << s.ts << ",\"dur\":" << s.dur;
    if (!s.args.empty()) {
      os << ",\"args\":{";
      bool first = true;
      for (const auto& [key, value] : s.args) {
        if (!first) os << ",";
        first = false;
        os << "\"" << EscapeJson(key) << "\":" << value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\""
     << (clock_ == TraceClock::kDeterministic ? "deterministic" : "wall")
     << "\",\"label\":\"" << EscapeJson(label_) << "\"}}\n";
  return os.str();
}

TraceSession* TraceSession::Current() {
#ifdef CGQ_TRACING
  return Tls().session;
#else
  return nullptr;
#endif
}

int64_t TraceSession::CurrentSpanId() {
#ifdef CGQ_TRACING
  return Tls().span;
#else
  return -1;
#endif
}

int TraceSession::CurrentTrack() {
#ifdef CGQ_TRACING
  return Tls().track;
#else
  return 0;
#endif
}

// ----------------------------------------------------------------------
// ScopedTraceContext / TraceSpan (compiled-in variants).

#ifdef CGQ_TRACING

ScopedTraceContext::ScopedTraceContext(TraceSession* session,
                                       int64_t parent, int track) {
  TraceTls& tls = Tls();
  prev_session_ = tls.session;
  prev_span_ = tls.span;
  prev_track_ = tls.track;
  tls.session = session;
  tls.span = parent;
  tls.track = track;
}

ScopedTraceContext::~ScopedTraceContext() {
  TraceTls& tls = Tls();
  tls.session = prev_session_;
  tls.span = prev_span_;
  tls.track = prev_track_;
}

TraceSpan::TraceSpan(const char* name, int ordinal) {
  TraceTls& tls = Tls();
  if (tls.session == nullptr) return;
  session_ = tls.session;
  prev_span_ = tls.span;
  id_ = session_->BeginSpan(name, prev_span_, ordinal, tls.track);
  tls.span = id_;
}

void TraceSpan::End() {
  if (session_ == nullptr || ended_) return;
  ended_ = true;
  session_->EndSpan(id_);
  Tls().span = prev_span_;
}

void TraceSpan::AddArg(const char* key, int64_t value) {
  if (session_ != nullptr) session_->AddSpanArg(id_, key, value);
}

void TraceSpan::AddArg(const char* key, double value) {
  if (session_ != nullptr) session_->AddSpanArg(id_, key, value);
}

void TraceSpan::AddArg(const char* key, const std::string& value) {
  if (session_ != nullptr) session_->AddSpanArg(id_, key, value);
}

#endif  // CGQ_TRACING

}  // namespace cgq
