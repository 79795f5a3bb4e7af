#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/jsonl.hpp"

namespace divbench {

namespace {

std::atomic<std::uint64_t> g_generation{1};

// The calling thread's buffer in the tracer of the given generation.  A new
// tracer (new generation) makes every thread register afresh.
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Interval = std::pair<std::int64_t, std::int64_t>;

// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::vector<Interval> intervals, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::unordered_map<std::uint64_t, std::vector<Interval>> children_by_parent(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  return children;
}

}  // namespace

std::string SpanKey::str() const {
  std::string text;
  for (const std::int64_t part : {campaign, replica, attempt}) {
    if (part < 0) {
      break;
    }
    if (!text.empty()) {
      text += '/';
    }
    text += std::to_string(part);
  }
  return text;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      generation_(g_generation.fetch_add(1)),
      origin_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - origin_ns_; }

Tracer::Buffer& Tracer::local() {
  if (t_slot.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    t_slot = {generation_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

Span::Span(Tracer& tracer, const char* name, SpanKey key,
           std::uint64_t parent)
    : tracer_(&tracer) {
  if (!tracer.enabled()) {
    return;
  }
  buffer_ = &tracer.local();
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  if (parent == 0 && !buffer_->open.empty()) {
    parent = buffer_->open.back();
  }
  index_ = buffer_->spans.size();
  buffer_->spans.push_back(SpanRecord{name, id_, parent, tracer.now_ns(), 0,
                                      buffer_->thread, key});
  buffer_->open.push_back(id_);
}

Span::~Span() {
  if (buffer_ == nullptr) {
    return;
  }
  buffer_->spans[index_].end_ns = tracer_->now_ns();
  buffer_->open.pop_back();
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<SpanRecord>& spans) {
  const auto children = children_by_parent(spans);
  std::map<std::string, LayerTotals> totals;
  for (const SpanRecord& span : spans) {
    LayerTotals& layer = totals[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = covered_ns(it->second, span.start_ns, span.end_ns);
    }
    ++layer.count;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

double child_coverage_s(const std::vector<SpanRecord>& spans,
                        const SpanRecord& root) {
  std::vector<Interval> intervals;
  for (const SpanRecord& span : spans) {
    if (span.parent == root.id) {
      intervals.emplace_back(span.start_ns, span.end_ns);
    }
  }
  return static_cast<double>(
             covered_ns(std::move(intervals), root.start_ns, root.end_ns)) *
         1e-9;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::string& context) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  const auto children = children_by_parent(spans);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << context
      << ",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = covered_ns(it->second, span.start_ns, span.end_ns);
    }
    divlib::JsonObject args;
    args.field("id", span.id)
        .field("parent", span.parent)
        .field("key", span.key.str())
        .field("self_us",
               static_cast<double>(span.end_ns - span.start_ns - covered) /
                   1000.0);
    divlib::JsonObject event;
    event.field("name", span.name)
        .field("cat", "divbench")
        .field("ph", "X")
        .field("ts", static_cast<double>(span.start_ns) / 1000.0)
        .field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1000.0)
        .field("pid", static_cast<std::uint64_t>(1))
        .field("tid", static_cast<std::uint64_t>(span.thread))
        .raw_field("args", args.str());
    out << (first ? "\n" : ",\n") << event.str();
    first = false;
  }
  out << "\n]}\n";
  if (!out.flush()) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace divbench
