// Outside-in span recorder for `divbench trace`.
//
// The traced run re-executes a workload in-process and wraps each call into
// a library layer in a Span; nothing inside src/ or tools/ is instrumented.
// Spans carry a name (the layer, e.g. "engine.run"), start and end, the
// span that caused them, and the correlation key campaign/replica/attempt.
// They are appended to per-thread in-memory buffers -- no lock on the hot
// path -- and only read after every recording thread has been joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace divbench {

// The correlation key campaign/replica/attempt; -1 marks a part that does
// not apply (a campaign-level span has no replica).  Integers, so recording
// a span allocates nothing.
struct SpanKey {
  std::int64_t campaign = -1;
  std::int64_t replica = -1;
  std::int64_t attempt = -1;
  std::string str() const;  // "3/17/0", "3", or "" when unset
};

struct SpanRecord {
  const char* name = "";      // a string literal: the layer name
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 for a root span
  std::int64_t start_ns = 0;  // since the tracer was created
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   // recording thread, numbered from 1
  SpanKey key;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  // A disabled tracer records nothing, so the same code path runs untraced.
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Every span recorded so far, ordered by start.  Call only when no
  // recording thread is still running.
  std::vector<SpanRecord> collect() const;

 private:
  friend class Span;
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;  // ids of this thread's open spans
  };
  Buffer& local();
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t generation_;
  std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;  // guards buffers_ registration only
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span.  Its parent is `parent` when given (for work handed to another
// thread), else the innermost open span on this thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, SpanKey key = {},
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Buffer* buffer_ = nullptr;  // null when the tracer is disabled
  std::uint64_t id_ = 0;
  std::size_t index_ = 0;  // position in buffer_->spans
};

// Per-layer totals: a span's self time is its duration minus the part of
// its interval that its children (on any thread) cover.
struct LayerTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<SpanRecord>& spans);

// Seconds of [start, end] of span `root` covered by its direct children.
double child_coverage_s(const std::vector<SpanRecord>& spans,
                        const SpanRecord& root);

// Chrome trace-event JSON ("ph":"X" complete events; ts/dur in us), with
// each event's id, parent, key and self time under "args" and `context`
// (a rendered JSON object) under "otherData".  Loads in chrome://tracing
// and Perfetto.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::string& context);

}  // namespace divbench
