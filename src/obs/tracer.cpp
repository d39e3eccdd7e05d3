#include "obs/tracer.h"

#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace locpriv::obs {
namespace {

/// The shared sink thread buffers flush into. Held by shared_ptr from
/// both the Tracer and every thread_local buffer, so a buffer flushing
/// from a late thread-exit destructor always has a live target.
struct Sink {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
};

}  // namespace

struct Tracer::Impl {
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::shared_ptr<Sink> sink = std::make_shared<Sink>();

  std::atomic<std::uint32_t> next_tid{0};

  // Counter cells live in a deque (stable addresses) behind a name index.
  // Registration locks; bumps touch only the returned atomic.
  std::mutex counter_mutex;
  std::deque<std::pair<std::string, std::atomic<std::uint64_t>>> counter_cells;
  std::unordered_map<std::string_view, std::atomic<std::uint64_t>*> counter_index;
};

namespace {

/// Per-thread span buffer. Flushes to the sink on thread exit; the
/// Tracer drains it explicitly for the exporting (main) thread.
struct ThreadBuffer {
  std::shared_ptr<Sink> sink;
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;

  ~ThreadBuffer() { flush(); }

  void flush() {
    if (spans.empty()) return;
    const std::lock_guard<std::mutex> lock(sink->mutex);
    sink->spans.insert(sink->spans.end(), std::make_move_iterator(spans.begin()),
                       std::make_move_iterator(spans.end()));
    spans.clear();
  }
};

ThreadBuffer& thread_buffer(Tracer::Impl& impl) {
  thread_local ThreadBuffer buffer{impl.sink,
                                   impl.next_tid.fetch_add(1, std::memory_order_relaxed),
                                   {}};
  return buffer;
}

}  // namespace

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  // Leaked on purpose (see header): thread-exit flushes must never race
  // static destruction of the sink.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           impl_->epoch)
          .count());
}

void Tracer::enable() {
  reset();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::record(SpanRecord&& rec) { thread_buffer(*impl_).spans.push_back(std::move(rec)); }

void Tracer::flush_this_thread() { thread_buffer(*impl_).flush(); }

std::uint32_t Tracer::this_thread_id() { return thread_buffer(*impl_).tid; }

std::atomic<std::uint64_t>* Tracer::counter_cell(std::string_view name) {
  const std::lock_guard<std::mutex> lock(impl_->counter_mutex);
  const auto it = impl_->counter_index.find(name);
  if (it != impl_->counter_index.end()) return it->second;
  auto& entry = impl_->counter_cells.emplace_back(std::string(name), 0);
  impl_->counter_index.emplace(std::string_view(entry.first), &entry.second);
  return &entry.second;
}

std::map<std::string, std::uint64_t> Tracer::counters() const {
  const std::lock_guard<std::mutex> lock(impl_->counter_mutex);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, cell] : impl_->counter_cells) {
    out.emplace(name, cell.load(std::memory_order_relaxed));
  }
  return out;
}

std::size_t Tracer::collected_spans() const {
  const std::lock_guard<std::mutex> lock(impl_->sink->mutex);
  return impl_->sink->spans.size();
}

io::JsonValue Tracer::trace_json() {
  flush_this_thread();
  io::JsonArray events;
  {
    const std::lock_guard<std::mutex> lock(impl_->sink->mutex);
    events.reserve(impl_->sink->spans.size());
    for (const SpanRecord& rec : impl_->sink->spans) {
      io::JsonObject args;
      for (const auto& [key, v] : rec.num_args) args.emplace(key, v);
      for (const auto& [key, v] : rec.str_args) args.emplace(key, v);
      io::JsonObject event;
      event.emplace("name", rec.name);
      event.emplace("cat", rec.category);
      event.emplace("ph", "X");
      // Trace-event timestamps are microseconds; fractional is allowed.
      event.emplace("ts", static_cast<double>(rec.start_ns) / 1e3);
      event.emplace("dur", static_cast<double>(rec.dur_ns) / 1e3);
      event.emplace("pid", 1);
      event.emplace("tid", static_cast<std::size_t>(rec.tid));
      if (!args.empty()) event.emplace("args", std::move(args));
      events.emplace_back(std::move(event));
    }
  }
  io::JsonObject doc;
  doc.emplace("traceEvents", std::move(events));
  doc.emplace("displayTimeUnit", "ms");
  io::JsonObject other;
  other.emplace("counters", counters_json());
  doc.emplace("otherData", std::move(other));
  return io::JsonValue(std::move(doc));
}

io::JsonValue Tracer::counters_json() const {
  io::JsonObject obj;
  for (const auto& [name, value] : counters()) {
    obj.emplace(name, static_cast<double>(value));
  }
  return io::JsonValue(std::move(obj));
}

void Tracer::write_chrome_trace(const std::string& path) {
  io::write_json_file(path, trace_json());
}

void Tracer::reset() {
  {
    const std::lock_guard<std::mutex> lock(impl_->sink->mutex);
    impl_->sink->spans.clear();
  }
  const std::lock_guard<std::mutex> lock(impl_->counter_mutex);
  for (auto& [name, cell] : impl_->counter_cells) cell.store(0, std::memory_order_relaxed);
}

void Span::start(const char* category, std::string_view name) {
  active_ = true;
  rec_.name = std::string(name);
  rec_.category = category;
  rec_.tid = Tracer::instance().this_thread_id();
  start_ns_ = Tracer::instance().now_ns();
}

void Span::finish() {
  Tracer& tracer = Tracer::instance();
  rec_.start_ns = start_ns_;
  rec_.dur_ns = tracer.now_ns() - start_ns_;
  // Record even if tracing was disabled mid-span: the span was started
  // inside a capture session and belongs to it.
  tracer.record(std::move(rec_));
}

}  // namespace locpriv::obs
