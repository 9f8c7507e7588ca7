// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the program itself records nothing). Each span keeps
// its name, start, end, parent span, thread and job id; the whole set is
// held in memory and written once, at exit, as Chrome trace-event JSON,
// which Perfetto and chrome://tracing open offline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  double start = 0;     // steady clock, comparable across processes
  double end = 0;
  uint32_t tid = 0;
  uint64_t job = 0;
  int64_t pid = 0;
};

class Tracer {
 public:
  explicit Tracer(int64_t pid) : pid_(pid) {}

  uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }

  void record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<uint32_t>(tids_.size()));
    span.tid = it->second;
    span.pid = pid_;
    spans_.push_back(std::move(span));
  }

  /// Adds spans recorded by another process (a cold-job child); their
  /// ids are offset so they stay unique within this trace.
  void merge(std::vector<SpanRecord> spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t base = last_id_;
    for (auto& s : spans) {
      s.id += base;
      if (s.parent != 0) s.parent += base;
      last_id_ = std::max(last_id_, s.id);
      spans_.push_back(std::move(s));
    }
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const int64_t pid_;
  mutable std::mutex mutex_;
  uint64_t last_id_ = 0;
  std::map<std::thread::id, uint32_t> tids_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. With a null tracer it only measures. The parent defaults to
/// the innermost open span on this thread; pass it explicitly for work
/// that runs on pool workers.
class Span {
 public:
  static constexpr uint64_t kInherit = ~0ull;

  Span(Tracer* tracer, std::string name, uint64_t job,
       uint64_t parent = kInherit)
      : tracer_(tracer), saved_(current()) {
    record_.name = std::move(name);
    record_.job = job;
    record_.parent = parent == kInherit ? saved_ : parent;
    record_.id = tracer_ != nullptr ? tracer_->next_id() : 0;
    if (tracer_ != nullptr) current() = record_.id;
    record_.start = trident::obs::now_seconds();
  }
  ~Span() {
    record_.end = trident::obs::now_seconds();
    if (tracer_ != nullptr) {
      current() = saved_;
      tracer_->record(std::move(record_));
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }
  double elapsed() const { return trident::obs::now_seconds() - record_.start; }

 private:
  static uint64_t& current() {
    thread_local uint64_t open = 0;
    return open;
  }

  Tracer* tracer_;
  uint64_t saved_;
  SpanRecord record_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds relative to
/// `epoch`).
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              double epoch);

}  // namespace perfbench
