// Span recording for the traced run. Each thread owns one SpanLog, so the
// hot path takes no lock; spans stay in memory and are written once, at the
// end, as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
// A span is named "<layer>.<operation>", after the module whose public call
// it wraps; the layer is the part before the first dot.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared id of the spans of one training round: (worker, epoch, round).
inline std::uint64_t round_id(std::uint32_t worker, std::uint32_t epoch, std::uint32_t round) {
  return (std::uint64_t{worker} << 48) | (std::uint64_t{epoch} << 32) | round;
}

struct Span {
  const char* name = "";  // static "<layer>.<operation>"
  Interval time;          // parent indexes this log
  std::uint64_t id = 0;   // round_id(...) or request index
};

class SpanLog {
 public:
  SpanLog(std::uint32_t pid, std::uint32_t tid, std::string thread_name)
      : pid_(pid), tid_(tid), thread_name_(std::move(thread_name)) {
    spans_.reserve(1 << 14);
  }

  /// Opens a span nested in the innermost open one.
  std::size_t begin(const char* name, std::uint64_t id) {
    Span span;
    span.name = name;
    span.id = id;
    span.time.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.time.start_ns = now_ns();
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void end(std::size_t index) {
    spans_[index].time.end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Records a span measured elsewhere (e.g. reconstructed queue waits).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint64_t id) {
    Span span;
    span.name = name;
    span.id = id;
    span.time = {start_ns, end_ns, -1};
    spans_.push_back(span);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint32_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] const std::string& thread_name() const noexcept { return thread_name_; }

 private:
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::string thread_name_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t id)
      : log_(log), index_(log != nullptr ? log->begin(name, id) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Total self time in seconds per span name over all logs.
std::map<std::string, double> self_seconds_by_name(const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace-event "X" event (microseconds from
/// the earliest span), with thread names and `other_data_json` (a JSON
/// object) under "otherData".
void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::string& other_data_json);

}  // namespace perfbench
