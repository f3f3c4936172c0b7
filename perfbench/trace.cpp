#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

std::map<std::string, double> self_seconds_by_name(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    std::vector<Interval> intervals;
    intervals.reserve(log->spans().size());
    for (const Span& span : log->spans()) intervals.push_back(span.time);
    const std::vector<std::int64_t> self = self_times(intervals);
    for (std::size_t i = 0; i < self.size(); ++i) {
      out[log->spans()[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                        const std::string& other_data_json) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) origin = std::min(origin, span.time.start_ns);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_data_json
      << ",\"traceEvents\":[\n";
  bool first = true;
  char buffer[512];
  for (const SpanLog* log : logs) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", log->pid(), log->tid(), log->thread_name().c_str());
    out << buffer;
    first = false;
    for (const Span& span : log->spans()) {
      const std::string name = span.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::snprintf(buffer, sizeof(buffer),
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":%u,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%lld}}",
                    span.name, layer.c_str(),
                    static_cast<double>(span.time.start_ns - origin) * 1e-3,
                    static_cast<double>(span.time.end_ns - span.time.start_ns) * 1e-3, log->pid(),
                    log->tid(), static_cast<unsigned long long>(span.id),
                    static_cast<long long>(span.time.parent));
      out << buffer;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
