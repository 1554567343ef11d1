//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the traced run. A span is one call into a
/// layer's public function, timed from the benchmark's own code: name,
/// start, end, parent span and request id. Spans are appended to a
/// preallocated vector on the one tracing thread and written out as JSON
/// lines when the run ends, so recording costs two clock reads and a
/// push_back.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PERFBENCH_TRACE_H
#define CONVGEN_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent; ///< Index of the parent span, -1 for a request root.
    int64_t Request;
  };

  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {
    Spans.reserve(1 << 16);
  }

  /// Opens a span; returns its index for close() and as a parent.
  int32_t open(const char *Name, int32_t Parent, int64_t Request) {
    Spans.push_back({Name, nowNs(), 0, Parent, Request});
    return static_cast<int32_t>(Spans.size() - 1);
  }

  /// Closes span \p Id and returns its duration in microseconds.
  double close(int32_t Id) {
    Span &S = Spans[static_cast<size_t>(Id)];
    S.EndNs = nowNs();
    return static_cast<double>(S.EndNs - S.StartNs) * 1e-3;
  }

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}\n",
                   I, S.Name, static_cast<long long>(S.StartNs),
                   static_cast<long long>(S.EndNs), S.Parent,
                   static_cast<long long>(S.Request));
    }
    return std::fclose(F) == 0;
  }

  size_t size() const { return Spans.size(); }

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // CONVGEN_PERFBENCH_TRACE_H
