// Span recorder of the traced run: the benchmark wraps each call into a
// layer's public functions in a span (name, start, end, parent, request
// id). Spans stay in memory; at the end of the run they are summarized
// per layer (count, total and median self time) and written out as a
// Chrome trace-event JSON file (chrome://tracing, ui.perfetto.dev).
#ifndef E2E_BENCH_SPANS_H_
#define E2E_BENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

class Spans {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    uint64_t req = 0;
  };

  /// RAII span; nests under the innermost open span of this recorder.
  class Scope {
   public:
    Scope(Spans* spans, const char* name, uint64_t req = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

  Spans() : t0_(Clock::now()) {}

  /// Durations (us) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (us): duration minus the time direct children cover.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Sum of `name` durations (us) per request id, one value per id.
  std::vector<double> SumsByReq(const std::string& name) const;

  /// Prints one row per span name: count, total self ms, median self us.
  void PrintSummary() const;
  /// Writes every span as a Chrome trace-event "X" record. False on I/O
  /// failure.
  bool Write(const std::string& path) const;

 private:
  double NowUs() const { return Since(t0_) * 1e6; }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2e

#endif  // E2E_BENCH_SPANS_H_
