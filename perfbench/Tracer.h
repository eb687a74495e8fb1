//===- Tracer.h - in-memory spans for the padx benchmark --------*- C++ -*-===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span recorder for the benchmark's traced run. A span is one call
/// into a padx layer, opened and closed by the benchmark around the
/// call: name ("<layer>.<call>"), start, end, the enclosing span on the
/// same thread, and the request it served. Spans stay in memory and are
/// written out once, when the run ends. A disabled tracer records
/// nothing, so the timed runs pay one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_PERFBENCH_TRACER_H
#define PADX_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string Name;
  double Start = 0; ///< Seconds since the tracer was created.
  double End = 0;
  int64_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int64_t Request = -1; ///< Request the span served, -1 for none.

  double seconds() const { return End - Start; }
  /// The layer is the name up to the first dot.
  std::string layer() const { return Name.substr(0, Name.find('.')); }
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  /// Turns recording on or off between passes; the traced run
  /// alternates to measure its own overhead.
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span on the calling thread and returns its index.
  int64_t open(const std::string &Name, int64_t Request) {
    std::lock_guard<std::mutex> G(M);
    Span S;
    S.Name = Name;
    S.Start = now();
    S.Parent = Stack().empty() ? -1 : Stack().back();
    S.Request = Request;
    Spans.push_back(std::move(S));
    int64_t Id = static_cast<int64_t>(Spans.size()) - 1;
    Stack().push_back(Id);
    return Id;
  }

  void close(int64_t Id) {
    std::lock_guard<std::mutex> G(M);
    Spans[static_cast<size_t>(Id)].End = now();
    Stack().pop_back();
  }

  /// Every recorded span. Call only after all recording threads joined.
  const std::vector<Span> &spans() const { return Spans; }

  /// Sum of durations per layer, and self time per layer: each span's
  /// duration minus the durations of its direct children. Children of
  /// one span run on its thread, one after another, so they never
  /// overlap and their sum is the covered part of the parent.
  void layerTimes(std::map<std::string, double> &Total,
                  std::map<std::string, double> &Self) const {
    std::vector<double> ChildSum(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildSum[static_cast<size_t>(S.Parent)] += S.seconds();
    for (size_t I = 0; I != Spans.size(); ++I) {
      Total[Spans[I].layer()] += Spans[I].seconds();
      Self[Spans[I].layer()] += Spans[I].seconds() - ChildSum[I];
    }
  }

private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
  /// Open spans of the calling thread, innermost last.
  static std::vector<int64_t> &Stack() {
    thread_local std::vector<int64_t> S;
    return S;
  }

  bool Enabled;
  Clock::time_point Epoch;
  std::mutex M; ///< Guards Spans.
  std::vector<Span> Spans;
};

/// RAII span: records nothing when the tracer is off.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, int64_t Request = -1)
      : T(T), Id(T.enabled() ? T.open(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (Id >= 0)
      T.close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int64_t Id;
};

} // namespace perfbench

#endif // PADX_PERFBENCH_TRACER_H
