#pragma once

// In-memory spans for the benchmark's traced run. A span covers one call
// from the harness into a library layer; when it closes it adds its
// duration minus the time its child spans covered (its self time) to a
// per-name total. Each span is also an obs::TraceSpan, so when a trace
// session is active the same calls appear in the Chrome trace next to the
// program's own fit / epoch / m_step spans.
//
// Single-threaded: spans nest on the harness thread only.

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "obs/trace.h"

namespace lncl::perfbench {

class SpanRecorder {
 public:
  class Span {
   public:
    // `name` must be a string literal (obs::TraceSpan keeps the pointer).
    Span(SpanRecorder* rec, const char* name)
        : rec_(rec),
          name_(name),
#if LNCL_TRACE_ENABLED
          trace_(name),
#endif
          parent_(rec != nullptr ? rec->top_ : nullptr),
          start_(Clock::now()) {
      if (rec_ != nullptr) rec_->top_ = this;
    }
    ~Span() {
      if (rec_ == nullptr) return;
      const double s =
          std::chrono::duration<double>(Clock::now() - start_).count();
      auto it = rec_->self_s_.find(name_);  // no allocation once seen
      if (it == rec_->self_s_.end()) {
        it = rec_->self_s_.emplace(name_, 0.0).first;
      }
      it->second += s - child_s_;
      if (parent_ != nullptr) parent_->child_s_ += s;
      rec_->top_ = parent_;
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    using Clock = std::chrono::steady_clock;
    SpanRecorder* rec_;
    const char* name_;
#if LNCL_TRACE_ENABLED
    obs::TraceSpan trace_;
#endif
    Span* parent_;
    double child_s_ = 0.0;
    Clock::time_point start_;
  };

  // Self seconds per span name.
  const std::map<std::string, double, std::less<>>& self_seconds() const {
    return self_s_;
  }

 private:
  Span* top_ = nullptr;
  std::map<std::string, double, std::less<>> self_s_;
};

}  // namespace lncl::perfbench
