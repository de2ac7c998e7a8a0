#pragma once

/// \file tracer.hpp
/// In-memory spans recorded by the benchmark around its calls into the
/// library's public API.  A span has a name ("<layer>.<call>"), start and
/// end, the span that was open on the same thread when it began (its
/// parent) and the request it served.  Spans stay in per-thread buffers
/// until the run ends; then `write` dumps them and `self_seconds` sums each
/// layer's self time (duration minus the part covered by child spans).
///
/// A null Tracer* turns every ScopedSpan into a no-op, which is how the
/// untraced run measures end-to-end figures.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;      ///< unique, nonzero
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Spans beyond this many per thread are counted, not kept.
  static constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its buffer slot.
  std::size_t begin(const char* name, std::uint64_t request);
  void end(std::size_t slot);

  /// Every recorded span, all threads.  Call after the traced threads ended.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Self seconds per layer (the name up to its first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes one CSV line per span; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Buffer;
  Buffer& local();

  const std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; does nothing when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        slot_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->end(slot_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t slot_;
};

}  // namespace perfbench
