#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> next_generation{1};

}  // namespace

struct Tracer::Buffer {
  std::uint64_t index = 0;  ///< buffer number, high bits of span ids
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< slots of the spans open on this thread
  std::uint64_t dropped = 0;
};

namespace {

/// The calling thread's buffer for the tracer of one generation; a thread
/// that outlives a tracer starts afresh with the next one.
struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;

constexpr std::size_t kDroppedSlot = ~std::size_t{0};

}  // namespace

Tracer::Tracer() : generation_(next_generation.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::Buffer& Tracer::local() {
  if (local_slot.generation != generation_) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->index = buffers_.size() + 1;
    buffer->spans.reserve(4096);
    local_slot = LocalSlot{generation_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(local_slot.buffer);
}

std::size_t Tracer::begin(const char* name, std::uint64_t request) {
  Buffer& buffer = local();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    ++buffer.dropped;
    buffer.open.push_back(kDroppedSlot);
    return kDroppedSlot;
  }
  Span span;
  span.name = name;
  span.id = (buffer.index << 40) | (buffer.spans.size() + 1);
  for (auto it = buffer.open.rbegin(); it != buffer.open.rend(); ++it) {
    if (*it != kDroppedSlot) {
      span.parent = buffer.spans[*it].id;
      break;
    }
  }
  span.request = request;
  span.start_ns = now_ns();
  buffer.spans.push_back(span);
  buffer.open.push_back(buffer.spans.size() - 1);
  return buffer.spans.size() - 1;
}

void Tracer::end(std::size_t slot) {
  Buffer& buffer = local();
  if (slot != kDroppedSlot) {
    buffer.spans[slot].end_ns = now_ns();
  }
  buffer.open.pop_back();
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped;
  }
  return total;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const auto all = spans();
  // Children of one span run on its thread and nest inside it, so the part
  // of the parent they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& span : all) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const auto& span : all) {
    const std::string name(span.name);
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = child_ns.find(span.id);
    const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
    self[layer] += static_cast<double>(span.end_ns - span.start_ns - covered) *
                   1e-9;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "name,id,parent,request,start_ns,end_ns\n");
  for (const auto& span : spans()) {
    std::fprintf(file, "%s,%llu,%llu,%llu,%lld,%lld\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
