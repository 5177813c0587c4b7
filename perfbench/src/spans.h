// In-memory span recording for the traced run (--trace 1).
//
// Spans wrap the benchmark's own calls into each layer's public functions;
// nothing inside the library is instrumented. Every span has a name, start,
// end and parent; spans of one request share the request id. Each thread
// owns one SpanLog, a fixed-capacity ring that keeps the newest spans, so
// recording costs the same for the whole run and memory stays bounded. The
// logs are written out as JSON lines when the run ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint32_t {
  kRun = 0,         // one workload phase on one thread
  kExecute,         // CCBackend::execute of one request
  kServerRun,       // Server::run over one schedule
  kRequest,         // one server request: intended arrival -> exec end
  kService,         // its CCBackend::execute inside a worker
  kSetup,           // one set-up repetition
  kGenerate,        // generate_schedule
  kBackend,         // make_cc_backend
  kWarmup,          // warm-up executes
  kLadderRung,      // one timed pass of a cost-ladder rung
};

inline const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "run",     "execute", "server.run", "server.request", "server.service",
      "setup",   "setup.generate", "setup.backend", "setup.warmup",
      "ladder.rung"};
  return kNames[static_cast<std::uint32_t>(n)];
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;  // request id, or rung index for ladder spans
  SpanName name = SpanName::kRun;
};

class SpanLog {
 public:
  SpanLog(std::uint32_t thread, std::size_t capacity)
      : thread_(thread), ring_(capacity > 0 ? capacity : 1) {}

  // Ids are unique across threads: thread in the top 16 bits.
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(thread_ + 1) << 48) | ++seq_;
  }

  std::uint64_t record(SpanName name, std::uint64_t parent,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint64_t request = 0,
                       std::uint64_t id = 0) {
    if (id == 0) id = next_id();
    ring_[head_] = Span{id, parent, start_ns, end_ns, request, name};
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++recorded_;
    return id;
  }

  std::uint32_t thread() const { return thread_; }

  // Oldest-first copy of the spans still held.
  std::vector<Span> spans() const {
    std::vector<Span> out;
    const std::size_t held =
        recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                 : ring_.size();
    out.reserve(held);
    const std::size_t first = recorded_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < held; ++i) {
      out.push_back(ring_[(first + i) % ring_.size()]);
    }
    return out;
  }

 private:
  std::uint32_t thread_;
  std::vector<Span> ring_;
  std::size_t head_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t recorded_ = 0;
};

// Writes every log as JSON lines; false if the file cannot be written.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"request\":%llu,"
                   "\"thread\":%u}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   span_name(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request), log->thread());
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
