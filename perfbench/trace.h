// Bench-side span recorder.
//
// Spans wrap the calls the serving benchmark makes into each layer's
// public functions (net::Client, serve::KvService, quorum::QuorumSystem,
// replica::InstantCluster). Each thread that records gets its own Lane,
// registered once under a mutex and then written without locks; lanes
// live as long as the Tracer, so the driver reads them after every
// recording thread has been joined.
//
// Every span also lands in a per-(phase, name) duration histogram, so the
// per-layer numbers cover all spans even after the in-memory span buffer
// (kSpansPerPhase spans per phase, written out at exit) has filled.
// Set-up spans (the key pre-writes) only reach the histograms.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/latency_histogram.h"

namespace pqs::perfbench {

enum class SpanName : std::uint32_t {
  kOp = 0,         // root: an op's due time until the driver handed it off
  kClientSend,     // net::Client::send (includes the window-full wait)
  kClientFlush,    // net::Client::flush
  kServeSubmit,    // serve::KvService::try_submit, retried while full
  kServeSojourn,   // try_submit until the completion hook ran
  kQuorumDraw,     // QuorumSystem::sample_mask / sample_into / sample
  kQuorumDrawBatch,  // QuorumSystem::sample_masks
  kReplicaRead,    // InstantCluster::read_into (replay)
  kReplicaWrite,   // InstantCluster::write_into (replay)
  kReplicaReadSelf,   // read_into minus its draw
  kReplicaWriteSelf,  // write_into minus its draw
  kCount,
};

inline const char* span_name(SpanName name) {
  static constexpr const char* kNames[] = {
      "op",           "net.client.send",   "net.client.flush",
      "serve.try_submit", "serve.sojourn", "quorum.draw",
      "quorum.draw_batch", "replica.read", "replica.write",
      "replica.read.self", "replica.write.self",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                    static_cast<std::size_t>(SpanName::kCount),
                "one label per span name");
  return kNames[static_cast<std::size_t>(name)];
}

// Benchmark phases the per-name statistics are split by.
enum class Phase : std::uint32_t {
  kSetup = 0,
  kPaced,
  kSaturate,
  kReplay,
  kCount,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      // 0 = root
  std::uint64_t request_id = 0;  // 0 = not tied to one request
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name = SpanName::kOp;
  Phase phase = Phase::kSetup;
};

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  stats::LatencyHistogram durations;

  void add(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    durations.record(ns);
  }
  void merge(const SpanStats& o) {
    count += o.count;
    total_ns += o.total_ns;
    durations.merge(o.durations);
  }
  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

class Tracer {
 public:
  // Spans kept in memory per phase over all lanes; later ones, and every
  // set-up span, only reach the statistics.
  static constexpr std::uint64_t kSpansPerPhase = std::uint64_t{1} << 17;

  struct Lane {
    std::uint64_t lane_bits = 0;  // high bits of this lane's span ids
    std::uint64_t next_seq = 1;
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
    // The replay sets these around a cluster call so that the quorum
    // decorator can parent its draw span to it.
    std::uint64_t current_parent = 0;
    std::uint64_t current_request = 0;
    std::uint64_t child_ns = 0;  // draw time accrued under current_parent
    using PhaseStats =
        std::array<SpanStats, static_cast<std::size_t>(SpanName::kCount)>;
    std::array<PhaseStats, static_cast<std::size_t>(Phase::kCount)> stats;
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  void set_phase(Phase phase) {
    phase_.store(static_cast<std::uint32_t>(phase), std::memory_order_relaxed);
  }
  Phase phase() const {
    return static_cast<Phase>(phase_.load(std::memory_order_relaxed));
  }

  // The calling thread's lane, registered on first use.
  Lane& lane() {
    thread_local Tracer* owner = nullptr;
    thread_local Lane* mine = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(lanes_mutex_);
      auto lane = std::make_unique<Lane>();
      lane->lane_bits = static_cast<std::uint64_t>(lanes_.size() + 1) << 48;
      mine = lane.get();
      owner = this;
      lanes_.push_back(std::move(lane));
    }
    return *mine;
  }

  // Records one span on the calling thread's lane and returns its id.
  // `id` 0 allocates a lane-local id; request roots pass their request id.
  std::uint64_t record(SpanName name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent,
                       std::uint64_t request_id, std::uint64_t id = 0) {
    Lane& l = lane();
    if (id == 0) id = l.lane_bits | l.next_seq++;
    const Phase p = phase();
    const std::uint64_t ns = end_ns > start_ns ? end_ns - start_ns : 0;
    l.stats[static_cast<std::size_t>(p)][static_cast<std::size_t>(name)]
        .add(ns);
    if (p != Phase::kSetup &&
        kept_[static_cast<std::size_t>(p)].fetch_add(
            1, std::memory_order_relaxed) < kSpansPerPhase) {
      l.spans.push_back(
          Span{id, parent, request_id, start_ns, end_ns, name, p});
    } else {
      ++l.dropped;
    }
    return id;
  }

  // Adds a derived duration, such as a self time, to the statistics of
  // the calling thread's lane without keeping a span for it.
  void note(SpanName name, std::uint64_t ns) {
    lane().stats[static_cast<std::size_t>(phase())]
                [static_cast<std::size_t>(name)]
                    .add(ns);
  }

  // Statistics for one (phase, name), merged over every lane. Call only
  // after the recording threads have been joined.
  SpanStats merged(Phase phase, SpanName name) const {
    SpanStats out;
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    for (const auto& l : lanes_) {
      out.merge(l->stats[static_cast<std::size_t>(phase)]
                        [static_cast<std::size_t>(name)]);
    }
    return out;
  }

  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    std::uint64_t total = 0;
    for (const auto& l : lanes_) total += l->dropped;
    return total;
  }

  // Writes every kept span as CSV. Returns false when the file cannot be
  // written.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,request_id,name,phase,start_ns,end_ns\n");
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    for (const auto& l : lanes_) {
      for (const Span& s : l->spans) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%u,%llu,%llu\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request_id),
                     span_name(s.name), static_cast<unsigned>(s.phase),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint32_t> phase_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Phase::kCount)>
      kept_{};  // value-initialized: all zero
  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace pqs::perfbench
