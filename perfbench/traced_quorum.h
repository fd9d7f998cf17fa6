// A QuorumSystem decorator that times draws.
//
// Forwards every call to the wrapped construction unchanged, so member
// sets and rng consumption are exactly the wrapped system's (the
// self-test checks this on sample_mask, sample_masks and sample_into),
// and records a span around each draw entry point. When the calling
// thread's lane has a current parent (the replay sets one around each
// InstantCluster call), the draw span becomes its child and its duration
// is added to the lane's child time, so the parent's self time excludes
// the draw.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "quorum/quorum_system.h"
#include "trace.h"

namespace pqs::perfbench {

class TracedQuorumSystem final : public quorum::QuorumSystem {
 public:
  TracedQuorumSystem(std::shared_ptr<const quorum::QuorumSystem> inner,
                     Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  std::uint32_t universe_size() const override {
    return inner_->universe_size();
  }

  quorum::Quorum sample(math::Rng& rng) const override {
    const std::uint64_t t0 = tracer_.now_ns();
    quorum::Quorum out = inner_->sample(rng);
    finish(SpanName::kQuorumDraw, t0);
    return out;
  }
  void sample_into(quorum::Quorum& out, math::Rng& rng) const override {
    const std::uint64_t t0 = tracer_.now_ns();
    inner_->sample_into(out, rng);
    finish(SpanName::kQuorumDraw, t0);
  }
  void sample_mask(quorum::QuorumBitset& out, math::Rng& rng) const override {
    const std::uint64_t t0 = tracer_.now_ns();
    inner_->sample_mask(out, rng);
    finish(SpanName::kQuorumDraw, t0);
  }
  void sample_masks(quorum::QuorumBitset* out, std::size_t count,
                    math::Rng& rng) const override {
    const std::uint64_t t0 = tracer_.now_ns();
    inner_->sample_masks(out, count, rng);
    finish(SpanName::kQuorumDrawBatch, t0);
  }

  std::uint32_t min_quorum_size() const override {
    return inner_->min_quorum_size();
  }
  double load() const override { return inner_->load(); }
  std::uint32_t fault_tolerance() const override {
    return inner_->fault_tolerance();
  }
  double failure_probability(double p) const override {
    return inner_->failure_probability(p);
  }
  bool has_live_quorum(const std::vector<bool>& alive) const override {
    return inner_->has_live_quorum(alive);
  }
  bool has_live_quorum_mask(const quorum::QuorumBitset& alive) const override {
    return inner_->has_live_quorum_mask(alive);
  }

 private:
  void finish(SpanName name, std::uint64_t t0) const {
    const std::uint64_t t1 = tracer_.now_ns();
    Tracer::Lane& lane = tracer_.lane();
    tracer_.record(name, t0, t1, lane.current_parent, lane.current_request);
    lane.child_ns += t1 - t0;
  }

  std::shared_ptr<const quorum::QuorumSystem> inner_;
  Tracer& tracer_;
};

}  // namespace pqs::perfbench
