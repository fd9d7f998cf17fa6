// Self-tests of the serving benchmark's own machinery. run.py runs this
// before every benchmark run and refuses to measure when it fails.
//
//   * the QuorumSystem decorator draws the same members and consumes the
//     rng exactly as the undecorated R(100, 20), on sample_mask,
//     sample_masks and sample_into;
//   * the staleness gate accepts the expected count and rejects inflated
//     and deflated ones, with margins whose Chernoff tails are 1e-9.
// run.py checks the metric names of BENCHMARK.json itself.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "checks.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "math/chernoff.h"
#include "math/rng.h"
#include "trace.h"
#include "traced_quorum.h"

namespace pqs::perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void decorator_preserves_draws() {
  auto plain = std::make_shared<core::RandomSubsetSystem>(100, 20);
  Tracer tracer;
  const TracedQuorumSystem traced(plain, tracer);
  constexpr int kDraws = 64;
  for (std::uint64_t seed : {1ULL, 7ULL, 0xdecafULL}) {
    math::Rng a(seed), b(seed);
    quorum::QuorumBitset ma, mb;
    quorum::Quorum qa, qb;
    for (int i = 0; i < kDraws; ++i) {
      plain->sample_mask(ma, a);
      traced.sample_mask(mb, b);
      expect(ma.equals(mb), "sample_mask members");
      plain->sample_into(qa, a);
      traced.sample_into(qb, b);
      expect(qa == qb, "sample_into members");
    }
    std::vector<quorum::QuorumBitset> ba(16), bb(16);
    plain->sample_masks(ba.data(), ba.size(), a);
    traced.sample_masks(bb.data(), bb.size(), b);
    for (std::size_t i = 0; i < ba.size(); ++i) {
      expect(ba[i].equals(bb[i]), "sample_masks members");
    }
    expect(a.next() == b.next(), "rng state after the draws");
  }
  expect(tracer.merged(Phase::kSetup, SpanName::kQuorumDraw).count ==
             3 * 2 * kDraws,
         "one draw span per sample_mask and sample_into");
  expect(tracer.merged(Phase::kSetup, SpanName::kQuorumDrawBatch).count == 3,
         "one batch span per sample_masks");
}

void stale_gate_is_two_sided() {
  const double eps = core::nonintersection_exact(100, 20);
  expect(eps > 0.0065 && eps < 0.0067, "R(100,20) epsilon near 0.0066");
  const std::uint64_t reads = 885101;
  const double mu = static_cast<double>(reads) * eps;
  const auto expected = static_cast<std::uint64_t>(std::llround(mu));
  const RateGate fair = check_stale_rate(expected, reads, eps);
  expect(fair.ok, "expected stale count accepted");
  expect(check_stale_rate(5930, reads, eps).ok, "measured probe accepted");
  expect(!check_stale_rate(expected * 3 / 2, reads, eps).ok,
         "inflated stale count rejected");
  const auto just_above = static_cast<std::uint64_t>(fair.high) + 1;
  expect(!check_stale_rate(just_above, reads, eps).ok,
         "count just above the margin rejected");
  expect(!check_stale_rate(expected / 2, reads, eps).ok,
         "deflated stale count rejected");
  expect(!check_stale_rate(0, reads, eps).ok, "zero stale reads rejected");
  expect(!check_stale_rate(0, 100, eps).ok, "too few reads to judge rejected");
  // The margins are the inverted math/chernoff bounds.
  const double upper_tail = math::chernoff_upper(mu, fair.gamma);
  const double lower_tail = math::chernoff_lower(mu, fair.delta);
  expect(std::fabs(upper_tail / kGateFalseAlarm - 1) < 1e-6,
         "upper margin has a 1e-9 Chernoff tail");
  expect(std::fabs(lower_tail / kGateFalseAlarm - 1) < 1e-6,
         "lower margin has a 1e-9 Chernoff tail");
  expect(load_margin(1000000, 100) < 0.01, "load margin shrinks with ops");
}

}  // namespace
}  // namespace pqs::perfbench

int main() {
  pqs::perfbench::decorator_preserves_draws();
  pqs::perfbench::stale_gate_is_two_sided();
  if (pqs::perfbench::g_failures != 0) return 1;
  std::printf("selftest: ok\n");
  return 0;
}
