// Correctness gates of the serving benchmark.
//
// Kept apart from the driver so the self-test exercises exactly the code
// the benchmark gates with.
#pragma once

#include <cmath>
#include <cstdint>

namespace pqs::perfbench {

// Probability with which a correct deployment may fail either gate below.
inline constexpr double kGateFalseAlarm = 1e-9;

struct RateGate {
  bool ok = false;
  double expected = 0.0;  // trials * eps
  double gamma = 0.0;     // upper margin, as a share of expected
  double delta = 0.0;     // lower margin, as a share of expected
  double low = 0.0;       // accepted count range [low, high]
  double high = 0.0;
};

// Two-sided check of `count` stale reads over `trials` reads against a
// per-read staleness probability `eps`. Every read of a pre-written key
// is stale exactly when its quorum misses the key's last write quorum,
// which for R(n, q) happens with probability nonintersection_exact(n, q)
// whatever the write quorum was, so the stale count is
// Binomial(trials, eps). gamma and delta invert the multiplicative
// Chernoff bounds of math/chernoff.h (exp(-mu g^2 / 4) above,
// exp(-mu d^2 / 2) below) at kGateFalseAlarm per tail; a sample too small
// for those forms to apply fails the gate.
inline RateGate check_stale_rate(std::uint64_t count, std::uint64_t trials,
                                 double eps) {
  RateGate gate;
  gate.expected = static_cast<double>(trials) * eps;
  const double mu = gate.expected;
  if (!(mu > 0.0)) return gate;
  gate.gamma = std::sqrt(4.0 * std::log(1.0 / kGateFalseAlarm) / mu);
  gate.delta = std::sqrt(2.0 * std::log(1.0 / kGateFalseAlarm) / mu);
  if (gate.gamma > 2.0 * std::exp(1.0) - 1.0 || gate.delta > 1.0) return gate;
  gate.low = (1.0 - gate.delta) * mu;
  gate.high = (1.0 + gate.gamma) * mu;
  const double c = static_cast<double>(count);
  gate.ok = c >= gate.low && c <= gate.high;
  return gate;
}

// Margin on the measured maximum per-server load of a uniform strategy
// whose quorums all have q of n members, over `ops` draws: each server's
// load is a mean of `ops` Bernoulli(q/n) contacts, so by Hoeffding and a
// union bound over n servers, P(max > q/n + t) <= n exp(-2 ops t^2). The
// maximum can never fall below the mean q/n.
inline double load_margin(std::uint64_t ops, std::uint32_t n) {
  return std::sqrt(std::log(static_cast<double>(n) / kGateFalseAlarm) /
                   (2.0 * static_cast<double>(ops)));
}

}  // namespace pqs::perfbench
