// util::EventCount — the futex sleep/wake pair under the serving tier's
// idle workers and the TCP client's waits.
//
// Every wait here carries a timeout far above any real wake-up latency,
// and a wait that runs into it counts as a lost wakeup: the tests fail
// instead of hanging. The ping-pong test is the protocol's stress case —
// both threads park on every round, so each round races a notify against
// a sleeper's registration. Tier-1 tests run under the CI TSan and
// ASan+UBSan jobs, so the handoff is also race-checked.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/event_count.h"

namespace pqs::util {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kLongTimeoutNs = 2'000'000'000;  // 2 s

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Waits until `ready` holds with the eventcount protocol; returns false if
// a single sleep ran into its timeout while the condition stayed false
// (a lost wakeup).
template <typename Ready>
bool await(EventCount& ec, Ready ready) {
  while (!ready()) {
    const EventCount::Ticket ticket = ec.prepare_wait();
    if (ready()) {
      ec.cancel_wait();
      break;
    }
    const auto start = Clock::now();
    ec.wait(ticket, kLongTimeoutNs);
    if (seconds_since(start) >= 1.0 && !ready()) return false;
  }
  return true;
}

TEST(EventCount, NotifyAfterPrepareMakesWaitReturnAtOnce) {
  EventCount ec;
  const EventCount::Ticket ticket = ec.prepare_wait();
  ec.notify();  // bumps the ticket word: the futex value no longer matches
  const auto start = Clock::now();
  ec.wait(ticket, kLongTimeoutNs);
  EXPECT_LT(seconds_since(start), 1.0);
}

TEST(EventCount, NotifyBeforePrepareDoesNotCarryOver) {
  EventCount ec;
  ec.notify();  // nobody registered: no bump, no syscall
  const EventCount::Ticket ticket = ec.prepare_wait();
  const auto start = Clock::now();
  ec.wait(ticket, 20'000'000);  // 20 ms, nobody will notify
  EXPECT_GE(seconds_since(start), 0.015);
}

TEST(EventCount, CancelledWaitLeavesNoSleeperBehind) {
  EventCount ec;
  for (int i = 0; i < 1000; ++i) {
    ec.prepare_wait();
    ec.cancel_wait();
  }
  // After prepare/cancel the flag is down, so a notify is a no-op and
  // does not move the ticket.
  const EventCount::Ticket before = ec.prepare_wait();
  ec.cancel_wait();
  ec.notify();
  EXPECT_EQ(ec.prepare_wait(), before);
  ec.cancel_wait();
}

TEST(EventCount, OnlyTheFirstNotifyAfterAParkPaysForTheWake) {
  // The first notify lowers the flag, bumps the ticket and wakes; the
  // ones behind it, while the sleeper is still being scheduled, find the
  // flag down and leave the ticket alone (no syscall). The ticket moves
  // exactly once per park.
  EventCount ec;
  const EventCount::Ticket ticket = ec.prepare_wait();
  for (int i = 0; i < 100; ++i) ec.notify();
  ec.wait(ticket, kLongTimeoutNs);  // returns at once: the word moved
  EXPECT_EQ(ec.prepare_wait(), ticket + 1);
  ec.cancel_wait();
}

TEST(EventCount, SleeperWakesOnANotifyFromAnotherThread) {
  EventCount ec;
  std::atomic<bool> flag{false};
  bool woke = false;
  std::thread sleeper([&] {
    woke = await(ec, [&] { return flag.load(std::memory_order_acquire); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  flag.store(true, std::memory_order_release);
  ec.notify();
  sleeper.join();
  EXPECT_TRUE(woke);
}

TEST(EventCount, PingPongNeverLosesAWakeup) {
  // Two threads take turns advancing one counter: A moves it from even to
  // odd, B from odd to even, and each parks until it is its turn. Every
  // round is a park/notify race in each direction.
  constexpr std::uint64_t kRounds = 5000;
  EventCount to_a;
  EventCount to_b;
  std::atomic<std::uint64_t> counter{0};
  std::atomic<bool> lost{false};
  auto player = [&](EventCount& mine, EventCount& theirs,
                    std::uint64_t parity) {
    for (std::uint64_t r = 0; r < kRounds && !lost.load(); ++r) {
      if (!await(mine, [&] {
            return lost.load() || counter.load() % 2 == parity;
          })) {
        lost.store(true);
        theirs.notify();
        return;
      }
      if (lost.load()) return;
      counter.fetch_add(1);
      theirs.notify();
    }
  };
  std::thread a([&] { player(to_a, to_b, 0); });
  std::thread b([&] { player(to_b, to_a, 1); });
  a.join();
  b.join();
  EXPECT_FALSE(lost.load()) << "a sleeper missed its turn";
  EXPECT_EQ(counter.load(), 2 * kRounds);
}

TEST(EventCount, TimedWaitReturnsWithoutNotify) {
  EventCount ec;
  const auto start = Clock::now();
  ec.wait(ec.prepare_wait(), 5'000'000);  // 5 ms
  const double waited = seconds_since(start);
  EXPECT_GE(waited, 0.004);
  EXPECT_LT(waited, 1.0);
}

}  // namespace
}  // namespace pqs::util
