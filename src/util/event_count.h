// An eventcount: lets a thread sleep until a condition that lives
// elsewhere (a ring, a counter, a stop flag) may have changed, with no
// lock around the condition and no lost wakeup.
//
//   waiter                                  notifier
//   ------                                  --------
//   ticket = ec.prepare_wait();             make the condition true;
//   if (condition) ec.cancel_wait();        ec.notify();
//   else ec.wait(ticket);
//   // re-check the condition either way
//
// One waiter at a time (each service worker, the client's driver thread
// owns its own EventCount); any number of notifiers.
//
// prepare_wait reads the ticket word, then raises the sleeping flag with
// a seq_cst read-modify-write; notify lowers the flag with a seq_cst
// exchange after the condition was published. Every write to the flag is
// an RMW, so they form one chain in the flag's modification order:
//   * notify's exchange is later than the waiter's raise: it reads the
//     raised flag, bumps the ticket word and issues FUTEX_WAKE. The
//     waiter's FUTEX_WAIT on its older ticket then either fails at once
//     (the word moved) or is woken.
//   * the raise is later: it reads from the notifier's release chain, so
//     the condition's publish happens-before the waiter's re-check, which
//     therefore sees it and never sleeps.
// This is the usual "flag, full barrier, re-check" handshake. The barrier
// is a seq_cst RMW on each side rather than a standalone fence because
// ThreadSanitizer does not model fences (and GCC rejects them under
// -fsanitize=thread with -Werror); with RMWs the sanitizer checks the
// handoff like any other synchronization.
//
// Because notify lowers the flag, only the first notifier after a waiter
// parks pays for the FUTEX_WAKE syscall; the notifiers that follow, while
// the woken thread is still being scheduled, cost one RMW each. wait()
// may return spuriously (signals, timeouts), so callers always loop on
// their condition. Linux-only (futex), like the rest of the tree's
// epoll/eventfd IO.
#pragma once

#include <atomic>
#include <cstdint>

namespace pqs::util {

// One spin-wait step: tells the core this is a busy-wait loop (x86
// `pause`, Arm `yield`) so a spinning hyperthread yields pipeline
// resources and the loop exit does not mis-speculate.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

class EventCount {
 public:
  using Ticket = std::uint32_t;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Raises the sleeping flag and returns the ticket to wait on. Must be
  // followed by exactly one cancel_wait() or wait().
  Ticket prepare_wait() {
    const Ticket ticket = epoch_.load(std::memory_order_acquire);
    sleeping_.exchange(1, std::memory_order_seq_cst);
    return ticket;
  }

  // Withdraws a prepare_wait() whose re-check found the condition true.
  void cancel_wait() { sleeping_.exchange(0, std::memory_order_seq_cst); }

  // Sleeps until a notify() that follows prepare_wait(), a spurious
  // wakeup, or — when timeout_ns > 0 — the timeout; then lowers the flag.
  void wait(Ticket ticket, std::uint64_t timeout_ns = 0);

  // Wakes the waiter if it has raised its flag. Call after publishing the
  // condition change; costs no syscall when the flag is down.
  void notify() {
    if (sleeping_.exchange(0, std::memory_order_seq_cst) == 0) return;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake();
  }

 private:
  void wake();

  // Both words on one cache line of their own: a notify that finds the
  // flag up touches both, and neighbouring EventCounts (one per service
  // worker) must not share the line.
  alignas(64) std::atomic<Ticket> epoch_{0};  // the futex word
  std::atomic<std::uint32_t> sleeping_{0};
};

}  // namespace pqs::util
