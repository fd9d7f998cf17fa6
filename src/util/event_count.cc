#include "util/event_count.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace pqs::util {

namespace {

static_assert(sizeof(std::atomic<EventCount::Ticket>) == sizeof(int) &&
                  std::atomic<EventCount::Ticket>::is_always_lock_free,
              "the ticket word is handed to the kernel as a futex");

long futex(std::atomic<EventCount::Ticket>* word, int op, int value,
           const timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<int*>(word), op, value,
                   timeout, nullptr, 0);
}

}  // namespace

void EventCount::wait(Ticket ticket, std::uint64_t timeout_ns) {
  // FUTEX_WAIT sleeps only while the word still equals the ticket, checked
  // atomically against FUTEX_WAKE — a notify() that bumped the word after
  // prepare_wait() makes this return at once. EINTR, EAGAIN and ETIMEDOUT
  // all mean "re-check the condition", which every caller does anyway.
  timespec relative{};
  if (timeout_ns > 0) {
    relative.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    relative.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  }
  futex(&epoch_, FUTEX_WAIT_PRIVATE, static_cast<int>(ticket),
        timeout_ns > 0 ? &relative : nullptr);
  // Already lowered when a notify woke us; not when the wait timed out or
  // was interrupted. An RMW either way, to keep the flag's chain intact.
  sleeping_.exchange(0, std::memory_order_seq_cst);
}

void EventCount::wake() { futex(&epoch_, FUTEX_WAKE_PRIVATE, 1, nullptr); }

}  // namespace pqs::util
