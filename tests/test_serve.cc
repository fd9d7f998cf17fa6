// serve::KvService — the sharded serving tier end to end.
//
// The load-bearing contract is the determinism gate the bench relies on:
// with a single producer, each shard's aggregate counters are a pure
// function of the request stream, so they must be bit-identical across
// shard-serving worker counts and across the mask/allocating draw paths.
// The rest pins down routing purity, drain completeness (every submitted
// request lands in exactly one histogram slot and one aggregate), the
// stale/empty read accounting against majority quorums (which never read
// stale), and the restart contract (aggregates accumulate across runs,
// reset_latency clears only the histograms). The idle-protocol tests at
// the end check that parked workers wake on every submit path and on
// stop, that no wakeup is lost across thousands of park/wake races, and
// that an idle service burns next to no CPU. Tier-1 tests run under the
// CI TSan job, so the ring handoff, the park/wake handshake and worker
// shutdown are race-checked.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "workload/open_loop.h"

namespace pqs::serve {
namespace {

std::shared_ptr<const quorum::QuorumSystem> majority(std::uint32_t n = 15) {
  return std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(n));
}

KvService::Config base_config(std::uint32_t shards, std::uint32_t workers,
                              replica::DrawPath path) {
  KvService::Config cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.quorums = majority();
  cfg.draw_path = path;
  cfg.seed = 77;
  return cfg;
}

// Drives `ops` generator operations through a fresh service from this one
// thread (the single-producer determinism precondition) and returns the
// per-shard aggregates.
std::vector<ShardAggregate> run_service(std::uint32_t shards,
                                        std::uint32_t workers,
                                        replica::DrawPath path,
                                        std::uint64_t ops,
                                        std::uint64_t* histogram_count) {
  KvService service(base_config(shards, workers, path));
  workload::OpenLoopSpec spec;
  spec.keys = 64;
  spec.zipf_exponent = 0.99;
  workload::OpenLoopGenerator gen(spec, 123);
  workload::Operation op;
  Request req;
  service.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    req.key = op.key;
    req.value = op.value;
    req.scheduled_ns = service.now_ns();
    req.is_read = op.is_read;
    service.submit(req);
  }
  service.stop_and_drain();
  if (histogram_count != nullptr) {
    *histogram_count = service.merged_histogram().count();
  }
  return service.aggregates();
}

TEST(KvService, AggregatesBitIdenticalAcrossWorkerCountsAndDrawPaths) {
  constexpr std::uint64_t kOps = 4000;
  using replica::DrawPath;
  const auto base = run_service(4, 1, DrawPath::kMask, kOps, nullptr);
  ASSERT_EQ(base.size(), 4u);
  // Worker count only changes which thread serves a shard, never what the
  // shard computes.
  EXPECT_EQ(base, run_service(4, 2, DrawPath::kMask, kOps, nullptr));
  EXPECT_EQ(base, run_service(4, 8, DrawPath::kMask, kOps, nullptr));
  // The allocating draw path consumes the same rng stream per cluster.
  EXPECT_EQ(base, run_service(4, 2, DrawPath::kAllocating, kOps, nullptr));
}

TEST(KvService, DrainsEveryRequestExactlyOnce) {
  constexpr std::uint64_t kOps = 3000;
  std::uint64_t recorded = 0;
  const auto aggregates =
      run_service(3, 2, replica::DrawPath::kMask, kOps, &recorded);
  EXPECT_EQ(recorded, kOps);
  ShardAggregate fold;
  for (const auto& a : aggregates) fold += a;
  EXPECT_EQ(fold.reads + fold.writes, kOps);
  EXPECT_GT(fold.access_checksum, 0u);
}

TEST(KvService, RoutingIsPureAndCoversEveryShard) {
  KvService service(base_config(8, 1, replica::DrawPath::kMask));
  std::vector<bool> hit(8, false);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::uint32_t shard = service.shard_of(key);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, service.shard_of(key));  // pure function of the key
    hit[shard] = true;
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never routed to";
  }
}

TEST(KvService, MajorityQuorumsReadTheirWritesAcrossRestart) {
  KvService service(base_config(1, 1, replica::DrawPath::kMask));
  Request req;
  req.key = 5;
  req.value = 42;
  req.is_read = false;
  service.start();
  service.submit(req);
  service.stop_and_drain();

  // Restart: cluster state persists, so the read run sees the write.
  req.is_read = true;
  service.start();
  service.submit(req);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 1u);
  EXPECT_EQ(fold.reads, 1u);
  // Majority quorums always intersect: never stale, never empty.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Both ops contacted an 8-server majority of the 15-server universe.
  EXPECT_EQ(service.server_profile().samples(), 2u);
  EXPECT_EQ(service.contention_snapshot().totals().writes_accepted, 8u);
  EXPECT_EQ(service.contention_snapshot().totals().reads_served, 8u);
}

TEST(KvService, ReadsBeforeAnyWriteCountAsEmptyNeverStale) {
  KvService service(base_config(2, 1, replica::DrawPath::kMask));
  Request req;
  req.is_read = true;
  service.start();
  for (std::uint64_t key = 0; key < 50; ++key) {
    req.key = key;
    service.submit(req);
  }
  service.stop_and_drain();
  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.reads, 50u);
  EXPECT_EQ(fold.empty_reads, 50u);
  EXPECT_EQ(fold.stale_reads, 0u);
}

// Membership change under load: a shard's universe reconfigures mid-sweep
// (join, then leave, as in-band churn requests) while the single producer
// keeps writing and reading. Drain stays exactly-once — every *served*
// request lands in the histogram and the aggregates, churn in neither —
// and read-your-writes holds across both epoch bumps: with a 9-of-17
// majority over capacity 17 and 16 slots initially live, every read
// quorum deterministically intersects every surviving write quorum
// (9 + 9 > 17 while the joiner is live, 9 + 8 > 16 after it leaves), so
// no read is ever stale or empty.
TEST(KvService, MembershipChangeUnderLoadKeepsReadYourWrites) {
  KvService::Config cfg = base_config(1, 1, replica::DrawPath::kMask);
  cfg.quorums = majority(17);
  cfg.dynamic_membership = true;
  cfg.initial_live = 16;  // slot 16 starts dead, ready to join
  KvService service(cfg);
  Request req;
  service.start();
  auto write = [&](std::uint64_t key) {
    req.key = key;
    req.value = static_cast<std::int64_t>(key) + 1000;
    req.is_read = false;
    service.submit(req);
  };
  auto read = [&](std::uint64_t key) {
    req.key = key;
    req.is_read = true;
    service.submit(req);
  };
  for (std::uint64_t key = 0; key < 20; ++key) write(key);
  service.submit_churn(0, ChurnKind::kJoin, 16);  // epoch 1, live 17
  for (std::uint64_t key = 0; key < 20; ++key) {
    write(20 + key);
    read(key);  // written before the join
    read(20 + key);
  }
  service.submit_churn(0, ChurnKind::kLeave, 16);  // epoch 2, live 16
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 40u);
  EXPECT_EQ(fold.reads, 80u);
  EXPECT_EQ(fold.churn_events, 2u);
  EXPECT_EQ(fold.membership_epoch, 2u);
  // Read-your-writes across the view changes: deterministic intersection.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Exactly-once drain: served requests in the histogram, churn excluded.
  EXPECT_EQ(service.merged_histogram().count(), 120u);
}

// The bit-identity contract survives churn: a fixed interleaving of
// requests and in-band kReplace events (single producer, so every shard's
// subsequence is fixed) yields identical aggregates — churn_events and
// final epochs included — across worker counts and draw paths.
TEST(KvService, ChurnedAggregatesBitIdenticalAcrossWorkersAndPaths) {
  constexpr std::uint64_t kOps = 3000;
  using replica::DrawPath;
  auto run = [&](std::uint32_t workers, DrawPath path) {
    KvService::Config cfg = base_config(4, workers, path);
    cfg.dynamic_membership = true;
    KvService service(cfg);
    workload::OpenLoopSpec spec;
    spec.keys = 64;
    spec.zipf_exponent = 0.99;
    workload::OpenLoopGenerator gen(spec, 123);
    workload::Operation op;
    Request req;
    service.start();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      gen.next(op);
      req.key = op.key;
      req.value = op.value;
      req.scheduled_ns = service.now_ns();
      req.is_read = op.is_read;
      service.submit(req);
      // One replacement on a rotating shard every 100 requests.
      if (i % 100 == 99) {
        service.submit_churn(static_cast<std::uint32_t>((i / 100) % 4),
                             ChurnKind::kReplace);
      }
    }
    service.stop_and_drain();
    return service.aggregates();
  };
  const auto base = run(1, DrawPath::kMask);
  std::uint64_t churned = 0;
  std::uint64_t epochs = 0;
  for (const auto& a : base) {
    churned += a.churn_events;
    epochs += a.membership_epoch;
  }
  EXPECT_EQ(churned, kOps / 100);
  EXPECT_EQ(epochs, kOps / 100);  // every event bumped its shard's epoch
  EXPECT_EQ(base, run(2, DrawPath::kMask));
  EXPECT_EQ(base, run(8, DrawPath::kMask));
  EXPECT_EQ(base, run(2, DrawPath::kAllocating));
}

TEST(KvService, ResetLatencyClearsHistogramsButKeepsAggregates) {
  KvService service(base_config(2, 2, replica::DrawPath::kMask));
  Request req;
  req.key = 9;
  req.value = 1;
  service.start();
  for (int i = 0; i < 10; ++i) service.submit(req);
  service.stop_and_drain();
  EXPECT_EQ(service.merged_histogram().count(), 10u);

  service.reset_latency();
  EXPECT_EQ(service.merged_histogram().count(), 0u);
  // The deterministic counters are untouched by the latency reset...
  EXPECT_EQ(service.fold_aggregates().writes, 10u);

  // ...and the next run's histogram contains only its own samples while
  // the aggregates keep accumulating.
  service.start();
  for (int i = 0; i < 4; ++i) service.submit(req);
  service.stop_and_drain();
  EXPECT_EQ(service.merged_histogram().count(), 4u);
  EXPECT_EQ(service.fold_aggregates().writes, 14u);
}

// ---- Byzantine faults combined with churn ---------------------------------

// A forging server AND a reconfiguring universe in one run: slot 3 turns
// Byzantine (fabricated records with enormous timestamps) while slot 15
// joins and later leaves, all as in-band requests under a live write/read
// stream. Dissemination reads reject the forgeries, and every view along
// the way keeps deterministic intersection (9-of-16 majority: 9 + 9 > 16
// with 15 or 16 live), so read-your-writes must hold through the whole
// campaign — no stale reads, no empty reads — while the drain stays
// exactly-once (served requests in the histogram; churn and fault events
// in the aggregates only).
TEST(KvService, ByzantineFaultsUnderChurnKeepReadYourWrites) {
  KvService::Config cfg = base_config(1, 1, replica::DrawPath::kMask);
  cfg.quorums = majority(16);  // 9-of-16 over capacity 16
  cfg.dynamic_membership = true;
  cfg.initial_live = 15;  // slot 15 starts dead, ready to join
  cfg.read_mode = replica::ReadMode::kDissemination;
  KvService service(cfg);
  Request req;
  service.start();
  auto write = [&](std::uint64_t key) {
    req.key = key;
    req.value = static_cast<std::int64_t>(key) + 1000;
    req.is_read = false;
    service.submit(req);
  };
  auto read = [&](std::uint64_t key) {
    req.key = key;
    req.is_read = true;
    service.submit(req);
  };
  for (std::uint64_t key = 0; key < 20; ++key) write(key);
  // Slot 3 starts forging mid-stream; reads keep consulting it (9 of 15
  // live servers per quorum) and must discard its fabrications.
  service.submit_fault(0, FaultKind::kForge, 3);
  for (std::uint64_t key = 0; key < 20; ++key) {
    write(20 + key);
    read(key);
  }
  service.submit_churn(0, ChurnKind::kJoin, 15);  // epoch 1, live 16
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.submit_fault(0, FaultKind::kCorrect, 3);  // slot 3 heals
  service.submit_churn(0, ChurnKind::kLeave, 15);   // epoch 2, live 15
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 40u);
  EXPECT_EQ(fold.reads, 100u);
  EXPECT_EQ(fold.churn_events, 2u);
  EXPECT_EQ(fold.membership_epoch, 2u);
  EXPECT_EQ(fold.fault_events, 2u);
  // The forger sat in many read quorums while active; dissemination
  // rejected every fabricated record it returned.
  EXPECT_GT(fold.rejected_forgeries, 0u);
  // Read-your-writes survived the combined campaign.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Exactly-once drain: served requests land in the histogram; churn and
  // fault events in neither the histogram nor the request counters.
  EXPECT_EQ(service.merged_histogram().count(), 140u);
}

// The bit-identity contract survives Byzantine faults and churn at once:
// a fixed interleaving of requests, kReplace churn, and forge/heal flips
// (single producer, so every shard's subsequence is fixed) yields
// identical per-shard aggregates — forgery rejections, fault events,
// churn events, and final epochs included — across worker counts and
// draw paths.
TEST(KvService, ByzantineChurnAggregatesBitIdenticalAcrossWorkersAndPaths) {
  constexpr std::uint64_t kOps = 3000;
  using replica::DrawPath;
  auto run = [&](std::uint32_t workers, DrawPath path) {
    KvService::Config cfg = base_config(4, workers, path);
    cfg.dynamic_membership = true;
    cfg.read_mode = replica::ReadMode::kDissemination;
    KvService service(cfg);
    workload::OpenLoopSpec spec;
    spec.keys = 64;
    spec.zipf_exponent = 0.99;
    workload::OpenLoopGenerator gen(spec, 123);
    workload::Operation op;
    Request req;
    service.start();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      gen.next(op);
      req.key = op.key;
      req.value = op.value;
      req.scheduled_ns = service.now_ns();
      req.is_read = op.is_read;
      service.submit(req);
      // One replacement on a rotating shard every 100 requests...
      if (i % 100 == 99) {
        service.submit_churn(static_cast<std::uint32_t>((i / 100) % 4),
                             ChurnKind::kReplace);
      }
      // ...and a forge/heal flip of a rotating slot every 250.
      if (i % 250 == 249) {
        const auto flip = i / 250;
        service.submit_fault(static_cast<std::uint32_t>(flip % 4),
                             (flip % 2) == 0 ? FaultKind::kForge
                                             : FaultKind::kCorrect,
                             flip % 3);
      }
    }
    service.stop_and_drain();
    return service.aggregates();
  };
  const auto base = run(1, DrawPath::kMask);
  ShardAggregate fold;
  for (const auto& a : base) fold += a;
  EXPECT_EQ(fold.churn_events, kOps / 100);
  EXPECT_EQ(fold.fault_events, kOps / 250);
  EXPECT_GT(fold.rejected_forgeries, 0u);
  EXPECT_EQ(fold.reads + fold.writes, kOps);
  EXPECT_EQ(base, run(2, DrawPath::kMask));
  EXPECT_EQ(base, run(8, DrawPath::kMask));
  EXPECT_EQ(base, run(2, DrawPath::kAllocating));
}

// ---------------------------------------------------------- idle protocol

using Clock = std::chrono::steady_clock;

// Long enough for every worker to run out its spin budget and park (the
// budget is microseconds, even under sanitizers).
constexpr auto kParkDelay = std::chrono::milliseconds(20);

// Polls `done` until it holds or 5 s pass. A worker that slept through
// its wakeup leaves `done` false, so callers fail instead of hanging.
template <typename Done>
bool eventually(Done done) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// The first key the router sends to `shard`.
std::uint64_t key_on(const KvService& service, std::uint32_t shard) {
  std::uint64_t key = 0;
  while (service.shard_of(key) != shard) ++key;
  return key;
}

TEST(KvServiceIdle, ParkedWorkersWakeOnEverySubmitPath) {
  // 4 shards on 2 workers: each push must wake the owner of its shard,
  // which is parked every time — nothing else is pushed meanwhile.
  KvService::Config cfg = base_config(4, 2, replica::DrawPath::kMask);
  cfg.dynamic_membership = true;
  KvService service(cfg);
  service.start();
  std::vector<std::uint64_t> expected(service.shards(), 0);
  const auto after_park = [&](const char* path, std::uint32_t shard,
                              const auto& submit) {
    std::this_thread::sleep_for(kParkDelay);
    submit();
    ++expected[shard];
    EXPECT_TRUE(eventually([&] {
      return service.requests_applied(shard) == expected[shard];
    })) << path << " never woke the parked owner of shard " << shard;
  };
  for (std::uint32_t shard = 0; shard < service.shards(); ++shard) {
    Request req;
    req.key = key_on(service, shard);
    req.scheduled_ns = service.now_ns();
    after_park("try_submit", shard,
               [&] { ASSERT_TRUE(service.try_submit(req)); });
    req.is_read = true;
    after_park("submit", shard, [&] { service.submit(req); });
    after_park("submit_churn", shard,
               [&] { service.submit_churn(shard, ChurnKind::kReplace); });
    after_park("submit_fault", shard, [&] {
      service.submit_fault(shard, FaultKind::kCorrect, 0);
    });
  }
  service.stop_and_drain();
  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, service.shards());
  EXPECT_EQ(fold.reads, service.shards());
  EXPECT_EQ(fold.churn_events, service.shards());
  EXPECT_EQ(fold.fault_events, service.shards());
}

TEST(KvServiceIdle, StopAndDestructorReturnPromptlyWhileWorkersPark) {
  // A lost stop wakeup would leave a worker asleep and the join hanging
  // (until ctest's timeout); a prompt return is the pass condition.
  {
    KvService service(base_config(4, 4, replica::DrawPath::kMask));
    service.start();
    std::this_thread::sleep_for(kParkDelay);
    const auto start = Clock::now();
    service.stop_and_drain();
    EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(),
              1.0);
    // Restart on the same wake words: the second run parks and stops too.
    service.start();
    std::this_thread::sleep_for(kParkDelay);
    service.stop_and_drain();
  }
  const auto start = Clock::now();
  {
    KvService service(base_config(4, 4, replica::DrawPath::kMask));
    service.start();
    std::this_thread::sleep_for(kParkDelay);
  }  // the destructor stops the parked workers
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count() -
                std::chrono::duration<double>(kParkDelay).count(),
            1.0);
}

TEST(KvServiceIdle, OneRequestBurstsAcrossTheSpinBudgetNeverStall) {
  // Thousands of single requests, each awaited before the next, separated
  // by gaps of 0-15 us (and now and then 100 us): they land while the
  // owner still spins, just as it registers to park, and after it sleeps
  // — every side of the park/wake race, many times over.
  constexpr std::uint64_t kBursts = 10000;
  KvService service(base_config(4, 2, replica::DrawPath::kMask));
  std::atomic<std::uint64_t> completed{0};
  service.set_completion([&completed](const Completion&) {
    completed.fetch_add(1, std::memory_order_release);
  });
  service.start();
  Request req;
  req.wants_reply = true;
  for (std::uint64_t i = 0; i < kBursts; ++i) {
    const auto gap = std::chrono::microseconds(i % 64 == 63 ? 100 : i % 16);
    const auto until = Clock::now() + gap;
    while (Clock::now() < until) {
    }
    req.key = i * 7919;
    req.value = static_cast<std::int64_t>(i);
    req.is_read = i % 3 != 0;
    req.scheduled_ns = service.now_ns();
    if (i % 2 == 0) {
      ASSERT_TRUE(service.try_submit(req));  // one in flight: never full
    } else {
      service.submit(req);
    }
    ASSERT_TRUE(eventually([&] {
      return completed.load(std::memory_order_acquire) == i + 1;
    })) << "request " << i << " was never served: a lost wakeup";
  }
  service.stop_and_drain();
  EXPECT_EQ(service.merged_histogram().count(), kBursts);
}

TEST(KvServiceIdle, IdleServiceBurnsAlmostNoCpu) {
  KvService service(base_config(4, 2, replica::DrawPath::kMask));
  service.start();
  // Serve a little first, so the workers park after real work rather
  // than only from a cold start.
  Request req;
  for (std::uint64_t key = 0; key < 100; ++key) {
    req.key = key;
    service.submit(req);
  }
  ASSERT_TRUE(eventually([&] {
    std::uint64_t applied = 0;
    for (std::uint32_t s = 0; s < service.shards(); ++s) {
      applied += service.requests_applied(s);
    }
    return applied == 100;
  }));
  std::this_thread::sleep_for(kParkDelay);
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double burnt = process_cpu_seconds() - before;
  // Two spinning workers would burn ~0.4 s of CPU in these 200 ms; parked
  // ones burn nothing. A quarter of one thread is the ceiling.
  EXPECT_LT(burnt, 0.05) << "idle workers burnt " << burnt << " s of CPU";
  service.stop_and_drain();
}

}  // namespace
}  // namespace pqs::serve
