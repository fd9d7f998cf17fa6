// The serving benchmark: the paper's R(100, 20) behind serve::KvService
// (4 shards, 2 workers), driven in-process or through net::KvServer and
// one net::Client connection over loopback.
//
// Usage: serving_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--out DIR]
//
// Each pass sets the deployment up (pre-writing every key), then runs two
// phases on it:
//   paced     open loop at the workload's fixed rate; latency is timed
//             from each op's due time, and the generator's lateness is
//             recorded next to it;
//   saturate  closed loop from the one driver thread, bounded by the
//             client's request window or the shard rings.
// Each phase runs as kWindows windows, each on freshly started service
// workers and a fresh driver thread, and reports the median over them.
// --trace 0 runs one untraced pass of S seconds and prints the end-to-end
// metrics; the set-up is repeated and its median reported. --trace 1 runs
// an untraced and a traced pass of the same seed (S/2 seconds each),
// requires their per-shard aggregates after the paced phase to be
// bit-identical, replays the paced op stream through one standalone
// replica::InstantCluster, and prints the per-layer metrics. Spans and
// per-layer numbers are written to DIR/<workload>/.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the chosen mode. The exit code is
// nonzero when any correctness or transparency check fails.
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "checks.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "net/client.h"
#include "net/kv_server.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "stats/counters.h"
#include "stats/latency_histogram.h"
#include "stats/load_profile.h"
#include "trace.h"
#include "traced_quorum.h"
#include "workload/open_loop.h"

namespace pqs::perfbench {
namespace {

constexpr std::uint32_t kServers = 100;
constexpr std::uint32_t kQuorum = 20;  // l * sqrt(n) with l = 2
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 2;
constexpr int kWindows = 20;

struct WorkloadDef {
  const char* name;
  bool tcp;
  double read_fraction;
  double zipf_exponent;
  std::uint64_t keys;
  double rate;  // paced phase, ops/s
  int setups;   // set-up repeats of a --trace 0 run; setup_s is the median
};

// Why these three: the read-mostly pair shares one op stream and differs
// only in the socket path, so their ratio is the socket tax and a net
// change must leave the in-process one unchanged; the write-heavy mix
// puts the replica store and record signing on the critical path, which
// the read-mostly pair barely touches.
constexpr WorkloadDef kWorkloads[] = {
    {"tcp_read_mostly", true, 0.95, 0.99, 4096, 25000.0, 100},
    {"inproc_read_mostly", false, 0.95, 0.99, 4096, 25000.0, 100},
    {"inproc_write_heavy", false, 0.50, 0.0, 65536, 50000.0, 11},
};

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "serving_bench: %s\nusage: serving_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && o.seconds >= 1.0 &&
                     o.seconds <= 60.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (o.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (1..60) and --trace are required");
  }
  return o;
}

// ---- process counters ------------------------------------------------

struct OsSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t syscalls = 0;  // syscr + syscw of /proc/self/io
  std::uint64_t allocs = 0;
};

OsSample os_sample() {
  OsSample s;
  s.allocs = bench::allocations();  // before anything below can allocate
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  if (std::FILE* f = std::fopen("/proc/self/io", "r")) {
    char label[64];
    unsigned long long value = 0;
    while (std::fscanf(f, "%63s %llu", label, &value) == 2) {
      if (std::strcmp(label, "syscr:") == 0 ||
          std::strcmp(label, "syscw:") == 0) {
        s.syscalls += value;
      }
    }
    std::fclose(f);
  }
  return s;
}

// CPU time of the calling thread.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- one deployment ----------------------------------------------------

struct Deployment {
  std::unique_ptr<serve::KvService> service;
  std::unique_ptr<net::KvServer> server;
  std::unique_ptr<net::Client> client;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  // The client drains before it closes, which needs a running service.
  ~Deployment() {
    if (client != nullptr) {
      if (!service->running()) service->start();
      client->stop();
    }
    if (service->running()) service->stop_and_drain();
    if (server != nullptr) server->stop();
  }
};

workload::OpenLoopSpec spec_of(const WorkloadDef& w) {
  workload::OpenLoopSpec spec;
  spec.keys = w.keys;
  spec.zipf_exponent = w.zipf_exponent;
  spec.read_fraction = w.read_fraction;
  spec.arrival_rate = w.rate;
  return spec;
}

std::uint64_t service_seed(std::uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 1;
}

// Builds and starts the deployment and pre-writes keys 1..K with values
// -key (the generator writes positive values, so a pre-write is never
// mistaken for a later write). The pre-write goes straight into the
// service on every workload, so set-up time is the service's work and not
// the pipelining of one connection. Returns stopped, latency reset.
std::unique_ptr<Deployment> set_up(
    const WorkloadDef& w, std::uint64_t seed,
    const std::shared_ptr<const quorum::QuorumSystem>& quorums,
    serve::KvService::CompletionHandler hook) {
  auto d = std::make_unique<Deployment>();
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = kWorkers;
  cfg.quorums = quorums;
  cfg.seed = service_seed(seed);
  d->service = std::make_unique<serve::KvService>(cfg);
  if (w.tcp) {
    d->server = std::make_unique<net::KvServer>(net::KvServer::Config{},
                                                *d->service);
    d->server->start();
  } else if (hook) {
    d->service->set_completion(std::move(hook));
  }
  d->service->start();
  if (w.tcp) {
    net::Client::Config client_cfg;
    client_cfg.port = d->server->port();
    d->client = std::make_unique<net::Client>(client_cfg);
    d->client->start();
  }
  serve::Request req;
  for (std::uint64_t key = 1; key <= w.keys; ++key) {
    req.key = key;
    req.value = -static_cast<std::int64_t>(key);
    req.scheduled_ns = d->service->now_ns();
    d->service->submit(req);
  }
  d->service->stop_and_drain();
  d->service->reset_latency();
  return d;
}

// ---- one pass ----------------------------------------------------------

// Runs one window's driver loop on a fresh thread and waits for it. Where
// the scheduler places the driver is then drawn anew for every window,
// like the restarted service workers, so the median over windows averages
// over placements instead of inheriting one for the whole run.
template <typename Body>
void on_fresh_thread(Body&& body) {
  std::exception_ptr error;
  std::thread([&] {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

struct PassResult {
  double setup_s = 0.0;
  // paced phase
  std::uint64_t paced_ops = 0;
  stats::LatencyHistogram latency;  // end to end, from due time
  stats::LatencyHistogram sojourn;  // service histogram
  stats::LatencyHistogram gen_lag;
  OsSample paced_os;                // summed over the windows
  double paced_wall_s = 0.0;
  double lat_p50_us = 0.0;          // medians over the windows
  double cpu_us_per_op = 0.0;
  double peak_rss_mb = 0.0;         // over set-up and the paced phase
  std::vector<serve::ShardAggregate> paced_aggregates;
  // saturate phase
  std::uint64_t saturate_ops = 0;
  double ops_per_s = 0.0;  // median over the windows
  std::uint64_t submit_full = 0;  // saturate ops that found a ring full
  // whole pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t all_ops = 0;  // pre-writes included
  serve::ShardAggregate fold;
  stats::LoadProfile profile;
  stats::ContentionSnapshot contention;
  std::uint64_t protocol_errors = 0;
  std::uint64_t retries = 0;
  std::vector<std::string> failures;
};

OsSample os_delta(const OsSample& a, const OsSample& b) {
  OsSample d;
  d.user_s = b.user_s - a.user_s;
  d.sys_s = b.sys_s - a.sys_s;
  d.ctx_switches = b.ctx_switches - a.ctx_switches;
  d.syscalls = b.syscalls - a.syscalls;
  d.allocs = b.allocs - a.allocs;
  return d;
}

void expect_count(PassResult& r, const char* what, std::uint64_t got,
                  std::uint64_t want) {
  if (got == want) return;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %" PRIu64 " completions for %" PRIu64
                " ops attempted", what, got, want);
  r.failures.emplace_back(buf);
  const std::uint64_t gap = got > want ? got - want : want - got;
  r.failed = std::max(r.failed, gap);
}

std::uint64_t served(const std::vector<serve::ShardAggregate>& aggs) {
  std::uint64_t n = 0;
  for (const auto& a : aggs) n += a.reads + a.writes;
  return n;
}

// Runs set-up, the paced and the saturate phase. With a tracer, draws go
// through the decorator, the driver records spans around its calls, and
// in-process requests report completion through the service hook.
PassResult run_pass(const WorkloadDef& w, std::uint64_t seed,
                    double paced_s, double saturate_s, int setups,
                    Tracer* tracer) {
  PassResult r;
  std::shared_ptr<const quorum::QuorumSystem> quorums =
      std::make_shared<core::RandomSubsetSystem>(kServers, kQuorum);
  if (tracer != nullptr) {
    quorums = std::make_shared<TracedQuorumSystem>(quorums, *tracer);
    tracer->set_phase(Phase::kSetup);
  }
  std::atomic<std::uint64_t> hook_completions{0};
  serve::KvService::CompletionHandler hook;
  if (tracer != nullptr && !w.tcp) {
    // ctx carries the submit time on the tracer clock.
    hook = [tracer, &hook_completions](const serve::Completion& done) {
      tracer->record(SpanName::kServeSojourn, done.ctx, tracer->now_ns(),
                     done.request_id, done.request_id);
      hook_completions.fetch_add(1, std::memory_order_relaxed);
    };
  }

  std::vector<double> setup_times;
  auto timed_set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Deployment> built = set_up(w, seed, quorums, hook);
    setup_times.push_back(seconds_since(t0));
    return built;
  };
  std::unique_ptr<Deployment> d = timed_set_up();

  serve::KvService& service = *d->service;
  net::Client* client = d->client.get();
  expect_count(r, "pre-write", service.fold_aggregates().writes, w.keys);

  workload::OpenLoopGenerator gen(spec_of(w), seed);
  workload::Operation op;
  std::uint64_t next_id = 1;
  const bool traced = tracer != nullptr;
  serve::Request req;
  req.wants_reply = traced && client == nullptr;

  // The deployment's clock, which due times and latencies are on.
  auto now = [&] {
    return client != nullptr ? client->now_ns() : service.now_ns();
  };
  // Hands the current op to the deployment, scheduled at `due`: through
  // Client::send over TCP, through KvService::try_submit in-process. While
  // a ring is full the driver sleeps, so it does not take a processor from
  // the workers; the span covers the wait. `lag` is how late the driver
  // was, and the op's root span starts that much before the call.
  auto issue = [&](std::uint64_t due, std::uint64_t lag) {
    const std::uint64_t id = next_id++;
    const std::uint64_t s0 = traced ? tracer->now_ns() : 0;
    if (client != nullptr) {
      client->send(op.key, op.value, op.is_read, due);
    } else {
      req.key = op.key;
      req.value = op.value;
      req.is_read = op.is_read;
      req.scheduled_ns = due;
      req.request_id = id;
      req.ctx = s0;  // the completion hook's sojourn span starts here
      if (!service.try_submit(req)) {
        ++r.submit_full;
        while (!service.try_submit(req)) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
      }
    }
    if (traced) {
      const SpanName call =
          client != nullptr ? SpanName::kClientSend : SpanName::kServeSubmit;
      tracer->record(call, s0, tracer->now_ns(), id, id);
      tracer->record(SpanName::kOp, s0 - lag, tracer->now_ns(), 0, id, id);
    }
  };

  // Both phases run as kWindows windows, each on freshly started service
  // workers and a fresh driver thread; a phase reports the median over its
  // windows, so one window disturbed by the rest of the machine does not
  // move the result.
  const double period_ns = 1e9 / w.rate;
  const std::uint64_t window_ops =
      static_cast<std::uint64_t>(w.rate * paced_s) / kWindows;
  r.paced_ops = window_ops * kWindows;
  if (traced) tracer->set_phase(Phase::kPaced);
  const std::uint64_t received_before = client ? client->received() : 0;
  std::vector<double> window_p50, window_cpu, window_rate;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int win = 0; win < kWindows; ++win) {
    const stats::LatencyHistogram client_before =
        client != nullptr ? client->histogram() : stats::LatencyHistogram();
    service.start();
    std::uint64_t wait_cpu_ns = 0;  // the driver spinning until due times
    const OsSample os0 = os_sample();
    on_fresh_thread([&] {
      const std::uint64_t base = now() + 1'000'000;
      for (std::uint64_t i = 0; i < window_ops; ++i) {
        gen.next(op);
        const std::uint64_t due =
            base +
            static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
        if (now() < due) {
          if (client != nullptr) {
            const std::uint64_t f0 = traced ? tracer->now_ns() : 0;
            client->flush();
            if (traced) {
              tracer->record(SpanName::kClientFlush, f0, tracer->now_ns(), 0,
                             0);
            }
          }
          const std::uint64_t c0 = thread_cpu_ns();
          while (now() < due) std::this_thread::yield();
          wait_cpu_ns += thread_cpu_ns() - c0;
        }
        const std::uint64_t lag = now() - due;
        r.gen_lag.record(lag);
        issue(due, lag);
      }
      if (client != nullptr) client->drain();
    });
    service.stop_and_drain();
    const OsSample os = os_delta(os0, os_sample());
    r.paced_os.user_s += os.user_s;
    r.paced_os.sys_s += os.sys_s;
    r.paced_os.ctx_switches += os.ctx_switches;
    r.paced_os.syscalls += os.syscalls;
    r.paced_os.allocs += os.allocs;
    const stats::LatencyHistogram sojourn = service.merged_histogram();
    const stats::LatencyHistogram latency =
        client != nullptr
            ? stats::histogram_delta(client_before, client->histogram())
            : sojourn;
    r.sojourn.merge(sojourn);
    r.latency.merge(latency);
    window_p50.push_back(us(latency.p50()));
    // The program's CPU: the process's, less the driver's waiting.
    const double program_cpu_us =
        (os.user_s + os.sys_s) * 1e6 - static_cast<double>(wait_cpu_ns) / 1e3;
    window_cpu.push_back(program_cpu_us / static_cast<double>(window_ops));
    service.reset_latency();
  }
  r.paced_wall_s = seconds_since(wall0);
  // Taken before the saturate phase: every write leaves its record on
  // servers that did not hold the key yet, so memory grows with the number
  // of writes, and the saturate phase does as many as the machine's speed
  // allows. Set-up and the paced phase do a fixed amount of work.
  r.peak_rss_mb = peak_rss_mb();
  r.paced_aggregates = service.aggregates();
  if (client != nullptr) {
    expect_count(r, "paced client responses",
                 client->received() - received_before, r.paced_ops);
  }
  expect_count(r, "paced served ops",
               served(r.paced_aggregates) - w.keys, r.paced_ops);
  expect_count(r, "paced latency samples", r.latency.count(), r.paced_ops);
  expect_count(r, "paced service histogram", r.sojourn.count(), r.paced_ops);
  if (traced && client == nullptr) {
    expect_count(r, "paced completion hook", hook_completions.load(),
                 r.paced_ops);
  }
  r.lat_p50_us = median(window_p50);
  r.cpu_us_per_op = median(window_cpu);

  // ---- saturate ----
  if (traced) tracer->set_phase(Phase::kSaturate);
  const std::uint64_t received_mid = client ? client->received() : 0;
  const std::uint64_t hook_mid = hook_completions.load();
  r.submit_full = 0;  // counts the saturate phase only
  std::uint64_t saturate_samples = 0;
  const auto window_ns = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(saturate_s * 1e9 / kWindows));
  for (int win = 0; win < kWindows; ++win) {
    service.start();
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + window_ns;
    std::uint64_t ops = 0;
    on_fresh_thread([&] {
      for (;; ++ops) {
        if ((ops & 255) == 0 && std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        gen.next(op);
        issue(now(), 0);
      }
      if (client != nullptr) client->drain();
    });
    service.stop_and_drain();
    window_rate.push_back(static_cast<double>(ops) / seconds_since(t0));
    r.saturate_ops += ops;
    saturate_samples += service.merged_histogram().count();
    service.reset_latency();
  }
  r.ops_per_s = median(window_rate);
  auto show = [](const char* what, const std::vector<double>& v) {
    std::printf("# windows %-10s", what);
    for (const double x : v) std::printf(" %.2f", x);
    std::printf("\n");
  };
  show("lat_p50_us", window_p50);
  show("cpu_us/op", window_cpu);
  show("ops/s", window_rate);
  if (client != nullptr) {
    expect_count(r, "saturate client responses",
                 client->received() - received_mid, r.saturate_ops);
    const net::ClientStats cs = client->stats();
    r.retries = cs.retries + cs.timeouts + cs.abandoned + cs.reconnects;
    r.protocol_errors = d->server->protocol_errors();
  }
  expect_count(r, "saturate served ops",
               served(service.aggregates()) - served(r.paced_aggregates),
               r.saturate_ops);
  expect_count(r, "saturate service histogram", saturate_samples,
               r.saturate_ops);
  if (traced && client == nullptr) {
    expect_count(r, "saturate completion hook",
                 hook_completions.load() - hook_mid, r.saturate_ops);
  }

  r.attempted = r.paced_ops + r.saturate_ops;
  r.all_ops = r.attempted + w.keys;
  r.fold = service.fold_aggregates();
  r.profile = service.server_profile();
  r.contention = service.contention_snapshot();
  if (r.protocol_errors != 0) r.failures.emplace_back("server protocol errors");
  if (r.retries != 0) r.failures.emplace_back("client retries or timeouts");

  // The paper's guarantees, checked on every pass.
  const double eps = core::nonintersection_exact(kServers, kQuorum);
  const RateGate gate = check_stale_rate(r.fold.stale_reads, r.fold.reads, eps);
  std::printf("# %s pass: %" PRIu64 " stale of %" PRIu64
              " reads (expected %.1f, accepted [%.1f, %.1f], eps %.6g)\n",
              traced ? "traced" : "untraced", r.fold.stale_reads, r.fold.reads,
              gate.expected, gate.low, gate.high, eps);
  if (!gate.ok) r.failures.emplace_back("stale-read rate outside eps margin");
  const double max_load = r.profile.max_load();
  const double q_over_n = static_cast<double>(kQuorum) / kServers;
  const double margin = load_margin(r.profile.samples(), kServers);
  std::printf("# max load %.6f (accepted [%.4f, %.6f])\n", max_load, q_over_n,
              q_over_n + margin);
  if (max_load < q_over_n - 1e-12 || max_load > q_over_n + margin) {
    r.failures.emplace_back("max server load outside q/n margin");
  }
  expect_count(r, "load profile ops", r.profile.samples(), r.all_ops);

  // The other set-ups run last, one deployment at a time, so the measured
  // deployment was built in a fresh process: memory the freed ones leave
  // in the allocator would otherwise absorb some of the paced phase's
  // growth, by an amount that varies from run to run.
  d.reset();
  for (int i = 1; i < setups; ++i) timed_set_up();
  r.setup_s = median(setup_times);
  std::printf("# setups");
  for (const double x : setup_times) std::printf(" %.4f", x);
  std::printf("\n");
  return r;
}

// ---- replay ------------------------------------------------------------

struct ReplayResult {
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t read_allocs = 0, write_allocs = 0;
};

// The paced op stream, pre-writes first, through one standalone
// InstantCluster whose draws go through the decorator: times read_into and
// write_into, their self time without the draw, and their allocations.
ReplayResult replay(const WorkloadDef& w, std::uint64_t seed,
                    std::uint64_t ops, Tracer& tracer) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<TracedQuorumSystem>(
      std::make_shared<core::RandomSubsetSystem>(kServers, kQuorum), tracer);
  cfg.seed = service_seed(seed);
  replica::InstantCluster cluster(cfg);
  replica::WriteResult wr;
  replica::ReadResult rr;
  tracer.set_phase(Phase::kSetup);
  for (std::uint64_t key = 1; key <= w.keys; ++key) {
    cluster.write_into(wr, key, -static_cast<std::int64_t>(key));
  }
  tracer.set_phase(Phase::kReplay);
  Tracer::Lane& lane = tracer.lane();
  // Room for every replay span up front, so the allocation counts below
  // see the cluster's allocations only.
  lane.spans.reserve(lane.spans.size() + 2 * ops);
  workload::OpenLoopGenerator gen(spec_of(w), seed);
  workload::Operation op;
  ReplayResult out;
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    const std::uint64_t request = (std::uint64_t{1} << 62) | (i + 1);
    const std::uint64_t id = lane.lane_bits | lane.next_seq++;
    lane.current_parent = id;
    lane.current_request = request;
    lane.child_ns = 0;
    const std::uint64_t a0 = bench::allocations();
    const std::uint64_t t0 = tracer.now_ns();
    if (op.is_read) {
      cluster.read_into(rr, op.key);
    } else {
      cluster.write_into(wr, op.key, op.value);
    }
    const std::uint64_t t1 = tracer.now_ns();
    const std::uint64_t allocs = bench::allocations() - a0;
    lane.current_parent = 0;
    lane.current_request = 0;
    const std::uint64_t self =
        t1 - t0 > lane.child_ns ? t1 - t0 - lane.child_ns : 0;
    if (op.is_read) {
      ++out.reads;
      out.read_allocs += allocs;
      tracer.record(SpanName::kReplicaRead, t0, t1, 0, request, id);
      tracer.note(SpanName::kReplicaReadSelf, self);
    } else {
      ++out.writes;
      out.write_allocs += allocs;
      tracer.record(SpanName::kReplicaWrite, t0, t1, 0, request, id);
      tracer.note(SpanName::kReplicaWriteSelf, self);
    }
  }
  return out;
}

// ---- reporting ---------------------------------------------------------

// The metrics of one mode, in print order. BENCHMARK.json declares them;
// run.py checks the printed names and units against it.
struct Metric {
  const char* name;
  const char* unit;
  double value;
};

class Report {
 public:
  void add(const char* name, const char* unit, std::uint64_t count) {
    add(name, unit, static_cast<double>(count));
  }
  void add(const char* name, const char* unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Mean cost of one span as the driver and the decorator record it: two
// clock reads and a record, measured on a scratch tracer.
double span_cost_ns() {
  constexpr std::uint64_t kSpans = 200000;
  Tracer scratch;
  scratch.set_phase(Phase::kSaturate);
  const std::uint64_t t0 = scratch.now_ns();
  for (std::uint64_t i = 1; i <= kSpans; ++i) {
    const std::uint64_t s0 = scratch.now_ns();
    scratch.record(SpanName::kOp, s0, scratch.now_ns(), 0, i);
  }
  return static_cast<double>(scratch.now_ns() - t0) / kSpans;
}

void add_end_to_end(Report& rep, const PassResult& r) {
  rep.add("setup_s", "s", r.setup_s);
  rep.add("cpu_us_per_op", "us", r.cpu_us_per_op);
  rep.add("peak_rss_mb", "MB", r.peak_rss_mb);
}

void add_per_layer(Report& rep, const WorkloadDef& w, const PassResult& u,
                   const PassResult& t, const ReplayResult& rp,
                   const Tracer& tracer) {
  auto mean_ns = [&](Phase phase, SpanName name) {
    return tracer.merged(phase, name).mean_ns();
  };
  auto p50_ns = [&](Phase phase, SpanName name) {
    return static_cast<double>(tracer.merged(phase, name).durations.p50());
  };
  const OsSample& os = u.paced_os;
  rep.add("lat_p50_us", "us", u.lat_p50_us);
  rep.add("ops_per_s", "1/s", u.ops_per_s);
  rep.add("workload.gen_lag_p99_us", "us", us(u.gen_lag.p99()));
  rep.add("workload.ops_attempted", "count", u.attempted + t.attempted);
  rep.add("workload.ops_failed", "count", u.failed + t.failed);
  rep.add("net.client.send_ns", "ns",
          w.tcp ? mean_ns(Phase::kSaturate, SpanName::kClientSend) : 0.0);
  rep.add("net.client.flush_ns", "ns",
          w.tcp ? mean_ns(Phase::kPaced, SpanName::kClientFlush) : 0.0);
  rep.add("net.syscalls_per_op", "count", per(os.syscalls, u.paced_ops));
  rep.add("net.wire_p50_us", "us", us(u.latency.p50()) - us(u.sojourn.p50()));
  rep.add("net.server.protocol_errors", "count",
          u.protocol_errors + t.protocol_errors);
  rep.add("net.client.retries", "count", u.retries + t.retries);
  rep.add("serve.sojourn_p50_us", "us", us(u.sojourn.p50()));
  rep.add("serve.sojourn_p99_us", "us", us(u.sojourn.p99()));
  rep.add("serve.submit_ns", "ns",
          w.tcp ? 0.0 : mean_ns(Phase::kSaturate, SpanName::kServeSubmit));
  rep.add("serve.ring_full_ratio", "ratio", per(u.submit_full, u.saturate_ops));
  const std::uint64_t draws =
      tracer.merged(Phase::kPaced, SpanName::kQuorumDraw).count +
      tracer.merged(Phase::kSaturate, SpanName::kQuorumDraw).count;
  rep.add("quorum.draw_ns", "ns",
          p50_ns(Phase::kSaturate, SpanName::kQuorumDraw));
  rep.add("quorum.draws_per_op", "count",
          per(draws, t.paced_ops + t.saturate_ops));
  rep.add("quorum.max_load", "ratio", u.profile.max_load());
  rep.add("replica.read_ns", "ns",
          p50_ns(Phase::kReplay, SpanName::kReplicaReadSelf));
  rep.add("replica.write_ns", "ns",
          p50_ns(Phase::kReplay, SpanName::kReplicaWriteSelf));
  rep.add("replica.allocs_per_read", "count", per(rp.read_allocs, rp.reads));
  rep.add("replica.allocs_per_write", "count", per(rp.write_allocs, rp.writes));
  const stats::ServerCounters c = u.contention.totals();
  rep.add("replica.server_contacts_per_op", "count",
          per(c.writes_accepted + c.reads_served, u.all_ops));
  rep.add("os.sys_share", "ratio",
          os.sys_s / std::max(1e-9, os.user_s + os.sys_s));
  rep.add("os.ctx_switches_per_op", "count", per(os.ctx_switches, u.paced_ops));
  rep.add("os.allocs_per_op", "count", per(os.allocs, u.paced_ops));
  // Span-recording time per saturate op, as a share of the untraced time
  // per op at saturation. Comparing the two passes' ops_per_s instead
  // would measure run-to-run noise, which is larger than the overhead.
  std::uint64_t saturate_spans = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
    saturate_spans +=
        tracer.merged(Phase::kSaturate, static_cast<SpanName>(i)).count;
  }
  const double record_ns_per_op =
      per(saturate_spans, t.saturate_ops) * span_cost_ns();
  rep.add("trace.overhead_pct", "%",
          100.0 * record_ns_per_op * u.ops_per_s / 1e9);
  rep.add("tail.lat_p99_us", "us", us(u.latency.p99()));
  rep.add("tail.lat_p999_us", "us", us(u.latency.p999()));
  rep.add("tail.samples", "count", u.latency.count());
}

void write_metrics_json(std::FILE* f, const Report& rep) {
  std::fprintf(f, "{");
  bool first = true;
  for (const Metric& m : rep.metrics()) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", m.name, m.value, m.unit);
    first = false;
  }
  std::fprintf(f, "}");
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

int run(const Options& o) {
  const WorkloadDef& w = *o.workload;
  std::printf("# workload %s seed %" PRIu64
              ": R(%u,%u), %u shards, %u workers, %s, %.0f%% reads, "
              "zipf %.2f over %" PRIu64 " keys, paced %.0f ops/s\n",
              w.name, o.seed, kServers, kQuorum, kShards, kWorkers,
              w.tcp ? "1 loopback connection" : "in-process",
              100.0 * w.read_fraction, w.zipf_exponent, w.keys, w.rate);
  Report rep;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  auto absorb = [&](const char* pass, const PassResult& r) {
    for (const std::string& f : r.failures) {
      failures.push_back(std::string(pass) + ": " + f);
    }
    attempted += r.attempted;
    failed += r.failed;
  };
  if (!o.trace) {
    const PassResult r = run_pass(w, o.seed, o.seconds / 2, o.seconds / 2,
                                  w.setups, nullptr);
    absorb("untraced", r);
    add_end_to_end(rep, r);
    std::printf("# paced: %" PRIu64 " ops in %.3f s, lat_p50_us %.3f, "
                "tail p99 %.1f us, p999 %.1f us over %" PRIu64
                " samples; saturate: %" PRIu64 " ops, ops_per_s %.0f\n",
                r.paced_ops, r.paced_wall_s, r.lat_p50_us,
                us(r.latency.p99()), us(r.latency.p999()), r.latency.count(),
                r.saturate_ops, r.ops_per_s);
  } else {
    const double half = o.seconds / 4;
    const PassResult u = run_pass(w, o.seed, half, half, 1, nullptr);
    absorb("untraced", u);
    Tracer tracer;
    const PassResult t = run_pass(w, o.seed, half, half, 1, &tracer);
    absorb("traced", t);
    if (!(u.paced_aggregates == t.paced_aggregates)) {
      failures.emplace_back(
          "trace transparency: per-shard aggregates differ between the "
          "traced and untraced runs of the same seed");
    } else {
      std::printf("# trace transparency: %zu per-shard aggregates "
                  "bit-identical\n",
                  u.paced_aggregates.size());
    }
    const ReplayResult rp = replay(w, o.seed, u.paced_ops, tracer);
    add_per_layer(rep, w, u, t, rp, tracer);

    const std::string dir = o.out_dir + "/" + w.name;
    if (!make_dir(o.out_dir) || !make_dir(dir) ||
        !tracer.write_csv(dir + "/spans.csv")) {
      failures.emplace_back("cannot write spans to " + dir);
    } else if (std::FILE* f = std::fopen((dir + "/layers.json").c_str(), "w")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                   ", \"spans_dropped\": %" PRIu64 ", \"metrics\": ",
                   w.name, o.seed, tracer.dropped());
      write_metrics_json(f, rep);
      std::fprintf(f, "}\n");
      std::fclose(f);
      std::printf("# spans and per-layer numbers written to %s\n", dir.c_str());
    } else {
      failures.emplace_back("cannot write " + dir + "/layers.json");
    }
  }

  for (const Metric& m : rep.metrics()) {
    std::printf("%-32s %18.6f %s\n", m.name, m.value, m.unit);
  }
  for (const std::string& f : failures) std::printf("# FAILED %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": ",
              correct ? "true" : "false", attempted, failed);
  write_metrics_json(stdout, rep);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pqs::perfbench

int main(int argc, char** argv) {
  const pqs::perfbench::Options options = pqs::perfbench::parse(argc, argv);
  try {
    return pqs::perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_bench: %s\n", e.what());
    return 1;
  }
}
