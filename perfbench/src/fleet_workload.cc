// sim_fleet: the discrete-event engine over a pinwheel-planned program,
// with a Zipf-skewed, Poisson-arriving fleet (bench_fleet_scale's client
// generator) under a Gilbert-Elliott channel.
//
// Timed runs call EventEngine::Run — the engine Simulator::
// RunWorkloadEvented drives — on a 2-thread pool. A composed run makes the
// same calls in the same order (one EventShardRunner per shard: Prepare,
// Drain, Collect, then the shard-order merge) on two threads of its own;
// it checks the engine (metrics byte-identical to the timed run, and the
// d^(r) guarantee per client) and, with --trace 1, carries the spans.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bdisk/delay_analysis.h"
#include "bdisk/pinwheel_builder.h"
#include "bdisk/spec_parser.h"
#include "common/zipf.h"
#include "faults/channel_spec.h"
#include "ledger.h"
#include "pinwheel/composite_scheduler.h"
#include "runtime/parallel_for.h"
#include "runtime/rng_stream.h"
#include "runtime/thread_pool.h"
#include "sim/arrivals.h"
#include "sim/event_engine.h"
#include "sim/metrics.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace broadcast = bdisk::broadcast;
namespace faults = bdisk::faults;
namespace sim = bdisk::sim;

constexpr std::uint64_t kClients = 300000;
constexpr std::uint64_t kSlots = 20000;
constexpr unsigned kThreads = 2;

// 16 slot-domain files of 8 blocks tolerating 8 faults (n = 16), windows
// of about 300 slots: a realistic AIDA program for a large fleet.
std::string FleetSpec() {
  std::string text;
  for (int i = 0; i < 16; ++i) {
    text += "gfile s" + std::to_string(i) + " blocks=8 latencies=";
    for (int j = 0; j <= 8; ++j) {
      if (j > 0) text += ",";
      text += std::to_string(300 + 16 * j);
    }
    text += "\n";
  }
  return text;
}

std::string ChannelSpec(std::uint64_t seed) {
  return "gilbert:pgb=0.01,pbg=0.25,seed=" +
         std::to_string(bdisk::runtime::StreamSeed(seed, 0x6E));
}

struct Engine {
  broadcast::BroadcastProgram program;
  std::vector<faults::FaultType> trace;
  std::unique_ptr<sim::EventEngine> engine;
};

// Spec text to a ready engine: parse, plan, realize the channel's fault
// trace, build the engine.
std::unique_ptr<Engine> SetUp(std::uint64_t seed, ThreadLog* log) {
  auto e = std::make_unique<Engine>();
  Span root(log, Layer::kRoot);
  const broadcast::WorkloadSpec spec = Traced(log, Layer::kBdiskParse, [&] {
    return Must(broadcast::ParseWorkloadSpec(FleetSpec()), "parse spec");
  });
  e->program = Traced(log, Layer::kBdiskPlan, [&] {
    const bdisk::pinwheel::CompositeScheduler scheduler;
    return Must(broadcast::BuildGeneralizedProgram(spec.generalized_files,
                                                   scheduler),
                "plan")
        .program;
  });
  {
    Span span(log, Layer::kFaultsTrace);
    const auto channel =
        Must(faults::ParseChannelSpec(ChannelSpec(seed)), "channel");
    e->trace.resize(kSlots);
    channel->FillFaults(0, kSlots, e->trace.data());
  }
  e->engine = Traced(log, Layer::kEngineBuild, [&] {
    return std::make_unique<sim::EventEngine>(e->program, e->trace);
  });
  return e;
}

// The engines must agree byte for byte on a small configuration before any
// fleet number is reported.
bool EnginesAgree(const broadcast::BroadcastProgram& program,
                  std::uint64_t seed, bdisk::runtime::ThreadPool* pool) {
  const auto channel =
      Must(faults::ParseChannelSpec(ChannelSpec(seed)), "channel");
  const sim::Simulator simulator(program, *channel, 4096);
  sim::WorkloadConfig config;
  config.requests_per_file = 50;
  config.seed = seed;
  const auto slot = simulator.RunWorkload(config, nullptr);
  const auto event = simulator.RunWorkloadEvented(config, pool);
  return slot.ok() && event.ok() &&
         sim::MetricsToJson(*slot) == sim::MetricsToJson(*event);
}

struct ComposedRun {
  sim::SimulationMetrics metrics;
  std::vector<std::unique_ptr<sim::EventShardRunner>> runners;
  std::uint64_t events = 0;
  double wall_s = 0.0;
};

// EventEngine::Run composed from EventShardRunner calls on two threads.
ComposedRun RunComposed(
    const sim::EventEngine& engine,
    const std::function<sim::EventClient(std::uint64_t)>& client_at,
    ThreadLog* main_log, ThreadLog* const shard_logs[kThreads]) {
  ComposedRun run;
  const std::size_t file_count = engine.files().size();
  std::vector<sim::SimulationMetrics> local(kThreads);
  for (unsigned s = 0; s < kThreads; ++s) {
    run.runners.push_back(std::make_unique<sim::EventShardRunner>(engine));
  }
  const std::uint64_t t0 = NowNs();
  {
    Span root(main_log, Layer::kRoot);
    Span span(main_log, Layer::kEngineRun);
    std::vector<std::thread> threads;
    for (unsigned s = 0; s < kThreads; ++s) {
      threads.emplace_back([&, s] {
        ThreadLog* log = shard_logs[s];
        const bdisk::runtime::ShardRange range =
            bdisk::runtime::ShardOf(kClients, kThreads, s);
        sim::EventShardRunner& runner = *run.runners[s];
        Span root(log, Layer::kRoot);
        local[s].per_file.resize(file_count);
        Traced(log, Layer::kArrivals, [&] {
          runner.Prepare(range.begin, range.end, client_at);
          return 0;
        });
        Traced(log, Layer::kEngineDrain, [&] {
          runner.Drain();
          return 0;
        });
        Traced(log, Layer::kEngineCollect, [&] {
          runner.Collect(&local[s], nullptr, range.begin, nullptr);
          return 0;
        });
      });
    }
    for (std::thread& t : threads) t.join();
    run.metrics.per_file.resize(file_count);
    for (std::size_t f = 0; f < file_count; ++f) {
      run.metrics.per_file[f].file_name = engine.files()[f].name;
    }
    for (const sim::SimulationMetrics& m : local) run.metrics.Merge(m);
  }
  run.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (const auto& r : run.runners) run.events += r->events_processed();
  return run;
}

}  // namespace

Outcome RunSimFleet(const Options& options) {
  Outcome out;
  out.notes.push_back(
      "simulated broadcast: no socket, store or codec is exercised");

  // The engine every run uses; more set-ups are sampled between runs.
  const auto timed_set_up = [&](std::unique_ptr<Engine>* engine) {
    const std::uint64_t t0 = NowNs();
    *engine = SetUp(options.seed, nullptr);
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  std::unique_ptr<Engine> e;
  std::vector<double> setup_s = {timed_set_up(&e)};
  const broadcast::BroadcastProgram& program = e->program;

  bdisk::runtime::ThreadPool pool(kThreads);
  if (!EnginesAgree(program, options.seed, &pool)) {
    out.Fail("event engine diverged from the slot engine on the small "
             "cross-check configuration");
    return out;
  }

  // Per-file d^(r); clients carry it as their deadline.
  const broadcast::DelayAnalyzer analyzer(program);
  std::vector<std::uint64_t> bound;
  std::vector<std::uint32_t> tolerance;
  for (std::size_t f = 0; f < program.file_count(); ++f) {
    const auto r = static_cast<std::uint32_t>(
        program.files()[f].latency_slots.size() - 1);
    tolerance.push_back(r);
    bound.push_back(Must(analyzer.WorstCaseLatency(
                             static_cast<broadcast::FileIndex>(f), r,
                             broadcast::ClientModel::kIda),
                         "worst-case latency"));
  }

  // bench_fleet_scale's generator: Zipf(0.95) file choice, Poisson
  // arrivals over a window that leaves every client four times the
  // largest d^(r) to finish.
  const std::uint64_t tail = 4 * *std::max_element(bound.begin(), bound.end());
  const bdisk::ZipfDistribution zipf(program.file_count(), 0.95);
  const sim::PoissonArrivals arrivals(kSlots - tail, options.seed);
  const std::uint64_t seed = options.seed;
  const std::function<sim::EventClient(std::uint64_t)> client_at =
      [&](std::uint64_t g) {
        sim::EventClient client;
        client.file = static_cast<broadcast::FileIndex>(zipf.Sample(
            bdisk::runtime::StreamRng(seed ^ 0x5a5a5a5aULL, g)
                .UniformDouble()));
        client.start_slot = arrivals.ArrivalSlotOf(g);
        client.deadline_slots = bound[client.file];
        return client;
      };

  Ledger ledger;
  ThreadLog* setup_log = nullptr;
  ThreadLog* main_log = nullptr;
  ThreadLog* shard_logs[kThreads] = {nullptr, nullptr};
  if (options.trace) {
    setup_log = ledger.NewThread("setup");
    SetUp(options.seed, setup_log);
    main_log = ledger.NewThread("engine");
    for (unsigned s = 0; s < kThreads; ++s) {
      shard_logs[s] = ledger.NewThread("shard" + std::to_string(s));
    }
  }

  // Timed runs (the first is a warm-up); with --trace 1, composed traced
  // runs alternate with them.
  std::vector<double> rate, cpu_us, plain_wall, traced_wall;
  std::string reference_json;
  sim::EventEngineStats stats;
  const std::uint64_t start = NowNs();
  for (int run = 0;; ++run) {
    if (!options.trace) {
      SampleSetUps(
          [&] {
            std::unique_ptr<Engine> sample;
            return timed_set_up(&sample);
          },
          &setup_s);
    }
    const double cpu0 = ProcessCpuSeconds();
    const std::uint64_t t0 = NowNs();
    const sim::SimulationMetrics metrics =
        e->engine->Run(kClients, client_at, &pool, &stats);
    const double wall = static_cast<double>(NowNs() - t0) / 1e9;
    const double cpu = ProcessCpuSeconds() - cpu0;
    const std::string json = sim::MetricsToJson(metrics);
    if (run == 0) {
      reference_json = json;
    } else {
      if (json != reference_json) out.Fail("engine runs disagree");
      rate.push_back(static_cast<double>(stats.events) / wall);
      cpu_us.push_back(cpu * 1e6 / static_cast<double>(stats.events));
      plain_wall.push_back(wall);
    }
    if (options.trace) {
      const ComposedRun traced =
          RunComposed(*e->engine, client_at, main_log, shard_logs);
      traced_wall.push_back(traced.wall_s);
      if (sim::MetricsToJson(traced.metrics) != reference_json) {
        out.Fail("composed engine run disagrees with EventEngine::Run");
      }
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (run >= 2 && elapsed >= options.seconds) break;
  }

  // Verification: the composed run's per-client states.
  ThreadLog* const no_logs[kThreads] = {nullptr, nullptr};
  const ComposedRun check = RunComposed(*e->engine, client_at, nullptr,
                                        no_logs);
  if (sim::MetricsToJson(check.metrics) != reference_json) {
    out.Fail("composed engine run disagrees with EventEngine::Run");
  }
  std::vector<double> latencies;
  latencies.reserve(kClients);
  std::uint64_t failed = 0, violations = 0, guaranteed = 0;
  for (unsigned s = 0; s < kThreads; ++s) {
    const bdisk::runtime::ShardRange range =
        bdisk::runtime::ShardOf(kClients, kThreads, s);
    const sim::EventShardRunner& runner = *check.runners[s];
    for (std::size_t i = 0; i < runner.client_count(); ++i) {
      const sim::ClientState& st = runner.state(i);
      const bool completed = (st.flags & sim::ClientState::kCompleted) != 0;
      const std::uint64_t d = bound[st.file];
      if (completed) {
        latencies.push_back(
            static_cast<double>(st.completion_slot - st.start_slot + 1));
      } else {
        ++failed;
      }
      // The paper's guarantee: at most r faults of the file inside the
      // window means retrieval within d^(r).
      if (st.errors_observed > tolerance[st.file] ||
          st.start_slot + d > kSlots) {
        continue;
      }
      ++guaranteed;
      if (!completed || st.completion_slot - st.start_slot + 1 > d) {
        ++violations;
        if (violations <= 5) {
          out.Fail("client " + std::to_string(range.begin + i) + " saw " +
                   std::to_string(st.errors_observed) +
                   " faults but missed d^(r)=" + std::to_string(d));
        }
      }
    }
  }
  out.attempted = kClients;
  out.failed = failed + violations;

  std::uint64_t attempts = 0, misses = 0;
  for (const sim::FileMetrics& fm : check.metrics.per_file) {
    attempts += fm.attempts();
    misses += fm.missed_deadline + fm.incomplete;
  }

  out.end_to_end["setup_s"] = Median(setup_s);
  out.end_to_end["ops_per_s"] = Median(rate);
  out.end_to_end["cpu_us_per_op"] = Median(cpu_us);
  out.end_to_end["retrieval_slots_p50"] = Percentile(latencies, 50);
  out.end_to_end["retrieval_slots_p99"] = Percentile(latencies, 99);
  out.end_to_end["peak_rss_mb"] = PeakRssMb();

  out.Detail("clients", static_cast<double>(kClients), "count");
  out.Detail("slots", static_cast<double>(kSlots), "slots");
  out.Detail("threads", kThreads, "count");
  out.Detail("program_period", static_cast<double>(program.period()),
             "slots");
  out.Detail("timed_runs", static_cast<double>(rate.size()), "count");
  out.Detail("sim_events_per_s", Median(rate), "1/s");
  out.Detail("cpu_us_per_event", Median(cpu_us), "us");
  out.Detail("retrieval_samples", static_cast<double>(latencies.size()),
             "count");
  out.Detail("retrieval_fail_ratio",
             static_cast<double>(out.failed) / static_cast<double>(kClients),
             "ratio");
  out.Detail("deadline_miss_ratio",
             static_cast<double>(misses) /
                 static_cast<double>(std::max<std::uint64_t>(attempts, 1)),
             "ratio");
  out.Detail("deadline_guaranteed_clients", static_cast<double>(guaranteed),
             "count");
  out.Detail("deadline_guarantee_violations", static_cast<double>(violations),
             "count");

  if (!options.trace) return out;

  auto& L = out.per_layer;
  const auto total = [&](Layer l) { return ledger.Sum(l); };
  L["bdisk.plan_ms"] =
      static_cast<double>(total(Layer::kBdiskPlan).total_ns) / 1e6;
  L["engine.run_s"] = Median(traced_wall);
  L["engine.events_per_client"] =
      static_cast<double>(check.events) / static_cast<double>(kClients);
  const double traced_runs = static_cast<double>(traced_wall.size());
  L["arrivals.prepare_ns_per_client"] =
      static_cast<double>(total(Layer::kArrivals).total_ns) /
      (traced_runs * static_cast<double>(kClients));
  L["engine.drain_ns_per_event"] =
      static_cast<double>(total(Layer::kEngineDrain).total_ns) /
      (traced_runs * static_cast<double>(check.events));
  ReportLedger(ledger, traced_wall, plain_wall, options.spans_path, &out);
  return out;
}

}  // namespace perfbench
