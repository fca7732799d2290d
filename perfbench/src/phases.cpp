// The measured phases: lookup sweep, loaded campaigns, serving under churn.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "bench.hpp"
#include "measure/prober.hpp"
#include "media/session.hpp"
#include "sim/path_model.hpp"
#include "sim/time.hpp"
#include "topo/segments.hpp"
#include "traffic/assignment.hpp"
#include "traffic/matrix.hpp"
#include "util/counters.hpp"
#include "util/thread_pool.hpp"

namespace vns::perfbench {

// --- lookup sweep -----------------------------------------------------------

void run_sweep(const core::VnsNetwork& vns, const std::vector<net::Ipv4Address>& targets,
               int threads, double seconds, SweepResult& result, Tally& tally) {
  const auto pops = vns.pops();
  const std::size_t per_pass = targets.size() * pops.size();
  std::vector<core::PopId> expected(per_pass);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (std::size_t v = 0; v < pops.size(); ++v) {
      expected[i * pops.size() + v] = vns.egress_pop(pops[v].id, targets[i]).value_or(core::kNoPop);
    }
  }

  // One sample is a group of passes without a barrier between them, long
  // enough that pool hand-off is noise.  It is cut into small chunks, each
  // one pass over one slice of the targets, that the readers claim as they
  // go: every pass still walks the whole table, and a reader on a CPU that
  // another process holds takes fewer chunks instead of stalling the sample.
  constexpr std::size_t kPassesPerSample = 32;
  constexpr std::size_t kSlices = 64;
  std::uint64_t lookups = 0;
  util::ThreadPool pool(static_cast<unsigned>(threads));
  std::atomic<std::uint64_t> mismatches{0};
  const auto start = Clock::now();
  do {
    const auto sample_start = Clock::now();
    pool.parallel_for(kPassesPerSample * kSlices, [&](std::size_t chunk) {
      const std::size_t slice = chunk % kSlices;
      const std::size_t begin = targets.size() * slice / kSlices;
      const std::size_t end = targets.size() * (slice + 1) / kSlices;
      std::uint64_t wrong = 0;
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t v = 0; v < pops.size(); ++v) {
          const auto answer = vns.egress_pop(pops[v].id, targets[i]).value_or(core::kNoPop);
          wrong += answer != expected[i * pops.size() + v];
        }
      }
      if (wrong != 0) mismatches.fetch_add(wrong, std::memory_order_relaxed);
    });
    const std::uint64_t sample = per_pass * kPassesPerSample;
    result.pass_mlps.add(static_cast<double>(sample) / seconds_since(sample_start) / 1e6);
    lookups += sample;
  } while (seconds_since(start) < seconds);
  result.lookups += lookups;

  const std::uint64_t wrong = mismatches.load();
  tally.ok(lookups - wrong);
  if (wrong != 0) tally.fail("sweep: egress_pop answers changed between passes", wrong);
}

// --- loaded campaigns ---------------------------------------------------------

namespace {

/// Fig. 9's clients and echo servers (§5.1).
constexpr const char* kClients[] = {"AMS", "SJS", "SYD"};
constexpr std::pair<const char*, geo::PopRegion> kServers[] = {
    {"AMS", geo::PopRegion::kEU}, {"FRA", geo::PopRegion::kEU}, {"HKG", geo::PopRegion::kAP},
    {"SIN", geo::PopRegion::kAP}, {"ASH", geo::PopRegion::kUS}, {"NYC", geo::PopRegion::kUS},
};

/// The busiest half-hour of the matrix's day: where the load is assigned.
double peak_time(const traffic::Matrix& matrix) {
  double peak_t = 0.0;
  double peak_total = -1.0;
  for (int slot = 0; slot < 48; ++slot) {
    const double t = 1800.0 * slot;
    double total = 0.0;
    for (core::PopId s = 0; s < matrix.pop_count(); ++s) {
      for (core::PopId e = 0; e < matrix.pop_count(); ++e) {
        if (s != e) total += matrix.demand_mbps(s, e, t);
      }
    }
    if (total > peak_total) {
      peak_total = total;
      peak_t = t;
    }
  }
  return peak_t;
}

std::uint64_t counter(std::string_view name) { return util::Counters::global().value(name); }

}  // namespace

Campaign::Campaign(const measure::Workbench& world, int hosts_per_cell, std::uint64_t seed,
                   int threads)
    : seed_(seed), threads_(threads) {
  const auto& vns = world.vns();
  auto& result = result_;

  // Peak offered load in long-haul circuits' worth: the busiest circuit runs
  // loaded (queueing delay) but stays under the 70% loss knee, where Fig. 9's
  // VNS-below-transit ordering is the paper's claim.
  constexpr double kOfferedLoad = 16.0;
  traffic::MatrixConfig matrix_config;
  matrix_config.offered_load_mbps = kOfferedLoad * vns.config().long_haul_capacity_mbps;
  matrix_config.seed = seed * 1315423911ULL + 17;
  matrix_config.threads = threads;
  auto start = Clock::now();
  const auto matrix = traffic::Matrix::build(vns, world.internet(), matrix_config);
  result.matrix_build_s = seconds_since(start);
  const double load_t = peak_time(matrix);
  start = Clock::now();
  const auto load = traffic::assign_load(vns, matrix, load_t);
  result.assign_s = seconds_since(start);
  result.links_loaded = load.links_loaded;
  result.util_max = load.util_max;

  constexpr double kRoundDays = 4.0;  // simulated days per campaign round
  const double horizon = kRoundDays * sim::kSecondsPerDay;
  start = Clock::now();
  for (std::size_t c = 0; c < std::size(kClients); ++c) {
    const auto client = *vns.find_pop(kClients[c]);
    const auto& client_city = vns.pop(client).city;
    for (std::size_t s = 0; s < std::size(kServers); ++s) {
      const auto server = *vns.find_pop(kServers[s].first);
      if (server == client) continue;
      const auto& server_city = vns.pop(server).city;
      // VNS's dedicated links under the assigned load, and a ride on the
      // client PoP's primary upstream between the two cities.
      auto vns_segments =
          vns.internal_segments(client, server, world.catalog(), load.link_utilization);
      std::vector<topo::AsIndex> upstream;
      for (const auto& attachment : vns.attachments()) {
        if (attachment.pop == client && attachment.upstream) {
          upstream.push_back(attachment.as);
          break;
        }
      }
      auto transit_segments = topo::transit_path_segments(
          world.internet(), client_city.location, client_city.region, upstream,
          server_city.location, topo::AsType::kLTP, server_city.region, world.catalog(),
          world.delay(), /*include_last_mile=*/false);
      result.segments_calls += 2;
      for (const bool via_vns : {true, false}) {
        for (const auto& profile : {media::VideoProfile::hd1080(), media::VideoProfile::hd720()}) {
          measure::StreamTask task;
          task.segments = via_vns ? vns_segments : transit_segments;
          task.horizon_s = horizon;
          task.start_s = static_cast<double>(s) * 150.0;  // staggered per server
          task.end_s = horizon - 150.0;
          task.interval_s = 1800.0;  // twice per hour
          task.profile = profile;
          keys_.push_back({c, kServers[s].second, via_vns});
          streams_.push_back(std::move(task));
        }
      }
    }
  }
  const auto sjs = *vns.find_pop("SJS");
  for (const auto& host : world.select_last_mile_hosts(hosts_per_cell, seed ^ 0x605)) {
    measure::TrainTask task;
    task.segments = world.probe_segments(sjs, host.prefix_id, /*include_last_mile=*/true);
    task.horizon_s = horizon;
    task.interval_s = 600.0;  // every ten minutes
    task.packets = 100;
    trains_.push_back(std::move(task));
    ++result.segments_calls;
  }
  result.segments_s = seconds_since(start);
  sessions0_ = counter("measure.sessions_streamed");
  slots0_ = counter("measure.slots_analyzed");
  probes0_ = counter("measure.probes_sent");
}

void Campaign::run(double seconds) {
  auto& result = result_;
  const auto start = Clock::now();
  do {
    const util::Rng stream_rng{seed_ ^ 0xf169ULL ^ (result.rounds << 32)};
    auto round_start = Clock::now();
    const auto stream_results = measure::run_stream_campaign(streams_, stream_rng, threads_);
    const double stream_s = seconds_since(round_start);
    std::uint64_t sessions = 0;
    for (std::size_t i = 0; i < stream_results.size(); ++i) {
      auto& sum = losses_[keys_[i]];
      for (const auto& session : stream_results[i].sessions) {
        sum.percent += session.loss_percent();
        ++sum.sessions;
      }
      sessions += stream_results[i].sessions.size();
    }
    result.stream_s += stream_s;
    result.sessions += sessions;
    result.sessions_per_s.add(static_cast<double>(sessions) / stream_s);

    const util::Rng train_rng{seed_ ^ 0xf1612ULL ^ (result.rounds << 32)};
    round_start = Clock::now();
    const auto train_results = measure::run_train_campaign(trains_, train_rng, threads_);
    const double train_s = seconds_since(round_start);
    std::uint64_t rounds = 0;
    for (const auto& task : train_results) rounds += task.rounds.size();
    result.train_s += train_s;
    result.train_rounds += rounds;
    result.train_rounds_per_s.add(static_cast<double>(rounds) / train_s);
    ++result.rounds;
  } while (seconds_since(start) < seconds);
}

void Campaign::finish(bool traced, Tally& tally) {
  auto& result = result_;

  result.slots = counter("measure.slots_analyzed") - slots0_;
  result.probes = counter("measure.probes_sent") - probes0_;
  if (counter("measure.sessions_streamed") - sessions0_ != result.sessions) {
    tally.fail("campaign: session counter disagrees with the returned sessions");
  }
  tally.ok(result.sessions + result.train_rounds);

  // Fig. 9's ordering: through VNS never lossier than through transit.
  for (const auto& [key, sum] : losses_) {
    if (!key.via_vns) continue;
    const auto& transit = losses_.at({key.client, key.region, false});
    const double vns_loss = sum.percent / static_cast<double>(sum.sessions);
    const double transit_loss = transit.percent / static_cast<double>(transit.sessions);
    if (vns_loss <= transit_loss) {
      tally.ok();
    } else {
      tally.fail(std::string{"fig9: VNS loss above transit from "} + kClients[key.client] +
                 " to " + std::string{geo::to_string(key.region)} + ": " +
                 std::to_string(vns_loss) + "% > " + std::to_string(transit_loss) + "%");
    }
  }

  if (traced) {
    // Speed-up of one stream + train round at one thread over `threads`.
    util::Rng rng{seed_ ^ 0x5eedULL};
    double at_threads = 0.0;
    double at_one = 0.0;
    for (const int n : {threads_, 1}) {
      const auto round_start = Clock::now();
      (void)measure::run_stream_campaign(streams_, rng, n);
      (void)measure::run_train_campaign(trains_, rng, n);
      (n == 1 ? at_one : at_threads) = seconds_since(round_start);
    }
    result.campaign_speedup = at_one / at_threads;

    // Single-thread samples of the data-plane calls the campaigns make.
    Samples build_us;
    for (const auto& task : streams_) {
      const auto call_start = Clock::now();
      const sim::PathModel model{task.segments, task.horizon_s, rng.fork("model")};
      build_us.add(seconds_since(call_start) * 1e6);
    }
    result.path_model_build_us = build_us.median();
    const auto& task = streams_.front();
    const sim::PathModel path{task.segments, task.horizon_s, rng.fork("path")};
    util::Rng draw = rng.fork("draws");
    Samples session_us;
    for (int i = 0; i < 256; ++i) {
      const auto call_start = Clock::now();
      (void)media::run_session(path, task.profile, 1800.0 * i, task.session, draw);
      session_us.add(seconds_since(call_start) * 1e6);
    }
    result.run_session_us = session_us.median();
    constexpr int kDraws = 100000;
    const auto draws_start = Clock::now();
    for (int i = 0; i < kDraws; ++i) (void)path.sample_losses(0.6 * i, 100, draw);
    result.sample_losses_ns = seconds_since(draws_start) * 1e9 / kDraws;
  }
}

// --- serving under churn ------------------------------------------------------

namespace {

// Churn in engine epochs of a fixed batch count.  Events keep
// generate_trace's default 5:2:1 announce:withdraw:fault odds.  A batch with
// a fault costs up to ~1.6 s, and an epoch cannot stop early, so epochs are
// short for the phase to keep to its share of the run.
constexpr std::uint64_t kEpochBatches = 4;
constexpr std::uint64_t kReplayBatches = 8;  // replayed by the determinism check
constexpr std::uint32_t kEventsPerBatch = 8;
constexpr double kDwellS = 0.02;        // serving window after each batch
constexpr double kResolverQps = 5000;  // per resolver, fixed schedule

}  // namespace

Churn::Churn(core::VnsNetwork& vns, std::uint64_t seed, int threads, double seconds, int slots,
             bool digest_replay)
    : vns_(vns),
      seed_(seed),
      resolvers_(std::max(1, threads - 1)),
      build_threads_(static_cast<int>(vns.fabric().threads())),
      digest_replay_(digest_replay) {
  // Long enough for the whole budget even if batches cost nothing beyond
  // their dwell, plus the one epoch every slot runs at least.
  max_epochs_ = static_cast<std::uint64_t>(std::ceil(seconds / (kDwellS * kEpochBatches))) +
                static_cast<std::uint64_t>(slots);
  serve::GenerateConfig generate;
  generate.seed = seed;
  generate.scale = "paper";
  generate.batches = max_epochs_ * kEpochBatches;
  generate.events_per_batch = kEventsPerBatch;
  trace_ = serve::generate_trace(vns, generate);
  result_.replay.seed = trace_.seed;
  result_.replay.scale = trace_.scale;
  // threads-1 resolvers plus the churn thread, which reconverges inline: the
  // run stays within `threads` threads, so probe tails are not scheduling
  // artefacts of an oversubscribed box.
  vns_.fabric().set_threads(1);
  conv0_ = vns_.fabric().convergence_stats();
  fib0_ = net::FlatFibMetrics::global().snapshot();
}

void Churn::run(double seconds) {
  auto start = Clock::now();
  do {
    if (epoch_ == max_epochs_) return;
    serve::UpdateTrace slice;
    slice.seed = trace_.seed;
    slice.scale = trace_.scale;
    slice.batches = kEpochBatches;
    const std::uint64_t first = epoch_ * kEpochBatches;
    for (; next_event_ < trace_.events.size() &&
           trace_.events[next_event_].batch < first + kEpochBatches;
         ++next_event_) {
      serve::UpdateEvent event = trace_.events[next_event_];
      event.batch -= first;
      slice.events.push_back(std::move(event));
    }

    std::vector<Clock::time_point> applied_at;
    applied_at.reserve(kEpochBatches);
    serve::EngineConfig config;
    config.resolver_threads = resolvers_;
    config.duration_s = kDwellS * kEpochBatches;
    config.qps = kResolverQps;
    config.seed = seed_ + epoch_;
    config.heartbeat_every = 0;
    config.on_batch_applied = [&applied_at](std::uint64_t) {
      applied_at.push_back(Clock::now());
    };
    serve::Engine engine(vns_, config);
    const auto report = engine.run(slice);
    const auto dwell = std::chrono::duration<double>(kDwellS);
    for (std::size_t k = 1; k < applied_at.size(); ++k) {
      result_.batch_ms.add(
          std::chrono::duration<double, std::milli>(applied_at[k] - applied_at[k - 1] - dwell)
              .count());
    }

    auto& slo = result_.slo;
    slo.steady_ns.merge(report.steady_ns);
    slo.converging_ns.merge(report.converging_ns);
    slo.stale_ns.merge(report.stale_ns);
    slo.freshness_lag.merge(report.freshness_lag);
    slo.probes += report.probes;
    slo.stale_served += report.stale_served;
    slo.batches += report.batches;
    slo.events_applied += report.events_applied;
    slo.fib_patches += report.fib_patches;
    slo.fib_full_rebuilds += report.fib_full_rebuilds;
    slo.max_freshness_lag = std::max(slo.max_freshness_lag, report.max_freshness_lag);
    slo.wall_seconds += report.wall_seconds;
    result_.events_attempted += slice.events.size();
    result_.scheduled_probes += kResolverQps * resolvers_ * report.wall_seconds;
    auto& replay = result_.replay;
    if (digest_replay_ && replay.batches < kReplayBatches) {
      const auto digest_start = Clock::now();
      for (auto& event : slice.events) {
        event.batch += replay.batches;
        replay.events.push_back(std::move(event));
      }
      replay.batches += kEpochBatches;
      result_.replay_digest = fabric_digest(vns_.fabric());
      start += Clock::now() - digest_start;  // not part of the churn budget
    }
    ++epoch_;
  } while (seconds_since(start) < seconds);
}

void Churn::finish(Tally& tally) {
  vns_.fabric().set_threads(build_threads_);
  result_.all_ns.merge(result_.slo.steady_ns);
  result_.all_ns.merge(result_.slo.converging_ns);
  result_.all_ns.merge(result_.slo.stale_ns);
  result_.convergence = convergence_delta(vns_.fabric().convergence_stats(), conv0_);
  result_.fib = fib_delta(net::FlatFibMetrics::global().snapshot(), fib0_);

  tally.ok(result_.slo.probes + result_.slo.events_applied);
  if (result_.slo.events_applied != result_.events_attempted) {
    tally.fail("churn: trace events that did not apply",
               result_.events_attempted - result_.slo.events_applied);
  }
}

}  // namespace vns::perfbench
