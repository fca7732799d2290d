// vns_perfbench: one run of one benchmark workload.
//
//   vns_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints JSON lines: the run identity, the per-timing detail (median, tail
// percentile, sample count), and last the result object
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced set-up and reports the
// per-layer metrics instead.  Exits 1 when an output check fails, 2 on bad
// arguments.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "bgp/attr_table.hpp"

#ifndef VNS_BENCH_BUILD_TYPE
#define VNS_BENCH_BUILD_TYPE "unknown"
#define VNS_BENCH_CXX_FLAGS "unknown"
#define VNS_BENCH_COMPILER "unknown"
#endif

namespace vns::perfbench {
namespace {

// Why each mix exists is recorded in perfbench/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {.name = "full_build",
     .setups = 4,
     .sweep_share = 0.55,
     .campaign_share = 0.3,
     .churn_share = 0.15},
    {.name = "paper_churn",
     .setups = 3,
     .sweep_share = 0.1,
     .campaign_share = 0.15,
     .churn_share = 0.75,
     .check_thread_determinism = true},
    {.name = "paper_campaign",
     .setups = 3,
     .sweep_share = 0.1,
     .campaign_share = 0.5,
     .churn_share = 0.4,
     .hosts_per_cell = 50},
};

/// How far the traced set-up may differ from the untraced one before the
/// layer attribution is considered stale.
constexpr double kTraceMargin = 0.15;

/// Turns the measured phases take within one run.
constexpr int kSlots = 4;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  return std::string(buffer, end);
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// {"median":..,"<tail_name>":..,"count":..}
std::string summary(const Samples& samples, const char* tail_name, double tail_q) {
  return "{\"median\":" + number(samples.median()) + ",\"" + tail_name +
         "\":" + number(samples.quantile(tail_q)) +
         ",\"count\":" + std::to_string(samples.count()) + "}";
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    auto parse_uint = [&](std::uint64_t& out) {
      const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
      return ec == std::errc{} && ptr == value.data() + value.size();
    };
    if (arg == "--workload") {
      options.workload = find_workload(value);
      if (options.workload == nullptr) return false;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_uint(options.seed)) return false;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const std::string text{value};
      options.seconds = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

struct Report {
  Metrics metrics;
  std::ostringstream detail;  // comma-separated "key":value members
  void add_detail(std::string_view key, const std::string& json) {
    if (detail.tellp() > 0) detail << ',';
    detail << quoted(key) << ':' << json;
  }
};

int run(const Options& options) {
  const Workload& workload = *options.workload;
  // Every phase uses every CPU, so all load stays within nproc threads.
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Tally tally;
  Report report;

  // --- set-up ---------------------------------------------------------------
  Samples setups;
  std::unique_ptr<measure::Workbench> world;
  TracedBuild traced;
  TracedBuild traced_one;
  TracedBuild traced_again;  // a second nproc build, for the margin check
  std::vector<std::uint64_t> untraced_digests;
  auto build_untraced = [&] {
    world.reset();  // one world alive at a time; destruction is not timed
    auto setup = timed_setup(options.seed, threads);
    setups.add(setup.seconds);
    world = std::move(setup.world);
    // Traced builds end with a digest too, so in the traced run every build
    // starts from a like allocator state.
    if (options.trace) untraced_digests.push_back(fabric_digest(world->vns().fabric()));
  };
  if (options.trace) {
    if (const auto gap = traced_build_gap(); !gap.empty()) {
      std::cerr << "perfbench: check failed: trace: Workbench::build takes a branch "
                   "traced_build does not reproduce: "
                << gap << '\n';
      return 1;
    }
    // Untraced and traced builds alternate so drift affects both alike.
    build_untraced();
    world.reset();
    traced = traced_build(options.seed, threads, /*time_routes_to=*/true);
    build_untraced();
    world.reset();
    traced_one = traced_build(options.seed, 1, /*time_routes_to=*/false);
    build_untraced();
    world.reset();
    traced_again = traced_build(options.seed, threads, /*time_routes_to=*/false);
    build_untraced();
  } else {
    for (int i = 0; i < workload.setups; ++i) build_untraced();
  }
  auto& vns = world->vns();
  const auto targets = probe_targets(vns);

  // --- measured phases ------------------------------------------------------
  // The phases take turns in slots, so each metric's samples span the whole
  // measured window and a slowdown of a few seconds moves no median.
  check_fib_against_loc_rib(vns, targets, "after build", tally);
  const bool check_determinism = !options.trace && workload.check_thread_determinism;
  SweepResult sweep;
  Campaign campaigner(*world, workload.hosts_per_cell, options.seed, threads);
  Churn churner(vns, options.seed, threads, options.seconds * workload.churn_share, kSlots,
                check_determinism);
  for (int slot = 0; slot < kSlots; ++slot) {
    run_sweep(vns, targets, threads, options.seconds * workload.sweep_share / kSlots, sweep,
              tally);
    campaigner.run(options.seconds * workload.campaign_share / kSlots);
    churner.run(options.seconds * workload.churn_share / kSlots);
  }
  campaigner.finish(options.trace, tally);
  churner.finish(tally);
  check_fib_against_loc_rib(vns, targets, "after churn", tally);
  const double rss_mib = peak_rss_mib();
  const auto& campaign = campaigner.result();
  const auto& churn = churner.result();
  if (check_determinism) check_thread_determinism(churn, options.seed, tally);

  // --- metrics --------------------------------------------------------------
  const auto& slo = churn.slo;
  const double probe_shortfall =
      std::max(0.0, 1.0 - ratio(static_cast<double>(slo.probes), churn.scheduled_probes));
  auto& m = report.metrics;
  if (!options.trace) {
    m.set("setup_s", setups.median(), "s");
    m.set("peak_rss_mib", rss_mib, "MiB");
    m.set("resolve_mps", sweep.pass_mlps.median(), "Mlookup/s");
    m.set("probe_p50_ns", churn.all_ns.quantile(0.50), "ns");
    m.set("probe_p99_ns", churn.all_ns.quantile(0.99), "ns");
    m.set("stale_share", ratio(slo.stale_served, slo.probes), "ratio");
    m.set("sessions_per_s", campaign.sessions_per_s.median(), "1/s");
    m.set("train_rounds_per_s", campaign.train_rounds_per_s.median(), "1/s");
  } else {
    const auto& feed = traced.feed_convergence;
    const auto& geo = traced.geo_convergence;
    const double converge_s = feed.seconds + geo.seconds;
    const std::uint64_t messages = feed.messages + geo.messages;
    const std::uint64_t batches = feed.batches + geo.batches;
    const double converge_one_s =
        traced_one.feed_convergence.seconds + traced_one.geo_convergence.seconds;
    const double fib_s = traced.fib.build_seconds;

    const double topo_self =
        traced.generate_topology_s + traced.materialize_prefixes_s + traced.routes_to_s;
    const double geo_self = traced.build_geoip_s;
    const double core_self = traced.construct_s + traced.configure_s + traced.feed_s +
                             traced.geo_refresh_s + traced.first_lookup_s - converge_s -
                             traced.routes_to_s - fib_s;
    // Noise on a shared machine only adds time, so the fastest build of
    // each kind estimates what the same work costs.
    const double untraced_s = setups.quantile(0.0);
    const double traced_s = std::min(traced.wall_s, traced_again.wall_s);
    const double covered = topo_self + geo_self + core_self + converge_s + fib_s;
    const double announce_s = traced.feed_s - feed.seconds - traced.routes_to_s;
    const double overhead = ratio(traced_s - untraced_s, untraced_s);

    // The attribution holds only while the traced build is the build the
    // program runs: the same branch of Workbench::build (checked before any
    // build), the same resulting fabric, and about the same time.
    const auto check = [&tally](bool good, const std::string& what) {
      good ? tally.ok() : tally.fail("trace: " + what);
    };
    const auto same_fabric = [&](std::uint64_t digest) {
      return std::all_of(untraced_digests.begin(), untraced_digests.end(),
                         [digest](std::uint64_t d) { return d == digest; });
    };
    check(same_fabric(traced.fabric_digest),
          "the traced world's fabric differs from the untraced worlds'");
    check(same_fabric(traced_one.fabric_digest),
          "the one-thread traced world's fabric differs from the untraced worlds'");
    check(same_fabric(traced_again.fabric_digest),
          "the second traced world's fabric differs from the untraced worlds'");
    check(std::abs(overhead) <= kTraceMargin,
          "traced set-up " + number(traced_s) + " s vs untraced " + number(untraced_s) +
              " s, beyond the " + number(kTraceMargin) + " margin");
    // routes_to is timed apart from the feed; if the feed stops calling it
    // the way it did, the remainder goes negative.
    check(announce_s >= 0.0, "core.announce_s is " + number(announce_s) +
                                 " s: the separately timed routes_to exceeds the feed's share");

    m.set("topo.generate_topology_s", traced.generate_topology_s, "s");
    m.set("topo.materialize_prefixes_s", traced.materialize_prefixes_s, "s");
    m.set("topo.routes_to_s", traced.routes_to_s, "s");
    m.set("topo.routes_to_calls", traced.routes_to_calls, "count");
    m.set("topo.self_s", topo_self, "s");
    m.set("geo.build_geoip_s", traced.build_geoip_s, "s");
    m.set("geo.records", traced.geoip_records, "count");
    m.set("geo.self_s", geo_self, "s");
    m.set("core.construct_s", traced.construct_s, "s");
    m.set("core.feed_s", traced.feed_s, "s");
    m.set("core.announce_s", announce_s, "s");
    m.set("core.geo_refresh_s", traced.geo_refresh_s, "s");
    m.set("core.segments_s", campaign.segments_s, "s");
    m.set("core.segments_calls", campaign.segments_calls, "count");
    m.set("core.self_s", core_self, "s");
    m.set("bgp.converge_s", converge_s, "s");
    m.set("bgp.messages", messages, "count");
    m.set("bgp.batches", batches, "count");
    m.set("bgp.max_batch_messages", geo.max_batch_messages, "count");
    m.set("bgp.msgs_per_s", ratio(messages, converge_s), "1/s");
    m.set("bgp.shard_occupancy_mean",
          ratio(feed.occupied_shard_sum + geo.occupied_shard_sum, batches), "count");
    m.set("bgp.converge_speedup", ratio(converge_one_s, converge_s), "ratio");
    m.set("bgp.attr_dedup_ratio", traced.attrs.dedup_ratio(), "ratio");
    m.set("bgp.attr_unique_live", traced.attrs.unique_live, "count");
    m.set("bgp.arena_live_bytes", traced.arena.live_bytes, "bytes");
    m.set("bgp.arena_reserved_bytes", traced.arena.reserved_bytes, "bytes");
    m.set("bgp.self_s", converge_s, "s");
    m.set("bgp.churn_converge_s", churn.convergence.seconds, "s");
    m.set("bgp.churn_messages", churn.convergence.messages, "count");
    m.set("net.fib_compile_s", fib_s, "s");
    m.set("net.fib_entries", traced.fib.entries, "count");
    m.set("net.fib_bytes", traced.fib.bytes, "bytes");
    m.set("net.spill_tables", traced.fib.spill_tables, "count");
    m.set("net.self_s", fib_s, "s");
    m.set("net.fib_patches", churn.fib.patches, "count");
    m.set("net.fib_full_rebuilds", churn.fib.full_rebuilds, "count");
    m.set("net.fib_patch_s", churn.fib.patch_seconds, "s");
    m.set("net.slots_touched", churn.fib.slots_touched, "count");
    m.set("net.patch_share",
          ratio(churn.fib.patches, churn.fib.patches + churn.fib.full_rebuilds), "ratio");
    m.set("serve.steady_p50_ns", slo.steady_ns.quantile(0.50), "ns");
    m.set("serve.steady_p99_ns", slo.steady_ns.quantile(0.99), "ns");
    m.set("serve.converging_p50_us", slo.converging_ns.quantile(0.50) / 1e3, "us");
    m.set("serve.converging_p90_us", slo.converging_ns.quantile(0.90) / 1e3, "us");
    m.set("serve.stale_p50_ns", slo.stale_ns.quantile(0.50), "ns");
    m.set("serve.stale_p99_ns", slo.stale_ns.quantile(0.99), "ns");
    m.set("serve.freshness_lag_p90_batches", slo.freshness_lag.quantile(0.90), "batches");
    m.set("serve.max_freshness_lag_batches", slo.max_freshness_lag, "batches");
    m.set("serve.probes", slo.probes, "count");
    m.set("serve.events_applied", slo.events_applied, "count");
    m.set("serve.events_attempted", churn.events_attempted, "count");
    m.set("serve.probe_shortfall", probe_shortfall, "ratio");
    // End-to-end in intent, but too seed-dependent to gate (README.md).
    m.set("churn_batch_p50_ms", churn.batch_ms.quantile(0.50), "ms");
    m.set("churn_batch_p90_ms", churn.batch_ms.quantile(0.90), "ms");
    m.set("traffic.matrix_build_s", campaign.matrix_build_s, "s");
    m.set("traffic.assign_s", campaign.assign_s, "s");
    m.set("traffic.links_loaded", campaign.links_loaded, "count");
    m.set("traffic.util_max", campaign.util_max, "ratio");
    m.set("measure.stream_campaign_s", campaign.stream_s, "s");
    m.set("measure.train_campaign_s", campaign.train_s, "s");
    m.set("measure.sessions_streamed", campaign.sessions, "count");
    m.set("measure.slots_analyzed", campaign.slots, "count");
    m.set("measure.probes_sent", campaign.probes, "count");
    m.set("measure.campaign_speedup", campaign.campaign_speedup, "ratio");
    m.set("media.run_session_us", campaign.run_session_us, "us");
    m.set("sim.path_model_build_us", campaign.path_model_build_us, "us");
    m.set("sim.sample_losses_ns", campaign.sample_losses_ns, "ns");
    m.set("obs.untraced_setup_s", untraced_s, "s");
    m.set("obs.traced_setup_s", traced_s, "s");
    m.set("obs.other_share", ratio(traced.wall_s - covered, traced.wall_s), "ratio");
    m.set("obs.trace_overhead_share", overhead, "ratio");
    m.set("failed_share", ratio(tally.failed(), tally.attempted()), "ratio");
  }

  // --- report ---------------------------------------------------------------
  report.add_detail("setup_s", summary(setups, "max", 1.0));
  report.add_detail("resolve_mps", summary(sweep.pass_mlps, "p10", 0.10));
  report.add_detail("probe_ns", "{\"p50\":" + number(churn.all_ns.quantile(0.5)) +
                                    ",\"p99\":" + number(churn.all_ns.quantile(0.99)) +
                                    ",\"count\":" + std::to_string(churn.all_ns.total()) + "}");
  report.add_detail("churn_batch_ms", summary(churn.batch_ms, "p90", 0.90));
  report.add_detail("sessions_per_s", summary(campaign.sessions_per_s, "min", 0.0));
  report.add_detail("train_rounds_per_s", summary(campaign.train_rounds_per_s, "min", 0.0));
  report.add_detail("churn", "{\"batches\":" + std::to_string(slo.batches) +
                                 ",\"events\":" + std::to_string(churn.events_attempted) +
                                 ",\"probes\":" + std::to_string(slo.probes) +
                                 ",\"probe_shortfall\":" + number(probe_shortfall) + "}");
  report.add_detail("campaign", "{\"rounds\":" + std::to_string(campaign.rounds) +
                                    ",\"sessions\":" + std::to_string(campaign.sessions) +
                                    ",\"train_rounds\":" + std::to_string(campaign.train_rounds) +
                                    ",\"util_max\":" + number(campaign.util_max) + "}");
  report.add_detail("failed_share", number(ratio(tally.failed(), tally.attempted())));
  std::string failures = "[";
  for (const auto& failure : tally.failures()) {
    if (failures.size() > 1) failures += ',';
    failures += quoted(failure);
    std::cerr << "perfbench: check failed: " << failure << '\n';
  }
  report.add_detail("failures", failures + "]");

  std::cout << "{\"type\":\"run\",\"workload\":" << quoted(workload.name)
            << ",\"seed\":" << options.seed << ",\"seconds\":" << number(options.seconds)
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"threads\":{\"build\":" << threads << ",\"sweep\":" << threads
            << ",\"campaign\":" << threads << ",\"resolvers\":" << std::max(1, threads - 1)
            << ",\"churn\":1},\"scale\":\"paper\",\"ases\":" << world->internet().as_count()
            << ",\"prefixes\":" << world->internet().prefix_count()
            << ",\"build_type\":" << quoted(VNS_BENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << quoted(VNS_BENCH_CXX_FLAGS)
            << ",\"compiler\":" << quoted(VNS_BENCH_COMPILER) << "}\n";
  std::cout << "{\"type\":\"detail\"," << report.detail.str() << "}\n";
  std::cout << "{\"correct\":" << (tally.failed() == 0 ? "true" : "false")
            << ",\"attempted\":" << tally.attempted() << ",\"failed\":" << tally.failed()
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& entry : m.entries()) {
    std::cout << (first ? "" : ",") << quoted(entry.name) << ":{\"value\":" << number(entry.value)
              << ",\"unit\":" << quoted(entry.unit) << '}';
    first = false;
  }
  std::cout << "}}" << std::endl;
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

}  // namespace vns::perfbench

int main(int argc, char** argv) {
  using namespace vns::perfbench;
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: vns_perfbench --workload full_build|paper_churn|paper_campaign "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
