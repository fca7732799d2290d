// World set-up: the timed Workbench build and its traced reproduction.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "bgp/attr_table.hpp"

namespace vns::perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void Metrics::set(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

void Tally::fail(std::string what, std::uint64_t n) {
  attempted_ += n;
  failed_ += n;
  if (failures_.size() < 16) failures_.push_back(std::move(what));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<net::Ipv4Address> probe_targets(const core::VnsNetwork& vns) {
  std::vector<net::Ipv4Address> targets;
  const auto prefixes = vns.known_prefix_log();
  targets.reserve(prefixes.size());
  for (const auto& prefix : prefixes) targets.push_back(prefix.first_host());
  return targets;
}

namespace {

measure::WorkbenchConfig world_config(std::uint64_t seed, int threads) {
  auto config = measure::WorkbenchConfig::paper_scale(seed);
  config.threads = threads;
  return config;
}

/// The first lookup per viewpoint compiles its FIB; until then the world
/// cannot answer, so set-up includes it.
void compile_viewpoint_fibs(const core::VnsNetwork& vns) {
  const auto first = vns.known_prefix_log().front().first_host();
  for (const auto& pop : vns.pops()) (void)vns.egress_pop(pop.id, first);
}

}  // namespace

bgp::ConvergenceStats convergence_delta(const bgp::ConvergenceStats& after,
                                        const bgp::ConvergenceStats& before) {
  bgp::ConvergenceStats delta = after;  // maxima stay lifetime maxima
  delta.runs -= before.runs;
  delta.messages -= before.messages;
  delta.batches -= before.batches;
  delta.occupied_shard_sum -= before.occupied_shard_sum;
  delta.seconds -= before.seconds;
  return delta;
}

net::FlatFibMetrics::Snapshot fib_delta(const net::FlatFibMetrics::Snapshot& after,
                                        const net::FlatFibMetrics::Snapshot& before) {
  net::FlatFibMetrics::Snapshot delta;
  delta.rebuilds = after.rebuilds - before.rebuilds;
  delta.full_rebuilds = after.full_rebuilds - before.full_rebuilds;
  delta.patches = after.patches - before.patches;
  delta.slots_touched = after.slots_touched - before.slots_touched;
  delta.entries = after.entries - before.entries;
  delta.spill_tables = after.spill_tables - before.spill_tables;
  delta.bytes = after.bytes - before.bytes;
  delta.build_seconds = after.build_seconds - before.build_seconds;
  delta.full_build_seconds = after.full_build_seconds - before.full_build_seconds;
  delta.patch_seconds = after.patch_seconds - before.patch_seconds;
  return delta;
}

Setup timed_setup(std::uint64_t seed, int threads) {
  const auto config = world_config(seed, threads);
  const auto start = Clock::now();
  Setup setup;
  setup.world = measure::Workbench::build(config);
  setup.world->vns().set_geo_routing(true);
  compile_viewpoint_fibs(setup.world->vns());
  setup.seconds = seconds_since(start);
  return setup;
}

TracedBuild traced_build(std::uint64_t seed, int threads, bool time_routes_to) {
  const auto config = world_config(seed, threads);
  TracedBuild out;
  auto span = [](double& slot, auto&& call) {
    const auto call_start = Clock::now();
    call();
    slot = seconds_since(call_start);
  };

  // Workbench::build, call for call (materialized, unstreamed pipeline).
  const auto start = Clock::now();
  std::optional<topo::Internet> internet;
  span(out.generate_topology_s,
       [&] { internet.emplace(topo::Internet::generate_topology(config.internet)); });
  span(out.materialize_prefixes_s, [&] { internet->materialize_prefixes(); });
  std::optional<geo::GeoIpDatabase> geoip;
  span(out.build_geoip_s, [&] {
    geoip.emplace(internet->build_geoip(config.geoip_model, config.geoip_seed));
  });
  const auto fib_before = net::FlatFibMetrics::global().snapshot();
  std::unique_ptr<core::VnsNetwork> vns;
  span(out.construct_s,
       [&] { vns = std::make_unique<core::VnsNetwork>(*internet, *geoip, config.vns); });
  span(out.configure_s, [&] {
    vns->fabric().set_threads(config.threads);
    net::FlatFib::set_compile_threads(config.threads);
  });
  const auto conv0 = vns->fabric().convergence_stats();
  span(out.feed_s, [&] { vns->feed_routes(); });
  const auto conv1 = vns->fabric().convergence_stats();
  span(out.geo_refresh_s, [&] { vns->set_geo_routing(true); });
  const auto conv2 = vns->fabric().convergence_stats();
  span(out.first_lookup_s, [&] { compile_viewpoint_fibs(*vns); });
  out.wall_s = seconds_since(start);

  out.feed_convergence = convergence_delta(conv1, conv0);
  out.geo_convergence = convergence_delta(conv2, conv1);
  out.fib = fib_delta(net::FlatFibMetrics::global().snapshot(), fib_before);
  out.geoip_records = geoip->size();
  out.attrs = bgp::AttrTable::global().stats();
  out.arena = vns->fabric().rib_arena_stats();

  out.fabric_digest = fabric_digest(vns->fabric());

  if (time_routes_to) {
    // The per-origin route tables feed_routes computes, one call each, timed
    // apart from the feed so announce time can be separated from them.
    for (topo::AsIndex origin = 0; origin < internet->as_count(); ++origin) {
      if (internet->as_at(origin).prefix_ids.empty()) continue;
      const auto start = Clock::now();
      (void)internet->routes_to(origin);
      out.routes_to_s += seconds_since(start);
      ++out.routes_to_calls;
    }
  }
  return out;
}

std::string traced_build_gap() {
  const auto config = world_config(0, 1);
  std::string gap;
  const auto add = [&gap](std::string_view what) {
    gap += (gap.empty() ? "" : ", ") + std::string{what};
  };
  if (config.stream_generation) add("streamed generation");
  if (config.trace != nullptr) add("a trace sink");
  if (!config.feed_routes) add("no route feed");
  return gap;
}

}  // namespace vns::perfbench
