// Shared pieces of the vnskit benchmark program: workload table, options,
// sample statistics, metric collection and the phase entry points.
//
// Every run of every workload drives the same user-facing pipeline on one
// world: build it (timed several times), check the compiled FIBs against the
// Loc-RIB oracle, then in turns (so each metric's samples span the run)
// sweep egress lookups, run the loaded stream/train campaigns and serve
// lookups while a BGP churn trace is applied, and check the FIBs again.
// Workloads differ in how the measured seconds are split across those
// phases, in how often the world is built and in the size of the last-mile
// host sample.  Spans for the traced run are taken here, around public calls
// into the library; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "bgp/fabric.hpp"
#include "measure/prober.hpp"
#include "measure/workbench.hpp"
#include "net/flat_fib.hpp"
#include "obs/latency.hpp"
#include "serve/engine.hpp"

namespace vns::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Samples of one timing, summarized as median plus a higher percentile.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One input mix over the shared pipeline.
struct Workload {
  std::string_view name;
  int setups = 3;  ///< timed world builds per run; setup_s is their median
  /// Shares of --seconds given to each measured phase (they sum to 1).
  double sweep_share = 0.0;
  double campaign_share = 0.0;
  double churn_share = 0.0;
  int hosts_per_cell = 12;  ///< train-campaign hosts per (AS type x region)
  /// Replays the first churn epoch on a one-thread world and compares the
  /// fabric digests.
  bool check_thread_determinism = false;
};

[[nodiscard]] const Workload* find_workload(std::string_view name);

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Ordered name -> (value, unit) list, printed as the result's metrics;
/// each name is set once.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operations attempted and failed, over the measured work and the output
/// checks.  The first few failures are kept for the report.
class Tally {
 public:
  void ok(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void fail(std::string what, std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// --- set-up -----------------------------------------------------------------

/// A built world and what building it cost: Workbench::build plus
/// set_geo_routing(true).
struct Setup {
  std::unique_ptr<measure::Workbench> world;
  double seconds = 0.0;
};
[[nodiscard]] Setup timed_setup(std::uint64_t seed, int threads);

/// The traced reproduction of Workbench::build: the same public calls in the
/// same order with the same thread settings, each one timed, plus the
/// convergence and FIB accounting deltas taken around them.
struct TracedBuild {
  double generate_topology_s = 0.0;
  double materialize_prefixes_s = 0.0;
  double build_geoip_s = 0.0;
  double construct_s = 0.0;
  double configure_s = 0.0;  ///< set_threads + set_compile_threads
  double feed_s = 0.0;
  double geo_refresh_s = 0.0;
  double first_lookup_s = 0.0;  ///< one egress_pop per viewpoint
  double wall_s = 0.0;  ///< first call's start to last call's end
  bgp::ConvergenceStats feed_convergence;  ///< delta over feed_routes
  bgp::ConvergenceStats geo_convergence;   ///< delta over set_geo_routing
  net::FlatFibMetrics::Snapshot fib;       ///< delta over the whole build
  std::uint64_t geoip_records = 0;
  bgp::AttrTableStats attrs;      ///< after the build
  util::Arena::Stats arena;       ///< fabric RIB arenas after the build
  /// One Internet::routes_to per origin AS, timed after the build.
  double routes_to_s = 0.0;
  std::uint64_t routes_to_calls = 0;
  /// fabric_digest of the traced world, taken after the timed calls.
  std::uint64_t fabric_digest = 0;
};
[[nodiscard]] TracedBuild traced_build(std::uint64_t seed, int threads, bool time_routes_to);

/// Why traced_build cannot reproduce Workbench::build under the benchmark's
/// world configuration (streamed generation, an attached trace sink, no
/// feed), or empty when it can.
[[nodiscard]] std::string traced_build_gap();

// --- measured phases --------------------------------------------------------

/// First host of every prefix the overlay learned: the probe targets of the
/// sweep, the serving engine and the FIB check.
[[nodiscard]] std::vector<net::Ipv4Address> probe_targets(const core::VnsNetwork& vns);

struct SweepResult {
  Samples pass_mlps;  ///< million lookups per second, one sample per pass group
  std::uint64_t lookups = 0;
};
/// `threads` readers call egress_pop for every target at every viewpoint,
/// in groups of passes, until `seconds` have elapsed; answers are compared
/// with a serial pass taken first.  Samples accumulate into `result`.
void run_sweep(const core::VnsNetwork& vns, const std::vector<net::Ipv4Address>& targets,
               int threads, double seconds, SweepResult& result, Tally& tally);

struct CampaignResult {
  Samples sessions_per_s;      ///< one sample per round
  Samples train_rounds_per_s;  ///< one sample per round
  std::uint64_t rounds = 0;
  double matrix_build_s = 0.0;
  double assign_s = 0.0;
  std::uint64_t links_loaded = 0;
  double util_max = 0.0;
  double segments_s = 0.0;
  std::uint64_t segments_calls = 0;
  double stream_s = 0.0;  ///< summed over rounds
  double train_s = 0.0;
  std::uint64_t sessions = 0;
  std::uint64_t slots = 0;
  std::uint64_t probes = 0;
  std::uint64_t train_rounds = 0;
  // Traced-run extras (zero otherwise).
  double campaign_speedup = 0.0;
  double run_session_us = 0.0;
  double path_model_build_us = 0.0;
  double sample_losses_ns = 0.0;
};
/// Fig. 9-style stream and Fig. 12-style train campaigns over a loaded data
/// plane.  The constructor assigns the load and builds the tasks; run()
/// adds rounds until its seconds have elapsed; finish() checks the counters
/// and that VNS loss stays at or below transit loss for every (client,
/// server region), and takes the traced-run samples.
class Campaign {
 public:
  Campaign(const measure::Workbench& world, int hosts_per_cell, std::uint64_t seed, int threads);
  void run(double seconds);
  void finish(bool traced, Tally& tally);
  [[nodiscard]] const CampaignResult& result() const noexcept { return result_; }

 private:
  struct StreamKey {
    std::size_t client = 0;
    geo::PopRegion region = geo::PopRegion::kEU;
    bool via_vns = true;
    friend bool operator<(const StreamKey& a, const StreamKey& b) {
      return std::tie(a.client, a.region, a.via_vns) < std::tie(b.client, b.region, b.via_vns);
    }
  };
  struct LossSum {
    double percent = 0.0;
    std::uint64_t sessions = 0;
  };

  std::uint64_t seed_;
  int threads_;
  std::vector<StreamKey> keys_;  ///< parallel to streams_
  std::vector<measure::StreamTask> streams_;
  std::vector<measure::TrainTask> trains_;
  std::map<StreamKey, LossSum> losses_;
  std::uint64_t sessions0_ = 0;  ///< campaign counters before the first round
  std::uint64_t slots0_ = 0;
  std::uint64_t probes0_ = 0;
  CampaignResult result_;
};

struct ChurnResult {
  serve::SloReport slo;           ///< merged over the engine epochs
  obs::LatencySnapshot all_ns;    ///< steady + converging + stale
  Samples batch_ms;               ///< callback gap minus dwell
  std::uint64_t events_attempted = 0;
  double scheduled_probes = 0.0;
  bgp::ConvergenceStats convergence;  ///< delta over the churn
  net::FlatFibMetrics::Snapshot fib;  ///< delta over the churn
  /// The first epochs' batches (about 8) as one trace, and the digest of
  /// dump_fabric_state right after them (when requested): the input of the
  /// determinism check.
  serve::UpdateTrace replay;
  std::uint64_t replay_digest = 0;
};
/// serve::Engine epochs of one generated churn trace, with threads-1 paced
/// resolvers and the churn thread.  The constructor generates a trace long
/// enough for `seconds` split over `slots` calls of run(), each of which
/// runs at least one epoch; finish() restores the fabric's thread count and
/// checks that every event applied.
class Churn {
 public:
  Churn(core::VnsNetwork& vns, std::uint64_t seed, int threads, double seconds, int slots,
        bool digest_replay);
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;
  void run(double seconds);
  void finish(Tally& tally);
  [[nodiscard]] const ChurnResult& result() const noexcept { return result_; }

 private:
  core::VnsNetwork& vns_;
  std::uint64_t seed_;
  int resolvers_;
  int build_threads_;
  bool digest_replay_;
  serve::UpdateTrace trace_;
  std::uint64_t max_epochs_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t next_event_ = 0;
  bgp::ConvergenceStats conv0_;
  net::FlatFibMetrics::Snapshot fib0_;
  ChurnResult result_;
};

/// FNV-1a over the canonical fabric dump.
[[nodiscard]] std::uint64_t fabric_digest(const bgp::Fabric& fabric);

// --- output checks ----------------------------------------------------------

/// Every viewpoint's route_at answer for every target must equal its primary
/// router's Loc-RIB best route for the matched prefix.
void check_fib_against_loc_rib(const core::VnsNetwork& vns,
                               const std::vector<net::Ipv4Address>& targets,
                               std::string_view when, Tally& tally);

/// Replays the churn's first batches on a world built at one thread and
/// compares the fabric digest with the one taken at `threads`.
void check_thread_determinism(const ChurnResult& churn, std::uint64_t seed, Tally& tally);

[[nodiscard]] double peak_rss_mib();

/// Accounting deltas between two snapshots (lifetime maxima stay as-is).
[[nodiscard]] bgp::ConvergenceStats convergence_delta(const bgp::ConvergenceStats& after,
                                                      const bgp::ConvergenceStats& before);
[[nodiscard]] net::FlatFibMetrics::Snapshot fib_delta(
    const net::FlatFibMetrics::Snapshot& after, const net::FlatFibMetrics::Snapshot& before);

}  // namespace vns::perfbench
