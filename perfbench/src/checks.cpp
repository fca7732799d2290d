// Output checks: compiled FIBs against the Loc-RIB oracle, and thread-count
// determinism of the fabric after churn.
#include "bench.hpp"

namespace vns::perfbench {

void check_fib_against_loc_rib(const core::VnsNetwork& vns,
                               const std::vector<net::Ipv4Address>& targets,
                               std::string_view when, Tally& tally) {
  std::uint64_t wrong = 0;
  for (const auto& pop : vns.pops()) {
    const auto& router = vns.fabric().router(pop.routers.front());
    for (const auto target : targets) {
      const bgp::Route* served = vns.route_at(pop.id, target);
      const auto matched = vns.match_prefix(target);
      const bgp::Route* oracle = matched ? router.best_route(*matched) : nullptr;
      const bool same = served == nullptr || oracle == nullptr ? served == oracle
                                                               : *served == *oracle;
      wrong += same ? 0 : 1;
    }
  }
  const std::uint64_t checked = vns.pops().size() * targets.size();
  tally.ok(checked - wrong);
  if (wrong != 0) {
    tally.fail("fib " + std::string{when} + ": route_at differs from the Loc-RIB best route",
               wrong);
  }
}

std::uint64_t fabric_digest(const bgp::Fabric& fabric) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : serve::dump_fabric_state(fabric)) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return hash;
}

void check_thread_determinism(const ChurnResult& churn, std::uint64_t seed, Tally& tally) {
  const auto single = timed_setup(seed, 1);
  serve::EngineConfig config;
  config.resolver_threads = 1;
  config.qps = 1000.0;
  config.heartbeat_every = 0;
  serve::Engine engine(single.world->vns(), config);
  (void)engine.run(churn.replay);
  if (fabric_digest(single.world->vns().fabric()) == churn.replay_digest) {
    tally.ok();
  } else {
    tally.fail("determinism: fabric state after churn differs between 1 and N threads");
  }
}

}  // namespace vns::perfbench
