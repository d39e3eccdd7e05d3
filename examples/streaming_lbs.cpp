// Scenario: an online location-based service. Users stream location
// reports; the serving gateway (src/service/) protects each one with
// budgeted Geo-I *as it happens* — many users concurrently, exactly the
// deployment mode the offline framework configures. The service answers
// nearest-site queries; we measure how often the answer survives
// protection, what the ε budget suppresses, and what the gateway's own
// telemetry says about the run.
//
// Compare the per-user loop this example used to hand-roll: the gateway
// now owns sessions (sharded + lazily created), concurrency (worker
// pool with per-user ordering) and observability (telemetry snapshot).
#include <iostream>
#include <map>
#include <mutex>
#include <vector>

#include "geo/kdtree.h"
#include "io/table.h"
#include "service/gateway.h"
#include "service/load_driver.h"
#include "synth/scenario.h"

int main() {
  using namespace locpriv;

  // The city and its site catalog double as the service's POI database.
  synth::CityConfig city_cfg;
  city_cfg.site_count = 80;
  const synth::CityModel city(city_cfg, 99);
  std::vector<geo::Point> catalog;
  for (const synth::Site& s : city.sites()) catalog.push_back(s.location);
  const geo::KdTree service_index(catalog);

  // A commuter population streaming their day.
  synth::CommuterScenarioConfig scenario;
  scenario.user_count = 6;
  scenario.commuter.days = 1;
  const trace::Dataset users = synth::make_commuter_dataset(scenario, 7);

  // Offline calibration said eps = 0.02; budget allows 30 reports per hour.
  service::GatewayConfig cfg;
  cfg.workers = 4;
  cfg.sessions.shard_count = 8;
  cfg.epsilon = 0.02;
  cfg.budget_eps = 30.0 * cfg.epsilon;
  cfg.budget_window_s = 3600;
  cfg.seed = 1000;

  std::cout << "streaming LBS via the service gateway: " << users.size() << " users, "
            << catalog.size() << " service sites, eps = " << cfg.epsilon
            << ", budget = 30 reports/hour, " << cfg.workers << " workers\n\n";

  // The sink plays the LBS: answer each delivered (protected) report's
  // nearest-site query and check it against the true location's answer.
  // It runs on worker threads, so the tallies take a mutex.
  struct UserTally {
    std::size_t delivered = 0;
    std::size_t consistent = 0;
    std::size_t suppressed = 0;
  };
  std::mutex tally_mutex;
  std::map<std::string, UserTally> tallies;

  service::Gateway gateway(cfg, [&](const service::ProtectedReport& r) {
    std::lock_guard lock(tally_mutex);
    UserTally& tally = tallies[r.user_id];
    if (r.status != service::ReportStatus::delivered) {
      ++tally.suppressed;
      return;
    }
    ++tally.delivered;
    if (service_index.nearest(r.original.location) ==
        service_index.nearest(r.protected_event->location)) {
      ++tally.consistent;
    }
  });

  const service::LoadResult load = service::replay_dataset(users, gateway);

  io::Table table({"user", "reports", "delivered", "suppressed", "query consistency"});
  double consistency_sum = 0.0;
  for (const trace::Trace& t : users) {
    const UserTally& tally = tallies[t.user_id()];
    const double consistency =
        tally.delivered > 0
            ? static_cast<double>(tally.consistent) / static_cast<double>(tally.delivered)
            : 0.0;
    consistency_sum += consistency;
    table.add_row({t.user_id(), std::to_string(t.size()), std::to_string(tally.delivered),
                   std::to_string(tally.suppressed), io::Table::num(consistency, 3)});
  }
  table.print(std::cout);

  const service::TelemetrySnapshot snap = gateway.telemetry().snapshot();
  std::cout << "\nmean query consistency under streaming Geo-I: "
            << io::Table::num(consistency_sum / static_cast<double>(users.size()), 3) << "\n";
  std::cout << "gateway: " << static_cast<long long>(load.events_per_sec) << " events/sec, p99 "
            << static_cast<long long>(snap.latency_p99_us) << " us, "
            << snap[service::Count::sessions_created] << " sessions, max window eps spend "
            << io::Table::num(snap.eps_max_seen, 3)
            << " (budget " << cfg.budget_eps << ")\n";
  std::cout << "suppressed reports are the price of the epsilon budget: the client\n"
               "falls back to its last delivered (already protected) location for those.\n";
  return 0;
}
