// Serving-runtime throughput: events/sec and tail latency of the
// obfuscation gateway across worker/shard configurations.
//
// Each delivered report pays a simulated downstream LBS round-trip
// (the gateway protects, forwards, and awaits the service's answer), so
// throughput scales with concurrency the way a real gateway's does:
// workers overlap their downstream waits even on a single core. The
// single-worker row is the sequential baseline every other row must
// beat for the pool to pay its way.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "io/table.h"
#include "service/gateway.h"
#include "service/load_driver.h"

int main() {
  using namespace locpriv;

  const trace::Dataset data = bench::standard_taxi_dataset();
  std::cout << "service throughput: " << data.size() << " users, " << data.total_events()
            << " events, simulated downstream RPC = 150 us/report\n\n";

  struct Config {
    std::size_t workers;
    std::size_t shards;
  };
  const std::vector<Config> configs = {{1, 1}, {2, 4}, {4, 8}, {8, 16}};

  io::Table table({"workers", "shards", "events/sec", "p50 us", "p99 us", "delivered",
                   "suppressed", "rejected", "speedup"});
  double baseline_eps = 0.0;
  for (const Config& c : configs) {
    service::GatewayConfig cfg;
    cfg.workers = c.workers;
    cfg.sessions.shard_count = c.shards;
    cfg.queue_capacity = 8192;  // holds the whole replay: rows compare equal work
    cfg.epsilon = 0.02;
    cfg.budget_eps = 0.02 * 120.0;  // 120 reports/hour: ample for taxis
    cfg.budget_window_s = 3600;
    cfg.downstream_latency = std::chrono::microseconds(150);

    service::Gateway gateway(cfg, [](const service::ProtectedReport&) {});
    const service::LoadResult load = service::replay_dataset(data, gateway);
    const service::TelemetrySnapshot snap = gateway.telemetry().snapshot();

    if (c.workers == 1) baseline_eps = load.events_per_sec;
    const double speedup = baseline_eps > 0.0 ? load.events_per_sec / baseline_eps : 0.0;
    table.add_row({std::to_string(c.workers), std::to_string(c.shards),
                   std::to_string(static_cast<long long>(load.events_per_sec)),
                   std::to_string(static_cast<long long>(snap.latency_p50_us)),
                   std::to_string(static_cast<long long>(snap.latency_p99_us)),
                   std::to_string(snap[service::Count::delivered]),
                   std::to_string(snap[service::Count::suppressed_budget]),
                   std::to_string(snap[service::Count::rejected_queue_full]),
                   io::Table::num(speedup, 2) + "x"});
  }
  table.print(std::cout);

  std::cout << "\nthe downstream wait dominates per-report cost, so the pool overlaps\n"
               "it: N workers approach N x the single-worker rate until CPU-bound.\n";
  return 0;
}
