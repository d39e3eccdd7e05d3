// Network front-end throughput: the N-process shard router driven over
// unix sockets by pipelined client threads, single-shard baseline vs a
// 4-shard fleet on the same per-report work.
//
// Every delivered report pays a simulated downstream LBS round-trip, so
// — exactly like bench_service_throughput, but now across PROCESS
// boundaries — aggregate throughput scales with shard count because the
// shards overlap their downstream waits even on one core. Each shard
// maps the same read-only .lpds dataset; the per-shard RSS sampled
// right after the maps (before any load) is committed as evidence that
// N maps of one dataset cost one dataset of pages, not N.
//
// Presets: --preset full (the committed baseline: one million distinct
// users across 4 shards) or smoke (CI-sized, same shape). Output is a
// BENCH_service.json gated by tools/check_bench.py (bench kind
// "service"): shard speedup floor, p99 ceiling, RSS-over-dataset ratio,
// and an every-tag-answered-exactly-once check.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "io/args.h"
#include "io/json.h"
#include "io/table.h"
#include "net/client.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "service/session_manager.h"
#include "service/shard/shard_service.h"
#include "synth/scenario.h"
#include "trace/store.h"
#include "trace/store_io.h"

namespace {

using namespace locpriv;
using Clock = std::chrono::steady_clock;

struct Params {
  std::size_t dataset_users = 6000;     ///< drivers in the mmap'd .lpds
  std::size_t single_users = 150000;    ///< load users, 1-shard baseline
  std::size_t sharded_users = 1000000;  ///< load users, the real fleet
  std::size_t shards = 4;
  std::size_t workers = 2;     ///< gateway threads per shard
  long downstream_us = 150;    ///< simulated LBS round-trip per delivery
  std::size_t window = 256;    ///< per-connection in-flight cap
  std::size_t batch = 64;      ///< frames per client write
  std::size_t queue = 4096;    ///< per-worker gateway queue slots
};

struct ClientResult {
  std::vector<double> latencies_ms;
  std::uint64_t answered = 0;
  std::uint64_t delivered = 0;
  bool every_tag_once = true;
  std::string error;
};

/// One pipelined client: owns one blocking connection to one shard and
/// replays `user_index` (global ids) through it, keeping up to `window`
/// reports in flight and writing `batch` frames per syscall. Answers
/// are read through a FrameReader over 64 KiB chunks, so the receive
/// side costs one read(2) per many answers, not two per answer.
void run_client(const net::Endpoint& shard_ep, const std::vector<std::uint32_t>& user_index,
                const Params& p, ClientResult& out) {
  net::Connection conn;
  if (!conn.connect(shard_ep)) {
    out.error = "connect " + shard_ep.to_string() + ": " + conn.error();
    return;
  }
  const std::size_t n = user_index.size();
  std::vector<Clock::time_point> sent(n);
  std::vector<std::uint8_t> seen(n, 0);
  out.latencies_ms.reserve(n);

  std::vector<std::uint8_t> frame_batch;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> rbuf(64 * 1024);
  net::FrameReader reader;
  net::Frame frame;

  std::size_t submitted = 0;
  std::size_t received = 0;
  while (received < n) {
    if (submitted < n && submitted - received + p.batch <= p.window) {
      frame_batch.clear();
      const std::size_t stop = std::min(n, submitted + p.batch);
      const Clock::time_point now = Clock::now();
      for (; submitted < stop; ++submitted) {
        net::SubmitPayload sp;
        sp.tag = submitted;
        const std::uint32_t g = user_index[submitted];
        sp.user_id = std::string("u").append(std::to_string(g));
        sp.event.time = 0;
        sp.event.location = {1500.0 + static_cast<double>(g % 97) * 10.0,
                             1500.0 + static_cast<double>(g % 89) * 10.0};
        payload.clear();
        net::encode_submit(sp, payload);
        net::encode_frame(net::FrameType::kSubmit, payload.data(), payload.size(), frame_batch);
        sent[submitted] = now;
      }
      if (!net::write_all(conn.fd(), frame_batch.data(), frame_batch.size())) {
        out.error = net::errno_message(("write to " + shard_ep.to_string()).c_str());
        return;
      }
      continue;
    }
    for (;;) {
      const net::FrameReader::Result r = reader.next(frame);
      if (r == net::FrameReader::Result::kFrame) break;
      if (r == net::FrameReader::Result::kBad) {
        out.error = std::string("bad frame from shard: ") + net::to_string(reader.error());
        return;
      }
      const ssize_t k = net::read_some(conn.fd(), rbuf.data(), rbuf.size());
      if (k <= 0) {
        out.error = k == 0 ? "shard closed mid-load" : net::errno_message("read from shard");
        return;
      }
      reader.feed(rbuf.data(), static_cast<std::size_t>(k));
    }
    if (frame.type != net::FrameType::kAnswer) {
      out.error = "unexpected frame type " + std::to_string(static_cast<int>(frame.type));
      return;
    }
    const auto answer = net::decode_answer(frame.payload.data(), frame.payload.size());
    if (!answer) {
      out.error = "undecodable answer payload";
      return;
    }
    if (answer->tag >= n || seen[answer->tag]++) out.every_tag_once = false;
    out.latencies_ms.push_back(std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                                   Clock::now() - sent[answer->tag])
                                   .count());
    if (answer->status == service::ReportStatus::delivered) ++out.delivered;
    ++received;
  }
  out.answered = received;
  for (const std::uint8_t s : seen) {
    if (s != 1) out.every_tag_once = false;
  }
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

bool connect_retry(net::Connection& conn, const net::Endpoint& ep, int attempts = 300) {
  for (int i = 0; i < attempts; ++i) {
    if (conn.connect(ep)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// Per-shard RSS out of the supervisor's aggregated telemetry.
std::vector<double> shard_rss_kb(net::Connection& sup, std::uint64_t* delivered = nullptr) {
  std::string reply;
  if (!sup.request(net::FrameType::kTelemetryReq, "", net::FrameType::kTelemetryReply, reply)) {
    std::cerr << "telemetry: " << sup.error() << "\n";
    return {};
  }
  const io::JsonValue doc = io::parse_json(reply);
  const io::JsonValue& agg = doc.at("aggregate");
  if (delivered) *delivered = static_cast<std::uint64_t>(agg.at("delivered").as_number());
  std::vector<double> rss;
  for (const io::JsonValue& v : agg.at("resident_set_kb_per_shard").as_array()) {
    rss.push_back(v.as_number());
  }
  return rss;
}

struct RunResult {
  std::size_t shards = 0;
  std::size_t users = 0;
  double wall_seconds = 0.0;
  double req_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t delivered = 0;
  bool every_tag_once = false;
  std::vector<double> rss_after_map_kb;
  std::vector<double> rss_after_load_kb;
  bool ok = false;
};

/// Spawns a fresh supervisor fleet, replays `users` distinct users
/// through it with one client thread per shard, drains it, and reaps
/// it. Called strictly from the single-threaded main (fork safety).
RunResult run_fleet(const net::Endpoint& base, const std::string& dataset_path,
                    std::size_t shards, std::size_t users, const Params& p) {
  RunResult res;
  res.shards = shards;
  res.users = users;

  service::shard::ShardServiceConfig cfg;
  cfg.listen = base;
  cfg.shards = shards;
  cfg.dataset_path = dataset_path;
  cfg.gateway.workers = p.workers;
  cfg.gateway.queue_capacity = p.queue;
  cfg.gateway.sessions.shard_count = 8;
  cfg.gateway.sessions.max_sessions_per_shard = 0;  // the fleet IS the session load
  cfg.gateway.epsilon = 0.02;
  cfg.gateway.budget_eps = 0.02 * 120.0;
  cfg.gateway.budget_window_s = 3600;
  cfg.gateway.downstream_latency = std::chrono::microseconds(p.downstream_us);

  std::string err;
  const pid_t pid = service::shard::ShardService::spawn(cfg, &err);
  if (pid < 0) {
    std::cerr << "spawn: " << err << "\n";
    return res;
  }

  net::Connection sup;
  if (!connect_retry(sup, base)) {
    std::cerr << "supervisor never came up on " << base.to_string() << "\n";
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return res;
  }
  res.rss_after_map_kb = shard_rss_kb(sup);

  // Partition users onto shards with the service's own routing function.
  net::ShardMap routing;
  routing.shards = shards;
  std::vector<std::vector<std::uint32_t>> per_shard(shards);
  for (std::size_t i = 0; i < users; ++i) {
    per_shard[routing.shard_of(std::string("u").append(std::to_string(i)))].push_back(
        static_cast<std::uint32_t>(i));
  }

  std::vector<ClientResult> results(shards);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < shards; ++k) {
    threads.emplace_back(run_client, base.shard_endpoint(k), std::cref(per_shard[k]),
                         std::cref(p), std::ref(results[k]));
  }
  for (std::thread& t : threads) t.join();
  res.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> latencies;
  res.every_tag_once = true;
  for (const ClientResult& r : results) {
    if (!r.error.empty()) {
      std::cerr << "client: " << r.error << "\n";
      res.every_tag_once = false;
    }
    res.answered += r.answered;
    res.delivered += r.delivered;
    res.every_tag_once = res.every_tag_once && r.every_tag_once;
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  res.req_per_sec =
      res.wall_seconds > 0.0 ? static_cast<double>(res.answered) / res.wall_seconds : 0.0;
  res.p50_ms = percentile(latencies, 0.50);
  res.p99_ms = percentile(latencies, 0.99);

  std::uint64_t telemetry_delivered = 0;
  res.rss_after_load_kb = shard_rss_kb(sup, &telemetry_delivered);

  std::string drain_reply;
  if (!sup.request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply, drain_reply)) {
    std::cerr << "drain: " << sup.error() << "\n";
    kill(pid, SIGKILL);
  }
  sup.close();
  waitpid(pid, nullptr, 0);

  res.ok = res.answered == users && res.every_tag_once &&
           telemetry_delivered == res.delivered;
  return res;
}

io::JsonObject run_json(const RunResult& r) {
  io::JsonObject o;
  o["shards"] = r.shards;
  o["users"] = r.users;
  o["reports"] = r.answered;
  o["wall_seconds"] = r.wall_seconds;
  o["req_per_sec"] = r.req_per_sec;
  o["p50_ms"] = r.p50_ms;
  o["p99_ms"] = r.p99_ms;
  o["delivered_fraction"] =
      r.answered > 0 ? static_cast<double>(r.delivered) / static_cast<double>(r.answered) : 0.0;
  o["every_tag_once"] = r.every_tag_once;
  io::JsonArray rss_map;
  for (const double kb : r.rss_after_map_kb) rss_map.emplace_back(kb);
  o["rss_after_map_kb"] = std::move(rss_map);
  io::JsonArray rss_load;
  for (const double kb : r.rss_after_load_kb) rss_load.emplace_back(kb);
  o["rss_after_load_kb"] = std::move(rss_load);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser parser("bench_service_network",
                       "shard-router throughput over unix sockets: 1 vs N shard processes");
  parser.add({.name = "preset", .help = "full | smoke", .default_value = "full"})
      .add({.name = "out", .help = "output JSON path", .default_value = "BENCH_service.json"})
      .add({.name = "socket-dir", .help = "where the unix sockets live", .default_value = "/tmp"})
      .add({.name = "downstream-us", .help = "override the simulated LBS round-trip",
            .default_value = "-1"})
      .add({.name = "users", .help = "override the sharded-run user count", .default_value = "0"});
  std::vector<std::string> raw(argv + 1, argv + argc);
  const io::ParsedArgs args = [&] {
    try {
      return parser.parse(raw);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n" << parser.usage();
      std::exit(2);
    }
  }();
  const std::string preset = args.get("preset");
  if (preset != "full" && preset != "smoke") {
    std::cerr << "unknown preset '" << preset << "' (want full or smoke)\n";
    return 2;
  }

  Params p;
  if (preset == "smoke") {
    p.dataset_users = 2000;
    p.single_users = 6000;
    p.sharded_users = 60000;
  }
  if (args.get_int("downstream-us") >= 0) p.downstream_us = args.get_int("downstream-us");
  if (args.get_int("users") > 0) {
    p.sharded_users = static_cast<std::size_t>(args.get_int("users"));
    p.single_users = p.sharded_users / 8;
  }

  const std::string tag = std::to_string(getpid());
  const std::string dataset_path =
      args.get("socket-dir") + "/locpriv_bench_net." + tag + ".lpds";
  const net::Endpoint base{net::Endpoint::Kind::kUnix,
                           args.get("socket-dir") + "/locpriv_bench_net." + tag + ".sock"};

  // The shared arena every shard maps: a taxi fleet big enough that one
  // copy per shard would be visible in RSS. Built in a throwaway child
  // process — the synthesized fleet is dataset-sized on the heap, and
  // every shard later forks from THIS process, so building it here
  // would hand each shard ~dataset_kb of inherited copy-on-write pages
  // and poison the very RSS measurement the bench exists to make.
  {
    const pid_t builder = fork();
    if (builder == 0) {
      synth::TaxiScenarioConfig taxi;
      taxi.driver_count = p.dataset_users;
      const trace::Dataset data = synth::make_taxi_dataset(taxi, 2016);
      trace::save_store(dataset_path, *trace::TraceStore::from_dataset(data));
      _exit(0);
    }
    int status = 0;
    waitpid(builder, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "dataset builder child failed\n";
      return 1;
    }
  }
  const double dataset_kb =
      static_cast<double>(std::filesystem::file_size(dataset_path)) / 1024.0;
  std::size_t dataset_user_count = 0;
  std::size_t dataset_event_count = 0;
  {
    trace::LoadOptions opts;
    opts.format = trace::LoadOptions::Format::kBinary;
    opts.use_mmap = true;
    opts.verify = false;  // header peek only: the columns stay untouched
    const auto store = trace::load_store(dataset_path, opts);
    dataset_user_count = store->user_count();
    dataset_event_count = store->event_count();
  }

  std::cout << "service network bench, preset " << preset << ": dataset " << dataset_user_count
            << " users / " << dataset_event_count << " events ("
            << io::Table::num(dataset_kb / 1024.0, 1) << " MiB), downstream "
            << p.downstream_us << " us, " << p.workers << " workers/shard, window " << p.window
            << "\n\n";

  const RunResult single = run_fleet(base, dataset_path, 1, p.single_users, p);
  const RunResult sharded = run_fleet(base, dataset_path, p.shards, p.sharded_users, p);
  std::filesystem::remove(dataset_path);

  io::Table table({"shards", "users", "req/s", "p50 ms", "p99 ms", "wall s", "speedup"});
  const double speedup =
      single.req_per_sec > 0.0 ? sharded.req_per_sec / single.req_per_sec : 0.0;
  for (const RunResult* r : {&single, &sharded}) {
    table.add_row({std::to_string(r->shards), std::to_string(r->users),
                   std::to_string(static_cast<long long>(r->req_per_sec)),
                   io::Table::num(r->p50_ms, 2), io::Table::num(r->p99_ms, 2),
                   io::Table::num(r->wall_seconds, 2),
                   r == &sharded ? io::Table::num(speedup, 2) + "x" : "1.00x"});
  }
  table.print(std::cout);

  double max_map_rss = 0.0;
  for (const double kb : sharded.rss_after_map_kb) max_map_rss = std::max(max_map_rss, kb);
  const double rss_map_ratio = dataset_kb > 0.0 ? max_map_rss / dataset_kb : 0.0;
  std::cout << "\nper-shard RSS after mapping the " << io::Table::num(dataset_kb / 1024.0, 1)
            << " MiB dataset: max " << io::Table::num(max_map_rss / 1024.0, 1)
            << " MiB (ratio " << io::Table::num(rss_map_ratio, 3)
            << ") — the map is lazy and the pages are shared, so " << p.shards
            << " shards cost one dataset, not " << p.shards << "\n";

  io::JsonObject out;
  out["bench"] = "service";
  out["preset"] = preset;
  out["cores"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
  out["uds"] = true;
  out["downstream_us"] = static_cast<double>(p.downstream_us);
  out["workers_per_shard"] = p.workers;
  io::JsonObject ds;
  ds["users"] = dataset_user_count;
  ds["events"] = dataset_event_count;
  ds["file_kb"] = dataset_kb;
  out["dataset"] = std::move(ds);
  out["single"] = run_json(single);
  out["sharded"] = run_json(sharded);
  out["shard_speedup"] = speedup;
  out["rss_map_ratio"] = rss_map_ratio;
  out["all_answered"] = single.ok && sharded.ok;
  io::write_json_file(args.get("out"), io::JsonValue(out));
  std::cout << "wrote " << args.get("out") << " (speedup " << io::Table::num(speedup, 2)
            << "x, aggregate " << static_cast<long long>(sharded.req_per_sec) << " req/s)\n";
  return single.ok && sharded.ok ? 0 : 1;
}
