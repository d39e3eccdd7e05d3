#include "service/shard/shard_service.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "io/json.h"
#include "net/error.h"
#include "service/shard/shard_server.h"
#include "trace/store_io.h"

namespace locpriv::service::shard {
namespace {

constexpr int kWatchedSignals[] = {SIGTERM, SIGINT, SIGHUP, SIGCHLD};

/// Sums one counter across per-shard telemetry objects.
double sum_count(const std::vector<io::JsonValue>& shards, const CountSpec& spec) {
  const char* block = home_block(spec.block);
  double total = 0.0;
  for (const auto& s : shards) {
    if (s.is_object() && s.contains(block) && s.at(block).contains(spec.name)) {
      total += s.at(block).at(spec.name).as_number();
    }
  }
  return total;
}

std::string payload_text(const net::Frame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace

ShardService::ShardService(ShardServiceConfig cfg)
    : cfg_(std::move(cfg)),
      server_(
          loop_,
          [this](net::FrameServer::Conn& conn, const net::Frame& frame) { dispatch(conn, frame); },
          [this](std::uint64_t serial) { on_close(serial); }) {
  net::ignore_sigpipe();
}

ShardService::~ShardService() {
  if (started_) drain();
}

bool ShardService::start() {
  if (cfg_.shards == 0) {
    error_ = "supervisor: shard count must be >= 1";
    return false;
  }
  if (!cfg_.dataset_path.empty()) {
    try {
      trace::LoadOptions opts;
      opts.format = trace::LoadOptions::Format::kBinary;
      opts.use_mmap = true;
      opts.verify = true;  // one verification pass for the whole service
      (void)trace::load_store(cfg_.dataset_path, opts);
    } catch (const std::exception& e) {
      error_ = std::string("supervisor: dataset: ") + e.what();
      return false;
    }
  }

  // Every shard boots concurrently; the endpoint opens only once each
  // one listens, so a client never gets a map with a dead endpoint.
  procs_.resize(cfg_.shards);
  for (std::size_t k = 0; k < cfg_.shards && error_.empty(); ++k) (void)fork_shard(k);
  const auto all_ready = [this] {
    return std::all_of(procs_.begin(), procs_.end(), [](const ShardProc& p) { return p.ready; });
  };
  while (error_.empty() && !all_ready()) (void)run_once(-1);
  if (!error_.empty()) {
    drain();
    return false;
  }

  if (!server_.listen(cfg_.listen, &error_)) {
    error_.insert(0, "supervisor: ");
    drain();
    return false;
  }

  net::SignalPipe& signals = net::SignalPipe::instance();
  for (const int signo : kWatchedSignals) (void)signals.watch(signo);
  (void)loop_.add(signals.fd(), net::kEventRead, [this](unsigned) { handle_signals(); });
  started_ = true;
  return true;
}

bool ShardService::fork_shard(std::size_t k) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    error_ = net::errno_message("supervisor: socketpair");
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    error_ = net::errno_message("supervisor: fork");
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Drop every inherited descriptor with protocol meaning:
    // the supervisor's listener, client connections and the other
    // shards' control channels must die with the supervisor, not live
    // on in a worker.
    ::close(sv[0]);
    server_.drop_after_fork();
    net::SignalPipe& signals = net::SignalPipe::instance();
    for (const int signo : kWatchedSignals) signals.unwatch(signo);

    ShardServerConfig shard_cfg;
    shard_cfg.shard_index = k;
    shard_cfg.shard_count = cfg_.shards;
    shard_cfg.listen = cfg_.listen.shard_endpoint(k);
    shard_cfg.gateway = cfg_.gateway;
    shard_cfg.dataset_path = cfg_.dataset_path;
    shard_cfg.audit = cfg_.audit;
    ShardServer server(std::move(shard_cfg), net::Fd(sv[1]));
    if (!server.start()) {
      std::fprintf(stderr, "shard %zu: %s\n", k, server.error().c_str());
      ::_exit(1);
    }
    server.run();
    ::_exit(0);
  }
  // Parent. kReady arrives on the control channel; until then the
  // shard is not ready, and a shard that closes before it is not
  // re-forked.
  ::close(sv[1]);
  ShardProc& proc = procs_[k];
  proc.pid = pid;
  proc.ready = false;
  proc.control = server_.adopt(net::Fd(sv[0]));
  if (proc.control == 0) {  // the closed channel stops the child
    error_ = "supervisor: event loop rejected the control channel of shard " + std::to_string(k);
    return false;
  }
  return true;
}

std::optional<std::size_t> ShardService::shard_of_serial(std::uint64_t serial) const {
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    if (procs_[k].control == serial) return k;
  }
  return std::nullopt;
}

void ShardService::on_shard_frame(std::size_t k, const net::Frame& frame) {
  ShardProc& proc = procs_[k];
  if (!proc.ready) {
    proc.ready = frame.type == net::FrameType::kReady;
    if (proc.ready && started_) ++restarts_;
    return;
  }
  if (proc.waiting.empty()) return;  // unsolicited: nothing asked
  const std::shared_ptr<FanOut> f = std::move(proc.waiting.front());
  proc.waiting.pop_front();
  f->replies[k] = frame;
  f->settle();
}

void ShardService::on_close(std::uint64_t serial) {
  const std::optional<std::size_t> k = shard_of_serial(serial);
  if (!k) return;  // a client
  ShardProc& proc = procs_[*k];
  proc.control = 0;
  for (const std::shared_ptr<FanOut>& f : std::exchange(proc.waiting, {})) f->settle();
  if (!proc.ready) {
    error_ = "supervisor: shard " + std::to_string(*k) + " died before ready";
    if (started_) std::fprintf(stderr, "%s; not restarted\n", error_.c_str());
  }
  restart_if_gone(*k);
}

void ShardService::reap_children() {
  while (true) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    for (std::size_t k = 0; k < procs_.size(); ++k) {
      if (procs_[k].pid != pid) continue;
      procs_[k].pid = -1;
      restart_if_gone(k);
      break;
    }
  }
}

void ShardService::restart_if_gone(std::size_t k) {
  // Re-fork once the process is reaped and its channel read to EOF, so
  // a late reply of the old process never reaches the new one's queue.
  // Same socket path, fresh process: clients re-route by reconnecting.
  // Sessions of that shard restart empty — the crash lost them, not the
  // restart. restarts() counts the new process once it is ready.
  const ShardProc& proc = procs_[k];
  if (draining_ || !proc.ready || proc.pid >= 0 || proc.control != 0) return;
  if (!fork_shard(k)) {
    std::fprintf(stderr, "supervisor: restart of shard %zu failed: %s\n", k, error_.c_str());
  }
}

void ShardService::handle_signals() {
  for (const int signo : net::SignalPipe::instance().drain()) {
    switch (signo) {
      case SIGCHLD:
        reap_children();
        break;
      case SIGHUP:
        reload_from_file();
        break;
      case SIGTERM:
      case SIGINT:
        begin_drain();
        break;
      default:
        break;
    }
  }
}

void ShardService::fan_out(net::FrameType type, const std::string& payload, bool with_deadline,
                           std::function<void(const Replies&)> done) {
  const auto f = std::make_shared<FanOut>();
  f->replies.resize(procs_.size());
  f->done = std::move(done);
  if (with_deadline) {
    f->deadline = Clock::now() + kReplyDeadline;
    timed_.push_back(f);
  }
  f->outstanding = 1;  // held until every frame is sent
  for (ShardProc& proc : procs_) {
    net::FrameServer::Conn* conn = server_.find(proc.control);
    if (conn == nullptr) continue;
    proc.waiting.push_back(f);
    ++f->outstanding;
    server_.send(*conn, type, payload);  // a dead peer closes and settles here
  }
  f->settle();
}

void ShardService::expire_fan_outs() {
  const Clock::time_point now = Clock::now();
  while (!timed_.empty() && (!timed_.front()->done || timed_.front()->deadline <= now)) {
    const std::shared_ptr<FanOut> f = std::move(timed_.front());
    timed_.pop_front();
    f->finish();  // a shard that replies later pops it from its queue
  }
}

void ShardService::reply(std::uint64_t serial, net::FrameType type, const std::string& payload) {
  if (serial == 0) {  // a signal asked: only a failure is worth a line
    if (type == net::FrameType::kError) std::fprintf(stderr, "supervisor: %s\n", payload.c_str());
  } else if (net::FrameServer::Conn* conn = server_.find(serial)) {
    server_.send(*conn, type, payload);
  }
}

void ShardService::reload_from_file() {
  std::string spec;
  if (!cfg_.reload_file.empty()) {
    try {
      spec = io::to_json(io::read_json_file(cfg_.reload_file));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "supervisor: reload file: %s\n", e.what());
      return;
    }
  }
  reload(spec, 0);
}

void ShardService::reload(const std::string& spec_json, std::uint64_t requester) {
  // Validate once, up front: an invalid spec reaches no shard. The
  // result is the policy a re-forked shard starts with.
  try {
    cfg_.gateway = apply_reload_spec(cfg_.gateway, spec_json);
  } catch (const std::exception& e) {
    reply(requester, net::FrameType::kError, std::string("reload rejected: ") + e.what());
    return;
  }
  fan_out(net::FrameType::kReload, spec_json, /*with_deadline=*/true,
          [this, requester](const Replies& replies) {
            io::JsonArray unanswered;
            for (std::size_t k = 0; k < replies.size(); ++k) {
              if (!replies[k]) {
                unanswered.emplace_back(k);
              } else if (replies[k]->type != net::FrameType::kReloadReply) {
                reply(requester, net::FrameType::kError,
                      "reload failed on shard " + std::to_string(k) + ": " +
                          payload_text(*replies[k]));
                return;
              }
            }
            io::JsonObject out;
            out["shards"] = cfg_.shards;
            out["unanswered"] = std::move(unanswered);
            reply(requester, net::FrameType::kReloadReply,
                  io::to_json(io::JsonValue(std::move(out))));
          });
}

void ShardService::begin_drain() {
  if (draining_) return;
  draining_ = true;
  fan_out(net::FrameType::kDrainReq, "", /*with_deadline=*/false,
          [this](const Replies& replies) { finish_drain(replies); });
}

void ShardService::drain() {
  begin_drain();
  while (!loop_.stopped()) (void)run_once(-1);
}

void ShardService::finish_drain(const Replies& replies) {
  // Every shard has answered its drain or closed its channel, so each
  // one is exiting: these waits are short.
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    ShardProc& proc = procs_[k];
    if (!replies[k] && proc.ready) {
      std::fprintf(stderr, "supervisor: shard %zu closed before its drain reply\n", k);
    }
    if (proc.pid < 0) continue;
    int status = 0;
    (void)::waitpid(proc.pid, &status, 0);
    proc.pid = -1;
  }
  for (std::size_t k = 0; k < procs_.size(); ++k) {
    net::unlink_endpoint(cfg_.listen.shard_endpoint(k));
  }
  net::unlink_endpoint(cfg_.listen);

  io::JsonObject out;
  out["shards"] = cfg_.shards;
  const std::string payload = io::to_json(io::JsonValue(std::move(out)));
  for (const std::uint64_t serial : drain_requesters_) {
    if (net::FrameServer::Conn* conn = server_.find(serial)) {
      server_.send_and_close(*conn, net::FrameType::kDrainReply, payload);
    }
  }
  loop_.stop();
}

std::string ShardService::aggregate_telemetry(const Replies& replies) const {
  std::vector<io::JsonValue> shard_reports;
  io::JsonArray unanswered;
  for (std::size_t k = 0; k < replies.size(); ++k) {
    try {
      if (replies[k] && replies[k]->type == net::FrameType::kTelemetryReply) {
        shard_reports.push_back(io::parse_json(payload_text(*replies[k])));
        continue;
      }
    } catch (const std::exception&) {
      // A malformed shard report is dropped, not fatal to the aggregate.
    }
    unanswered.emplace_back(k);
  }

  io::JsonObject aggregate;
  for (const CountSpec& spec : kCountTable) aggregate[spec.name] = sum_count(shard_reports, spec);
  io::JsonArray rss;
  for (const auto& s : shard_reports) {
    if (s.is_object() && s.contains("process")) {
      rss.push_back(s.at("process").at("resident_set_kb"));
    }
  }
  aggregate["resident_set_kb_per_shard"] = std::move(rss);
  aggregate["supervisor_resident_set_kb"] = static_cast<double>(resident_set_kb());
  aggregate["restarts"] = static_cast<double>(restarts_);
  aggregate["unanswered"] = std::move(unanswered);

  io::JsonObject root;
  root["shards"] = cfg_.shards;
  root["aggregate"] = std::move(aggregate);
  root["per_shard"] = io::JsonArray(shard_reports.begin(), shard_reports.end());
  return io::to_json(io::JsonValue(std::move(root)));
}

net::ShardMap ShardService::shard_map() const {
  net::ShardMap map;
  map.shards = cfg_.shards;
  map.endpoints.reserve(cfg_.shards);
  for (std::size_t k = 0; k < cfg_.shards; ++k) {
    map.endpoints.push_back(cfg_.listen.shard_endpoint(k));
  }
  return map;
}

void ShardService::dispatch(net::FrameServer::Conn& conn, const net::Frame& frame) {
  if (const std::optional<std::size_t> k = shard_of_serial(conn.serial)) {
    on_shard_frame(*k, frame);
    return;
  }
  const std::uint64_t serial = conn.serial;
  switch (frame.type) {
    case net::FrameType::kShardMapReq:
      server_.send(conn, net::FrameType::kShardMapReply, shard_map().to_json());
      break;
    case net::FrameType::kTelemetryReq:
      fan_out(net::FrameType::kTelemetryReq, "", /*with_deadline=*/true,
              [this, serial](const Replies& replies) {
                reply(serial, net::FrameType::kTelemetryReply, aggregate_telemetry(replies));
              });
      break;
    case net::FrameType::kDrainReq:
      drain_requesters_.push_back(serial);
      begin_drain();
      break;
    case net::FrameType::kReload:
      reload(payload_text(frame), serial);
      break;
    case net::FrameType::kSubmit:
      server_.send_and_close(conn, net::FrameType::kError,
                             "submits go to a shard endpoint; fetch the shard map first");
      break;
    default:
      server_.send_and_close(conn, net::FrameType::kError,
                             "unexpected frame type for the supervisor endpoint");
      break;
  }
}

int ShardService::run_once(int timeout_ms) {
  if (!timed_.empty()) {  // wake for the soonest deadline
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(timed_.front()->deadline -
                                                                  Clock::now());
    const int due = static_cast<int>(std::max<std::chrono::milliseconds::rep>(left.count(), 0));
    if (timeout_ms < 0 || due < timeout_ms) timeout_ms = due;
  }
  const int n = loop_.run_once(timeout_ms);
  expire_fan_outs();
  return n;
}
void ShardService::run() {
  while (!loop_.stopped()) (void)run_once(-1);
}

pid_t ShardService::spawn(const ShardServiceConfig& cfg, std::string* err) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (err != nullptr) *err = net::errno_message("spawn supervisor: fork");
    return -1;
  }
  if (pid != 0) return pid;
  // Child: run the whole service; never unwind into the caller.
  {
    ShardService service(cfg);
    if (!service.start()) {
      std::fprintf(stderr, "supervisor: %s\n", service.error().c_str());
      ::_exit(1);
    }
    service.run();
  }
  ::_exit(0);
}

}  // namespace locpriv::service::shard
