#include "service/shard/shard_server.h"

#include <exception>
#include <utility>

#include "io/json.h"
#include "trace/store_io.h"

namespace locpriv::service::shard {

ShardServer::ShardServer(ShardServerConfig cfg, net::Fd control)
    : cfg_(std::move(cfg)),
      server_(
          loop_,
          [this](net::FrameServer::Conn& conn, const net::Frame& frame) { dispatch(conn, frame); },
          [this](std::uint64_t serial) { on_close(serial); }) {
  net::ignore_sigpipe();
  if (control.valid()) control_serial_ = server_.adopt(std::move(control));
}

ShardServer::~ShardServer() = default;

bool ShardServer::start() {
  if (!cfg_.dataset_path.empty()) {
    try {
      trace::LoadOptions opts;
      opts.format = trace::LoadOptions::Format::kBinary;
      opts.use_mmap = true;
      // The supervisor verified the file once before forking; shards
      // skip the verification pass so pages fault in lazily and the
      // per-shard resident set stays far below dataset size.
      opts.verify = false;
      store_ = trace::load_store(cfg_.dataset_path, opts);
    } catch (const std::exception& e) {
      error_ = std::string("shard: dataset: ") + e.what();
      return false;
    }
    if (cfg_.audit) auditor_ = std::make_unique<StreamAuditor>(store_);
  } else if (cfg_.audit) {
    auditor_ = std::make_unique<StreamAuditor>();
  }

  try {
    gateway_ = std::make_unique<Gateway>(
        cfg_.gateway, [this](const ProtectedReport& r) { on_answer(r); });
  } catch (const std::exception& e) {
    error_ = std::string("shard: gateway: ") + e.what();
    return false;
  }

  if (!server_.listen(cfg_.listen, &error_)) {
    error_.insert(0, "shard: ");
    return false;
  }
  if (net::FrameServer::Conn* control = server_.find(control_serial_)) {
    server_.send(*control, net::FrameType::kReady, std::to_string(cfg_.shard_index));
  }
  return true;
}

void ShardServer::stop() { loop_.stop(); }

int ShardServer::run_once(int timeout_ms) {
  const int n = loop_.run_once(timeout_ms);
  server_.flush_all();
  if (finishing_ && server_.flushed()) loop_.stop();
  return n;
}

void ShardServer::run() {
  while (!loop_.stopped()) (void)run_once(-1);
}

void ShardServer::dispatch(net::FrameServer::Conn& conn, const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kSubmit:
      handle_submit(conn, frame);
      return;
    case net::FrameType::kTelemetryReq:
      server_.send(conn, net::FrameType::kTelemetryReply, telemetry_json());
      return;
    case net::FrameType::kDrainReq:
      handle_drain(conn);
      return;
    case net::FrameType::kReload:
      handle_reload(conn, frame);
      return;
    case net::FrameType::kShardMapReq:
      server_.send_and_close(conn, net::FrameType::kError,
                             "shard map is served by the supervisor endpoint");
      return;
    default:
      server_.send_and_close(conn, net::FrameType::kError,
                             "unexpected frame type for a shard endpoint");
      return;
  }
}

void ShardServer::handle_submit(net::FrameServer::Conn& conn, const net::Frame& frame) {
  if (draining_) {
    server_.send_and_close(conn, net::FrameType::kError, "shard is draining");
    return;
  }
  const auto payload = net::decode_submit(frame.payload.data(), frame.payload.size());
  if (!payload) {
    server_.send_and_close(conn, net::FrameType::kError, "malformed submit payload");
    return;
  }
  std::uint64_t cookie;
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    cookie = next_cookie_++;
    pending_.emplace(cookie, Pending{conn.outbox, payload->tag});
  }
  // Accepted or rejected, the sink answers exactly once with this
  // cookie (rejections are answered synchronously from this thread).
  (void)gateway_->submit(payload->user_id, payload->event, cookie);
}

void ShardServer::on_answer(const ProtectedReport& report) {
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(report.cookie);
    if (it == pending_.end()) return;  // a replayed drain already answered it
    pending = std::move(it->second);
    pending_.erase(it);
  }
  if (auditor_ != nullptr) auditor_->record(report);

  net::AnswerPayload answer;
  answer.tag = pending.tag;
  answer.user_id = report.user_id;
  answer.seq = report.seq;
  answer.status = report.status;
  answer.protected_event = report.protected_event;
  answer.downstream_attempts = report.downstream_attempts;
  std::vector<std::uint8_t> payload;
  encode_answer(answer, payload);
  pending.outbox->push(net::FrameType::kAnswer, payload.data(), payload.size());
  loop_.wake();
}

void ShardServer::handle_drain(net::FrameServer::Conn& conn) {
  if (draining_) return;  // already on the way out; first requester wins
  draining_ = true;
  server_.stop_accepting();
  server_.hold_reads([&](std::uint64_t serial) {
    return serial != conn.serial && serial != control_serial_;
  });
  // Blocks until every accepted report is answered into its outbox;
  // worker threads never need this (the loop) thread to finish.
  gateway_->drain();

  io::JsonObject reply;
  reply["shard"] = cfg_.shard_index;
  const TelemetrySnapshot snap = gateway_->telemetry().snapshot();
  reply["received"] = static_cast<double>(snap[Count::received]);
  reply["delivered"] = static_cast<double>(snap[Count::delivered]);
  // Answers were queued before this reply, so the requester sees every
  // in-flight answer first — the exactly-once drain contract.
  finishing_ = true;
  server_.send(conn, net::FrameType::kDrainReply, io::to_json(io::JsonValue(std::move(reply))));
  server_.flush_all();
}

void ShardServer::handle_reload(net::FrameServer::Conn& conn, const net::Frame& frame) {
  GatewayConfig next;
  try {
    next = apply_reload_spec(cfg_.gateway,
                             std::string(frame.payload.begin(), frame.payload.end()));
  } catch (const std::exception& e) {
    server_.send(conn, net::FrameType::kError, std::string("reload rejected: ") + e.what());
    return;
  }
  // Specs are validated; reload itself can no longer throw. Sessions
  // (and their ε budgets) survive — only the policy for new sessions,
  // the fault schedule and the resilience plumbing change.
  gateway_->reload(next);
  cfg_.gateway = next;

  io::JsonObject reply;
  reply["shard"] = cfg_.shard_index;
  reply["sessions_kept"] = static_cast<double>(gateway_->active_sessions());
  server_.send(conn, net::FrameType::kReloadReply, io::to_json(io::JsonValue(std::move(reply))));
}

void ShardServer::on_close(std::uint64_t serial) {
  // An orphaned shard (supervisor gone) must not linger as an
  // unreachable process holding the socket path.
  if (serial == control_serial_) {
    control_serial_ = 0;
    loop_.stop();
  }
}

std::string ShardServer::telemetry_json() const {
  io::JsonObject root = gateway_->telemetry().to_json().as_object();
  io::JsonObject shard;
  shard["index"] = cfg_.shard_index;
  shard["count"] = cfg_.shard_count;
  shard["endpoint"] = cfg_.listen.to_string();
  shard["connections"] = server_.connections();
  shard["sessions"] = gateway_->active_sessions();
  shard["dataset_mapped"] = store_ != nullptr;
  root["shard"] = std::move(shard);
  if (auditor_ != nullptr) {
    const StreamAuditor::StorageStats stats = auditor_->storage();
    io::JsonObject audit;
    audit["recorded"] = auditor_->recorded();
    audit["borrowed"] = stats.borrowed;
    audit["copied"] = stats.copied;
    root["audit"] = std::move(audit);
  }
  return io::to_json(io::JsonValue(std::move(root)));
}

}  // namespace locpriv::service::shard
