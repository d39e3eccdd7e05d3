#include "service/shard/shard_server.h"

#include <cerrno>
#include <exception>
#include <utility>

#include "io/json.h"
#include "net/error.h"
#include "net/stream.h"
#include "trace/store_io.h"

namespace locpriv::service::shard {
namespace {

/// Outbox backlog (bytes) above which a connection stops being read.
constexpr std::size_t kOutboxHighWater = std::size_t{1} << 20;
/// Backlog below which a paused connection resumes.
constexpr std::size_t kOutboxLowWater = std::size_t{1} << 18;

}  // namespace

ShardServer::ShardServer(ShardServerConfig cfg, net::Fd control) : cfg_(std::move(cfg)) {
  net::ignore_sigpipe();
  if (control.valid()) {
    (void)net::set_nonblocking(control.get());
    const std::uint64_t serial = next_serial_++;
    Conn conn;
    conn.fd = std::move(control);
    conn.serial = serial;
    conn.outbox = std::make_shared<Outbox>();
    conn.is_control = true;
    conns_.emplace(serial, std::move(conn));
    control_serial_ = serial;
  }
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

  listener_ = net::listen_endpoint(cfg_.listen, /*backlog=*/128, &error_);
  if (!listener_.valid()) return false;
  if (!net::set_nonblocking(listener_.get())) {
    error_ = net::errno_message("shard: listener nonblocking");
    return false;
  }
  if (!loop_.add(listener_.get(), net::kEventRead, [this](unsigned) { accept_ready(); })) {
    error_ = "shard: event loop rejected the listener";
    return false;
  }
  if (control_serial_ != 0) {
    Conn& control = conns_.at(control_serial_);
    const std::uint64_t serial = control.serial;
    if (!loop_.add(control.fd.get(), net::kEventRead,
                   [this, serial](unsigned ev) { conn_event(serial, ev); })) {
      error_ = "shard: event loop rejected the control channel";
      return false;
    }
    send(control, net::FrameType::kReady, std::to_string(cfg_.shard_index));
    flush(control);
  }
  return true;
}

void ShardServer::stop() { loop_.stop(); }

int ShardServer::run_once(int timeout_ms) {
  const int n = loop_.run_once(timeout_ms);
  flush_all();
  if (finishing_) {
    bool all_flushed = true;
    for (const auto& [serial, conn] : conns_) {
      if (conn.backlog.size() > conn.backlog_pos) all_flushed = false;
    }
    if (all_flushed) loop_.stop();
  }
  return n;
}

void ShardServer::run() {
  while (!loop_.stopped()) (void)run_once(-1);
}

void ShardServer::accept_ready() {
  while (true) {
    net::Fd fd = net::accept_connection(listener_.get());
    if (!fd.valid()) return;  // EAGAIN (or a transient error): back to the loop
    if (draining_) continue;  // accept-and-close: the shard is going away
    const std::uint64_t serial = next_serial_++;
    Conn conn;
    conn.fd = std::move(fd);
    conn.serial = serial;
    conn.outbox = std::make_shared<Outbox>();
    const int raw_fd = conn.fd.get();
    conns_.emplace(serial, std::move(conn));
    if (!loop_.add(raw_fd, net::kEventRead,
                   [this, serial](unsigned ev) { conn_event(serial, ev); })) {
      conns_.erase(serial);
    }
  }
}

void ShardServer::conn_event(std::uint64_t serial, unsigned events) {
  const auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (events & net::kEventWrite) flush(conn);
  if (conns_.find(serial) == conns_.end()) return;  // flush may close
  if (events & net::kEventRead) read_conn(conn);
}

void ShardServer::read_conn(Conn& conn) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t got = net::read_some(conn.fd.get(), buf, sizeof buf);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn.serial);
      return;
    }
    if (got == 0) {  // peer hangup
      const bool was_control = conn.is_control;
      close_conn(conn.serial);
      // An orphaned shard (supervisor gone) must not linger as an
      // unreachable process holding the socket path.
      if (was_control) loop_.stop();
      return;
    }
    conn.reader.feed(buf, static_cast<std::size_t>(got));
    net::Frame frame;
    net::FrameReader::Result r;
    while ((r = conn.reader.next(frame)) == net::FrameReader::Result::kFrame) {
      dispatch(conn, frame);
      if (conns_.find(conn.serial) == conns_.end()) return;  // dispatch closed it
      if (conn.close_after_flush) break;
    }
    if (r == net::FrameReader::Result::kBad) {
      protocol_error(conn, net::to_string(conn.reader.error()));
      return;
    }
    if (conn.close_after_flush || conn.read_paused) return;
    if (static_cast<std::size_t>(got) < sizeof buf) break;  // drained the socket
  }
}

void ShardServer::dispatch(Conn& conn, const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kSubmit:
      handle_submit(conn, frame);
      return;
    case net::FrameType::kTelemetryReq:
      send(conn, net::FrameType::kTelemetryReply, telemetry_json());
      flush(conn);
      return;
    case net::FrameType::kDrainReq:
      handle_drain(conn);
      return;
    case net::FrameType::kReload:
      handle_reload(conn, frame);
      return;
    case net::FrameType::kShardMapReq:
      protocol_error(conn, "shard map is served by the supervisor endpoint");
      return;
    default:
      protocol_error(conn, "unexpected frame type for a shard endpoint");
      return;
  }
}

void ShardServer::handle_submit(Conn& conn, const net::Frame& frame) {
  if (draining_) {
    protocol_error(conn, "shard is draining");
    return;
  }
  const auto payload = net::decode_submit(frame.payload.data(), frame.payload.size());
  if (!payload) {
    protocol_error(conn, "malformed submit payload");
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
  {
    const std::lock_guard<std::mutex> lock(pending.outbox->mutex);
    encode_frame(net::FrameType::kAnswer, payload.data(), payload.size(), pending.outbox->data);
  }
  loop_.wake();
}

void ShardServer::handle_drain(Conn& conn) {
  if (draining_) return;  // already on the way out; first requester wins
  draining_ = true;
  drain_requester_ = conn.serial;
  loop_.remove(listener_.get());
  for (auto& [serial, c] : conns_) {
    if (!c.is_control && serial != conn.serial) {
      c.read_paused = true;
      update_interest(c);
    }
  }
  // Blocks until every accepted report is answered into its outbox;
  // worker threads never need this (the loop) thread to finish.
  gateway_->drain();

  io::JsonObject reply;
  reply["shard"] = cfg_.shard_index;
  const TelemetrySnapshot snap = gateway_->telemetry().snapshot();
  reply["received"] = static_cast<double>(snap[Count::received]);
  reply["delivered"] = static_cast<double>(snap[Count::delivered]);
  const auto requester = conns_.find(drain_requester_);
  if (requester != conns_.end()) {
    // Answers were queued before this reply, so the requester sees every
    // in-flight answer first — the exactly-once drain contract.
    send(requester->second, net::FrameType::kDrainReply, io::to_json(io::JsonValue(std::move(reply))));
  }
  finish_drain();
}

void ShardServer::finish_drain() {
  finishing_ = true;
  flush_all();
}

void ShardServer::handle_reload(Conn& conn, const net::Frame& frame) {
  GatewayConfig next;
  try {
    next = apply_reload_spec(cfg_.gateway,
                             std::string(frame.payload.begin(), frame.payload.end()));
  } catch (const std::exception& e) {
    send(conn, net::FrameType::kError, std::string("reload rejected: ") + e.what());
    flush(conn);
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
  send(conn, net::FrameType::kReloadReply, io::to_json(io::JsonValue(std::move(reply))));
  flush(conn);
}

void ShardServer::protocol_error(Conn& conn, const std::string& message) {
  send(conn, net::FrameType::kError, message);
  conn.close_after_flush = true;
  conn.read_paused = true;
  flush(conn);
}

void ShardServer::send(Conn& conn, net::FrameType type, const std::string& payload) {
  // Loop thread: append through the outbox so ordering with answers
  // (which only ever enter via the outbox) is preserved.
  const std::lock_guard<std::mutex> lock(conn.outbox->mutex);
  encode_frame(type, payload, conn.outbox->data);
}

void ShardServer::flush(Conn& conn) {
  {
    const std::lock_guard<std::mutex> lock(conn.outbox->mutex);
    if (!conn.outbox->data.empty()) {
      conn.backlog.insert(conn.backlog.end(), conn.outbox->data.begin(), conn.outbox->data.end());
      conn.outbox->data.clear();
    }
  }
  while (conn.backlog_pos < conn.backlog.size()) {
    const ssize_t put = net::write_some(conn.fd.get(), conn.backlog.data() + conn.backlog_pos,
                                        conn.backlog.size() - conn.backlog_pos);
    if (put < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn.serial);  // EPIPE/ECONNRESET: peer is gone
      return;
    }
    conn.backlog_pos += static_cast<std::size_t>(put);
  }
  if (conn.backlog_pos == conn.backlog.size()) {
    conn.backlog.clear();
    conn.backlog_pos = 0;
    if (conn.close_after_flush) {
      close_conn(conn.serial);
      return;
    }
  }
  const std::size_t queued = conn.backlog.size() - conn.backlog_pos;
  if (!conn.close_after_flush && !draining_) {
    if (conn.read_paused && queued < kOutboxLowWater) {
      conn.read_paused = false;
    } else if (!conn.read_paused && queued > kOutboxHighWater) {
      conn.read_paused = true;
    }
  }
  update_interest(conn);
}

void ShardServer::flush_all() {
  std::vector<std::uint64_t> serials;
  serials.reserve(conns_.size());
  for (const auto& [serial, conn] : conns_) serials.push_back(serial);
  for (const std::uint64_t serial : serials) {
    const auto it = conns_.find(serial);
    if (it != conns_.end()) flush(it->second);
  }
}

void ShardServer::update_interest(Conn& conn) {
  unsigned interest = 0;
  if (!conn.read_paused && !conn.close_after_flush) interest |= net::kEventRead;
  if (conn.backlog_pos < conn.backlog.size()) interest |= net::kEventWrite;
  (void)loop_.modify(conn.fd.get(), interest);
}

void ShardServer::close_conn(std::uint64_t serial) {
  const auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  loop_.remove(it->second.fd.get());
  if (serial == drain_requester_) drain_requester_ = 0;
  if (serial == control_serial_) control_serial_ = 0;
  conns_.erase(it);
}

std::string ShardServer::telemetry_json() const {
  io::JsonObject root = gateway_->telemetry().to_json().as_object();
  io::JsonObject shard;
  shard["index"] = cfg_.shard_index;
  shard["count"] = cfg_.shard_count;
  shard["endpoint"] = cfg_.listen.to_string();
  shard["connections"] = conns_.size();
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
