#include "net/frame_server.h"

#include <cerrno>
#include <utility>

#include "net/error.h"
#include "net/stream.h"

namespace locpriv::net {
namespace {

/// Queued bytes above which a connection stops being read.
constexpr std::size_t kOutboxHighWater = std::size_t{1} << 20;
/// Queued bytes below which a paused connection resumes.
constexpr std::size_t kOutboxLowWater = std::size_t{1} << 18;

}  // namespace

void FrameServer::Outbox::push(FrameType type, const void* payload, std::size_t len) {
  const std::lock_guard<std::mutex> lock(mutex);
  encode_frame(type, payload, len, data);
}

FrameServer::FrameServer(EventLoop& loop, FrameHandler on_frame, CloseHandler on_close)
    : loop_(loop), on_frame_(std::move(on_frame)), on_close_(std::move(on_close)) {}

bool FrameServer::listen(const Endpoint& ep, std::string* err) {
  listener_ = listen_endpoint(ep, /*backlog=*/128, err);
  if (!listener_.valid()) return false;
  if (!set_nonblocking(listener_.get())) {
    *err = errno_message("listener nonblocking");
    return false;
  }
  if (!loop_.add(listener_.get(), kEventRead, [this](unsigned) { accept_ready(); })) {
    *err = "event loop rejected the listener";
    return false;
  }
  return true;
}

void FrameServer::stop_accepting() { loop_.remove(listener_.get()); }

void FrameServer::accept_ready() {
  while (true) {
    Fd fd = accept_connection(listener_.get());
    if (!fd.valid()) return;  // EAGAIN (or a transient error): back to the loop
    (void)add(std::move(fd));
  }
}

std::uint64_t FrameServer::adopt(Fd fd) {
  (void)set_nonblocking(fd.get());
  return add(std::move(fd));
}

std::uint64_t FrameServer::add(Fd fd) {
  const std::uint64_t serial = next_serial_++;
  const int raw_fd = fd.get();
  Conn& conn = conns_[serial];
  conn.serial = serial;
  conn.fd = std::move(fd);
  if (!loop_.add(raw_fd, kEventRead, [this, serial](unsigned ev) { on_event(serial, ev); })) {
    conns_.erase(serial);
    return 0;
  }
  return serial;
}

FrameServer::Conn* FrameServer::find(std::uint64_t serial) {
  const auto it = conns_.find(serial);
  return it == conns_.end() ? nullptr : &it->second;
}

void FrameServer::on_event(std::uint64_t serial, unsigned events) {
  Conn* conn = find(serial);
  if (conn == nullptr) return;
  if (events & kEventWrite) flush(*conn);
  conn = find(serial);  // flush may close
  if (conn != nullptr && (events & kEventRead)) read(*conn);
}

void FrameServer::read(Conn& conn) {
  const std::uint64_t serial = conn.serial;
  char buf[64 * 1024];
  while (true) {
    const ssize_t got = read_some(conn.fd.get(), buf, sizeof buf);
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (got <= 0) {  // peer hangup or a read error
      close(serial);
      return;
    }
    conn.reader.feed(buf, static_cast<std::size_t>(got));
    Frame frame;
    FrameReader::Result r;
    while ((r = conn.reader.next(frame)) == FrameReader::Result::kFrame) {
      on_frame_(conn, frame);
      if (find(serial) == nullptr) return;  // a send found the peer gone
      if (conn.close_after_flush) break;
    }
    if (r == FrameReader::Result::kBad) {
      send_and_close(conn, FrameType::kError, to_string(conn.reader.error()));
      return;
    }
    if (conn.close_after_flush || conn.read_paused || conn.held) return;
    if (static_cast<std::size_t>(got) < sizeof buf) return;  // drained the socket
  }
}

void FrameServer::send(Conn& conn, FrameType type, const std::string& payload) {
  // Through the outbox, so the frame stays ordered after bytes other
  // threads pushed before it.
  conn.outbox->push(type, payload.data(), payload.size());
  flush(conn);
}

void FrameServer::send_and_close(Conn& conn, FrameType type, const std::string& payload) {
  conn.close_after_flush = true;
  send(conn, type, payload);
}

void FrameServer::hold_reads(const std::function<bool(std::uint64_t serial)>& which) {
  for (auto& [serial, conn] : conns_) {
    if (!which(serial)) continue;
    conn.held = true;
    update_interest(conn);
  }
}

void FrameServer::flush(Conn& conn) {
  {
    const std::lock_guard<std::mutex> lock(conn.outbox->mutex);
    if (!conn.outbox->data.empty()) {
      conn.backlog.insert(conn.backlog.end(), conn.outbox->data.begin(), conn.outbox->data.end());
      conn.outbox->data.clear();
    }
  }
  while (conn.backlog_pos < conn.backlog.size()) {
    const ssize_t put = write_some(conn.fd.get(), conn.backlog.data() + conn.backlog_pos,
                                   conn.backlog.size() - conn.backlog_pos);
    if (put < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close(conn.serial);  // EPIPE/ECONNRESET: peer is gone
      return;
    }
    conn.backlog_pos += static_cast<std::size_t>(put);
  }
  if (conn.backlog_pos == conn.backlog.size()) {
    conn.backlog.clear();
    conn.backlog_pos = 0;
    if (conn.close_after_flush) {
      close(conn.serial);
      return;
    }
  }
  const std::size_t queued = conn.backlog.size() - conn.backlog_pos;
  if (conn.read_paused && queued < kOutboxLowWater) {
    conn.read_paused = false;
  } else if (!conn.read_paused && queued > kOutboxHighWater) {
    conn.read_paused = true;
  }
  update_interest(conn);
}

void FrameServer::flush_all() {
  std::vector<std::uint64_t> serials;
  serials.reserve(conns_.size());
  for (const auto& [serial, conn] : conns_) serials.push_back(serial);
  for (const std::uint64_t serial : serials) {
    if (Conn* conn = find(serial)) flush(*conn);
  }
}

bool FrameServer::flushed() const {
  for (const auto& [serial, conn] : conns_) {
    if (conn.backlog_pos < conn.backlog.size()) return false;
  }
  return true;
}

void FrameServer::update_interest(Conn& conn) {
  unsigned interest = 0;
  if (!conn.read_paused && !conn.held && !conn.close_after_flush) interest |= kEventRead;
  if (conn.backlog_pos < conn.backlog.size()) interest |= kEventWrite;
  (void)loop_.modify(conn.fd.get(), interest);
}

void FrameServer::close(std::uint64_t serial) {
  const auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  loop_.remove(it->second.fd.get());
  conns_.erase(it);
  on_close_(serial);
}

void FrameServer::drop_after_fork() {
  listener_.reset();
  conns_.clear();
}

}  // namespace locpriv::net
