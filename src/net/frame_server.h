// Non-blocking framed connections on one event loop: the listener and
// its accept loop, per-connection frame parsing, outbound queueing with
// read-pause backpressure, and close-after-flush. Both gateway
// endpoints — a shard and the shard supervisor — run one FrameServer
// and differ only in what they do with a frame.
//
// Threading contract: every method runs on the loop thread. The one
// exception is Outbox::push, which any thread may call (then wake() the
// loop); the loop moves outbox bytes into the connection's backlog on
// its next flush, so frames from other threads and from the loop keep
// the order in which they were pushed.
//
// Backpressure: a connection whose queued bytes exceed the high-water
// mark (1 MiB) stops being read until they drain below the low-water
// mark (256 KiB) — a slow reader throttles itself, never the server.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/socket.h"

namespace locpriv::net {

class FrameServer {
 public:
  /// Thread-crossing byte buffer of one connection; see file comment.
  struct Outbox {
    std::mutex mutex;
    std::vector<std::uint8_t> data;

    /// Encodes one frame into the buffer. Thread-safe.
    void push(FrameType type, const void* payload, std::size_t len);
  };

  /// One connection. Handlers may read `serial` and share `outbox`; the
  /// rest is the server's loop-thread state.
  struct Conn {
    std::uint64_t serial = 0;
    std::shared_ptr<Outbox> outbox = std::make_shared<Outbox>();
    Fd fd;
    FrameReader reader;
    /// Bytes taken from the outbox, not yet accepted by the socket.
    std::vector<std::uint8_t> backlog;
    std::size_t backlog_pos = 0;
    bool read_paused = false;  ///< over the water mark
    bool held = false;         ///< hold_reads(): not read again
    bool close_after_flush = false;
  };

  /// Called for every complete inbound frame. The handler may send on
  /// `conn`; once a send has closed it (a dead peer), `conn` is gone.
  using FrameHandler = std::function<void(Conn& conn, const Frame& frame)>;
  /// Called after a connection closed, for any reason.
  using CloseHandler = std::function<void(std::uint64_t serial)>;

  FrameServer(EventLoop& loop, FrameHandler on_frame, CloseHandler on_close);

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds and listens on `ep`, accepting every pending connection on
  /// each readiness event. False with *err set on failure.
  [[nodiscard]] bool listen(const Endpoint& ep, std::string* err);

  /// Takes the listener out of the loop; its socket stays open, so late
  /// connects wait in the backlog until the process exits.
  void stop_accepting();

  /// Serves an already-connected socket (e.g. a socketpair end) like an
  /// accepted one. Returns its serial, or 0 if the loop rejected it.
  std::uint64_t adopt(Fd fd);

  /// Queues one frame on `conn` and writes what the socket takes.
  void send(Conn& conn, FrameType type, const std::string& payload);
  /// As send(), then stops reading `conn` and closes it once flushed.
  void send_and_close(Conn& conn, FrameType type, const std::string& payload);

  /// Stops reading every connection whose serial `which` selects, for
  /// the rest of its life; backpressure never resumes it.
  void hold_reads(const std::function<bool(std::uint64_t serial)>& which);

  /// Moves every outbox into its backlog and writes what sockets take.
  void flush_all();
  /// True when no connection has unwritten backlog.
  [[nodiscard]] bool flushed() const;

  [[nodiscard]] Conn* find(std::uint64_t serial);
  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

  /// For a forked child that inherited this server: closes the listener
  /// and every connection fd without touching the loop. The epoll
  /// instance is shared with the parent across fork(), so unregistering
  /// here would unregister the parent's sockets.
  void drop_after_fork();

 private:
  void accept_ready();
  std::uint64_t add(Fd fd);
  void on_event(std::uint64_t serial, unsigned events);
  void read(Conn& conn);
  void flush(Conn& conn);
  void update_interest(Conn& conn);
  void close(std::uint64_t serial);

  EventLoop& loop_;
  FrameHandler on_frame_;
  CloseHandler on_close_;
  Fd listener_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace locpriv::net
