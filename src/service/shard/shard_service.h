// The shard supervisor: forks N ShardServer worker processes, serves
// the shard map and aggregated telemetry on the main endpoint, and owns
// the service lifecycle — SIGTERM drains every shard before exit,
// SIGHUP pushes a policy reload into every shard without dropping a
// connection, and a crashed shard is reaped, re-forked and re-listens
// on its old socket so clients re-route by simply reconnecting.
//
// Process model: clients fetch the shard map from the supervisor once,
// then talk to shards DIRECTLY (endpoints are a pure function of the
// base endpoint, routing is ShardMap::shard_of — a mixed stable hash of
// the user id, the same function on both sides). The supervisor is
// never on the data path, so it cannot become a parse bottleneck.
//
// Control plane: each shard's control channel is a socketpair end on
// the supervisor's own FrameServer, so nothing here blocks on a socket.
// Telemetry, reload and drain are one fan-out (docs/NETWORK.md): a frame
// to every open channel, each reply routed to the oldest fan-out waiting
// on that shard (shards answer in order), the requester answered once
// every shard replied or closed. Telemetry and reload also stop at
// kReplyDeadline and list the missing shards under `unanswered`; drain
// waits, so every accepted report is answered exactly once.
//
// Fork safety: the supervisor stays single-threaded for its entire
// life — its event loop runs on the calling thread and it never creates
// another — so fork() (without exec) is always safe here, including
// re-forks after a shard crash. Gateway worker threads exist only in
// the children, created after the fork.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame_server.h"
#include "net/socket.h"
#include "service/gateway.h"

namespace locpriv::service::shard {

struct ShardServiceConfig {
  /// Supervisor endpoint; shard k listens at listen.shard_endpoint(k).
  net::Endpoint listen;
  std::size_t shards = 1;
  /// Per-shard gateway configuration (each shard owns a full Gateway).
  GatewayConfig gateway;
  /// Binary dataset shards map read-only. The supervisor verifies it
  /// once up front (checksum + invariants, which also warms the shared
  /// page cache); shards then map without verification.
  std::string dataset_path;
  bool audit = false;
  /// JSON file re-read on SIGHUP: {"faults": "<spec>", "objectives":
  /// "<spec>"} — absent keys keep the current value, empty strings
  /// clear. Empty path = SIGHUP pushes an empty (no-op) reload.
  std::string reload_file;
};

class ShardService {
 public:
  explicit ShardService(ShardServiceConfig cfg);
  ~ShardService();

  ShardService(const ShardService&) = delete;
  ShardService& operator=(const ShardService&) = delete;

  /// How long a telemetry or reload fan-out waits for the shards.
  static constexpr std::chrono::milliseconds kReplyDeadline{2000};

  /// Verifies the dataset, forks every shard, runs the loop until each
  /// has sent kReady, then binds the supervisor endpoint and installs
  /// signal routing (SIGTERM/SIGINT drain, SIGHUP reload, SIGCHLD
  /// restart). False with error() set on failure (already-forked shards
  /// are torn down).
  [[nodiscard]] bool start();

  /// Serves until a drain (signal or client kDrainReq) completes.
  void run();

  /// One loop iteration, waiting at most until the next fan-out
  /// deadline — the test-driver entry point.
  int run_once(int timeout_ms);

  /// Drains every shard (exactly-once per accepted report), reaps the
  /// children and stops the loop, running the loop until it is done.
  /// Idempotent; call it from outside the loop.
  void drain();

  [[nodiscard]] net::ShardMap shard_map() const;
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] pid_t shard_pid(std::size_t k) const { return procs_[k].pid; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] bool draining() const { return draining_; }

  /// Forks a child that runs the whole service (start() + run()) and
  /// never returns; the parent gets the child's pid, or -1 with *err
  /// set. Call only while single-threaded (benches and tests call this
  /// before spawning their client threads). The child _exits; it never
  /// unwinds into the caller's stack.
  [[nodiscard]] static pid_t spawn(const ShardServiceConfig& cfg, std::string* err);

 private:
  using Clock = std::chrono::steady_clock;
  /// One reply per shard; nullopt = the shard sent none.
  using Replies = std::vector<std::optional<net::Frame>>;

  /// One control frame sent to every shard whose channel is open.
  struct FanOut {
    Replies replies;
    std::size_t outstanding = 0;  ///< shards still to reply or close
    Clock::time_point deadline = Clock::time_point::max();
    std::function<void(const Replies&)> done;  ///< emptied once it ran

    /// Runs `done` once: at the deadline, or when the last shard settles.
    void finish() {
      if (done) std::exchange(done, nullptr)(replies);
    }
    /// One shard replied or closed.
    void settle() {
      if (--outstanding == 0) finish();
    }
  };

  struct ShardProc {
    pid_t pid = -1;             ///< -1 once reaped
    std::uint64_t control = 0;  ///< FrameServer serial; 0 = closed
    bool ready = false;         ///< sent kReady
    /// Fan-outs waiting on this shard's reply, oldest first.
    std::deque<std::shared_ptr<FanOut>> waiting;
  };

  [[nodiscard]] bool fork_shard(std::size_t k);
  void reap_children();
  void restart_if_gone(std::size_t k);
  void handle_signals();
  void dispatch(net::FrameServer::Conn& conn, const net::Frame& frame);
  void on_shard_frame(std::size_t k, const net::Frame& frame);
  void on_close(std::uint64_t serial);
  [[nodiscard]] std::optional<std::size_t> shard_of_serial(std::uint64_t serial) const;

  void fan_out(net::FrameType type, const std::string& payload, bool with_deadline,
               std::function<void(const Replies&)> done);
  void expire_fan_outs();

  void begin_drain();
  void finish_drain(const Replies& replies);
  /// Validates the spec, keeps it for shards forked later, and pushes
  /// it into every shard; the outcome goes to reply(requester, …).
  void reload(const std::string& spec_json, std::uint64_t requester);
  void reload_from_file();
  [[nodiscard]] std::string aggregate_telemetry(const Replies& replies) const;
  /// Sends on client `serial` if it is still connected; serial 0 (a
  /// signal asked) prints a kError to stderr instead.
  void reply(std::uint64_t serial, net::FrameType type, const std::string& payload);

  ShardServiceConfig cfg_;
  std::string error_;
  net::EventLoop loop_;
  net::FrameServer server_;  ///< clients and the shards' control channels
  std::vector<ShardProc> procs_;
  /// Fan-outs with a deadline, oldest (soonest due) first.
  std::deque<std::shared_ptr<FanOut>> timed_;
  std::vector<std::uint64_t> drain_requesters_;
  std::uint64_t restarts_ = 0;
  bool draining_ = false;
  bool started_ = false;
};

}  // namespace locpriv::service::shard
