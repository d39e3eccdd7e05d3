// Blocking framed client: one Connection per socket, and a ShardClient
// that discovers the shard layout from the supervisor and routes users
// to shards with the same stable hash the service uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/fd.h"
#include "net/frame.h"
#include "net/socket.h"

namespace locpriv::net {

/// One blocking framed connection. Not thread-safe; a connection is
/// owned by one client thread. Pipelining is the caller's business:
/// send() any number of frames, then recv() answers (correlated by tag,
/// not order).
class Connection {
 public:
  Connection() = default;

  /// Blocking connect. False with error() set on failure.
  [[nodiscard]] bool connect(const Endpoint& ep);

  /// Adopts an already-connected fd (e.g. from a socketpair).
  void adopt(Fd fd) { fd_ = std::move(fd); }

  [[nodiscard]] bool send(FrameType type, const void* payload, std::size_t len);
  [[nodiscard]] bool send(FrameType type, const std::string& payload) {
    return send(type, payload.data(), payload.size());
  }
  [[nodiscard]] bool send_submit(const SubmitPayload& p);

  /// Blocking read of the next frame. False on EOF or error (error()
  /// distinguishes: EOF leaves error() empty-handed with eof() true).
  [[nodiscard]] bool recv(Frame& out);

  /// send + recv, expecting one reply of `expect` (a kError reply is
  /// reported as a failure with its message). Only valid when no other
  /// replies are pending on this connection.
  [[nodiscard]] bool request(FrameType type, const std::string& payload, FrameType expect,
                             std::string& reply);

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool eof() const { return eof_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::vector<std::uint8_t> scratch_;
  std::string error_;
  bool eof_ = false;
};

/// The shard layout a supervisor advertises: how many shards and where
/// each one listens.
struct ShardMap {
  std::size_t shards = 0;
  std::vector<Endpoint> endpoints;

  /// Which shard serves `user` — the routing function, shared verbatim
  /// with the service side.
  [[nodiscard]] std::size_t shard_of(const std::string& user) const;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<ShardMap> from_json(const std::string& text,
                                                         std::string* err);
};

/// Convenience client for CLI tools and tests: fetches the shard map
/// from the supervisor, opens one connection per shard, and routes
/// submits. Not thread-safe; benchmark threads each own their own.
class ShardClient {
 public:
  /// Connects to the supervisor, fetches the shard map, and connects to
  /// every shard. False with error() set on failure.
  [[nodiscard]] bool connect(const Endpoint& supervisor);

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] Connection& supervisor() { return supervisor_; }
  [[nodiscard]] Connection& shard(std::size_t k) { return shards_[k]; }
  [[nodiscard]] std::size_t shard_of(const std::string& user) const { return map_.shard_of(user); }

  /// Routes one report to the owning shard.
  [[nodiscard]] bool submit(const std::string& user, const trace::Event& event, std::uint64_t tag);

  /// Blocking read of the next answer from shard `k`.
  [[nodiscard]] bool recv_answer(std::size_t k, AnswerPayload& out);

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  Connection supervisor_;
  std::vector<Connection> shards_;
  ShardMap map_;
  std::string error_;
};

}  // namespace locpriv::net
