// Bounded MPMC queue of protection requests — the backpressure point of
// the serving gateway.
//
// The queue never blocks producers: when full, try_push refuses and the
// gateway answers the report with a suppression instead of letting the
// backlog (and memory) grow without bound. Consumers block in pop()
// until an item arrives or the queue is closed and drained.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "trace/event.h"

namespace locpriv::service {

/// One location report travelling through the gateway. `seq` is the
/// global submission sequence number, assigned by the gateway; within a
/// user it is strictly increasing, which is what the per-user ordering
/// guarantee is stated in terms of.
struct Request {
  std::string user_id;
  trace::Event event;
  std::uint64_t seq = 0;
  /// Tracer timestamp at enqueue (obs::Tracer::now_ns). Zero when
  /// tracing is off; the worker span uses it to attribute queue wait.
  std::uint64_t enqueue_ns = 0;
  /// Opaque caller correlator, echoed back on the ProtectedReport. The
  /// network front end stores a connection handle here so an answer can
  /// find its way back to the socket that submitted the report.
  std::uint64_t cookie = 0;
};

/// Bounded multi-producer/multi-consumer FIFO.
class RequestQueue {
 public:
  /// Requires capacity >= 1.
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues unless the queue is full or closed; returns whether it did.
  /// Never blocks — refusal is the backpressure signal.
  [[nodiscard]] bool try_push(Request r);

  /// Dequeues the oldest request, blocking while the queue is empty and
  /// open. Returns nullopt only after close() once every item has been
  /// drained, so no accepted request is ever lost.
  [[nodiscard]] std::optional<Request> pop();

  /// Refuses new pushes and wakes blocked consumers. Idempotent.
  void close();

  [[nodiscard]] std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<Request> items_;
  bool closed_ = false;
};

}  // namespace locpriv::service
