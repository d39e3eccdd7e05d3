// Worker pool of the serving gateway: W threads, each draining its own
// bounded RequestQueue.
//
// Requests are routed to queues by a stable hash of the user id, so one
// user's reports always flow through the same worker in submission
// order. That single design choice buys the two hard guarantees
// cheaply: per-user FIFO (no cross-worker reordering to repair) and
// single-threaded session access per user (budget accounting never
// races). With one worker the whole gateway degenerates to a
// deterministic sequential replay — the determinism tests pin that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "service/request_queue.h"

namespace locpriv::service {

class WorkerPool {
 public:
  /// `handler` processes one request; it is called concurrently from
  /// different workers but never concurrently for the same user. The
  /// first argument is the handling worker's index (stable per user,
  /// since routing is by user hash) — per-shard state such as the
  /// resilience circuit breakers is keyed by it.
  using Handler = std::function<void(std::size_t worker, const Request&)>;

  /// Starts `workers` threads (>= 1), each with a queue of
  /// `queue_capacity` slots.
  WorkerPool(std::size_t workers, std::size_t queue_capacity, Handler handler);

  /// Drains and joins (see drain()).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Routes to the user's worker queue. False = that queue is full (or
  /// the pool is draining): the backpressure signal, nothing was
  /// enqueued.
  [[nodiscard]] bool submit(Request r);

  /// Closes every queue, lets workers finish what was accepted, joins.
  /// Idempotent; submit() refuses afterwards. Every request accepted
  /// before drain() is handled before it returns.
  void drain();

 private:
  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::vector<std::thread> threads_;
  Handler handler_;
};

}  // namespace locpriv::service
