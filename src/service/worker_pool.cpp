#include "service/worker_pool.h"

#include <stdexcept>

#include "service/session_manager.h"

namespace locpriv::service {

WorkerPool::WorkerPool(std::size_t workers, std::size_t queue_capacity, Handler handler)
    : handler_(std::move(handler)) {
  if (workers == 0) throw std::invalid_argument("WorkerPool: need at least one worker");
  if (!handler_) throw std::invalid_argument("WorkerPool: handler must be callable");
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<RequestQueue>(queue_capacity));
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] {
      while (auto r = queues_[i]->pop()) handler_(i, *r);
    });
  }
}

WorkerPool::~WorkerPool() { drain(); }

bool WorkerPool::submit(Request r) {
  RequestQueue& q = *queues_[stable_hash64(r.user_id) % queues_.size()];
  return q.try_push(std::move(r));
}

void WorkerPool::drain() {
  for (auto& q : queues_) q->close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace locpriv::service
