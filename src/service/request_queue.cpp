#include "service/request_queue.h"

#include <stdexcept>

namespace locpriv::service {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("RequestQueue: capacity must be >= 1");
}

bool RequestQueue::try_push(Request r) {
  {
    std::lock_guard lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(r));
  }
  not_empty_.notify_one();
  return true;
}

std::optional<Request> RequestQueue::pop() {
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
  if (items_.empty()) return std::nullopt;  // closed and drained
  Request r = std::move(items_.front());
  items_.pop_front();
  return r;
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

std::size_t RequestQueue::size() const {
  std::lock_guard lock(mutex_);
  return items_.size();
}

}  // namespace locpriv::service
