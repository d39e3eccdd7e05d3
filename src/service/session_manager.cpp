#include "service/session_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service/telemetry.h"

namespace locpriv::service {

SessionManager::SessionManager(SessionManagerConfig cfg, SessionFactory factory,
                               Telemetry* telemetry)
    : cfg_(cfg), factory_(std::move(factory)), telemetry_(telemetry) {
  if (cfg_.shard_count == 0) {
    throw std::invalid_argument("SessionManager: shard_count must be >= 1");
  }
  if (!factory_) throw std::invalid_argument("SessionManager: factory must be callable");
  shards_.reserve(cfg_.shard_count);
  for (std::size_t i = 0; i < cfg_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void SessionManager::set_factory(SessionFactory factory) {
  if (!factory) throw std::invalid_argument("SessionManager: factory must be callable");
  std::lock_guard lock(factory_mutex_);
  factory_ = std::move(factory);
}

SessionManager::Shard& SessionManager::shard_for(std::string_view user_id) {
  return *shards_[stable_hash64(user_id) % shards_.size()];
}

void SessionManager::evict_due(Shard& shard, trace::Timestamp now) {
  if (cfg_.idle_timeout_s > 0) {
    while (!shard.lru.empty()) {
      const auto it = shard.sessions.find(shard.lru.back());
      if (it->second.last_active + cfg_.idle_timeout_s > now) break;
      shard.lru.pop_back();
      shard.sessions.erase(it);
      if (telemetry_ != nullptr) telemetry_->add(Count::sessions_evicted_idle);
    }
  }
  if (cfg_.max_sessions_per_shard > 0) {
    while (shard.sessions.size() > cfg_.max_sessions_per_shard) {
      shard.sessions.erase(shard.lru.back());
      shard.lru.pop_back();
      if (telemetry_ != nullptr) telemetry_->add(Count::sessions_evicted_lru);
    }
  }
}

SessionManager::LockedSession SessionManager::acquire(const std::string& user_id,
                                                      trace::Timestamp now) {
  Shard& shard = shard_for(user_id);
  std::unique_lock lock(shard.mutex);

  auto it = shard.sessions.find(user_id);
  if (it == shard.sessions.end()) {
    Entry entry;
    {
      std::lock_guard factory_lock(factory_mutex_);
      entry.session = factory_(user_id);
    }
    shard.lru.push_front(user_id);
    entry.lru_pos = shard.lru.begin();
    it = shard.sessions.emplace(user_id, std::move(entry)).first;
    if (telemetry_ != nullptr) telemetry_->add(Count::sessions_created);
  } else if (it->second.lru_pos != shard.lru.begin()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  }
  // Sanitize backwards clocks against the user's own history (see the
  // acquire() contract in the header).
  const trace::Timestamp mono = std::max(now, it->second.last_active);
  const bool clamped = mono != now;
  it->second.last_active = mono;

  // The current user sits at the LRU front, so eviction (which eats from
  // the back) can never destroy the session being handed out.
  evict_due(shard, mono);
  return LockedSession(std::move(lock), it->second.session.get(), mono, clamped);
}

std::size_t SessionManager::session_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->sessions.size();
  }
  return n;
}

}  // namespace locpriv::service
