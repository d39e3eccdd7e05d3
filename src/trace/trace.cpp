#include "trace/trace.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace locpriv::trace {

Trace::Trace(std::string user_id, std::vector<Event> events) : user_id_(std::move(user_id)) {
  // Stable sort by time via an index permutation, then gather into the
  // columns — preserves the relative order of simultaneous reports
  // exactly like the old std::stable_sort over the Event vector.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return events[a].time < events[b].time;
  });
  xs_own_.reserve(events.size());
  ys_own_.reserve(events.size());
  times_own_.reserve(events.size());
  for (const std::size_t i : order) {
    xs_own_.push_back(events[i].location.x);
    ys_own_.push_back(events[i].location.y);
    times_own_.push_back(events[i].time);
  }
}

Trace::Trace(std::shared_ptr<const TraceStore> store, std::uint32_t user)
    : store_(std::move(store)), user_(user) {
  if (store_ == nullptr) throw std::invalid_argument("Trace: null store");
  if (user >= store_->user_count()) throw std::invalid_argument("Trace: user index out of range");
}

void Trace::detach() {
  if (store_ == nullptr) return;
  user_id_ = store_->user_id(user_);
  const std::span<const double> sx = store_->xs(user_);
  const std::span<const double> sy = store_->ys(user_);
  const std::span<const Timestamp> st = store_->times(user_);
  xs_own_.assign(sx.begin(), sx.end());
  ys_own_.assign(sy.begin(), sy.end());
  times_own_.assign(st.begin(), st.end());
  store_.reset();
  user_ = 0;
}

void Trace::set_user_id(std::string id) {
  detach();
  user_id_ = std::move(id);
}

void Trace::reserve(std::size_t n) {
  detach();
  xs_own_.reserve(n);
  ys_own_.reserve(n);
  times_own_.reserve(n);
}

void Trace::append(Event e) {
  detach();
  if (!times_own_.empty() && e.time < times_own_.back()) {
    throw std::invalid_argument("Trace::append: event is older than the trace tail");
  }
  xs_own_.push_back(e.location.x);
  ys_own_.push_back(e.location.y);
  times_own_.push_back(e.time);
}

void Trace::insert(Event e) {
  detach();
  const auto pos = std::upper_bound(times_own_.begin(), times_own_.end(), e.time);
  const std::size_t i = static_cast<std::size_t>(pos - times_own_.begin());
  times_own_.insert(pos, e.time);
  xs_own_.insert(xs_own_.begin() + static_cast<std::ptrdiff_t>(i), e.location.x);
  ys_own_.insert(ys_own_.begin() + static_cast<std::ptrdiff_t>(i), e.location.y);
}

Timestamp Trace::duration() const {
  const std::span<const Timestamp> st = times();
  return st.size() < 2 ? 0 : st.back() - st.front();
}

geo::BoundingBox Trace::bounds() const {
  const std::span<const double> sx = xs();
  const std::span<const double> sy = ys();
  geo::BoundingBox box;
  for (std::size_t i = 0; i < sx.size(); ++i) box.extend({sx[i], sy[i]});
  return box;
}

Trace Trace::between(Timestamp t0, Timestamp t1) const {
  Trace out(user_id());
  const std::span<const double> sx = xs();
  const std::span<const double> sy = ys();
  const std::span<const Timestamp> st = times();
  // The columns are time-sorted: the kept events form one contiguous run.
  const auto first = std::lower_bound(st.begin(), st.end(), t0);
  const auto last = std::upper_bound(first, st.end(), t1);
  const std::size_t b = static_cast<std::size_t>(first - st.begin());
  const std::size_t e = static_cast<std::size_t>(last - st.begin());
  out.xs_own_.assign(sx.begin() + b, sx.begin() + e);
  out.ys_own_.assign(sy.begin() + b, sy.begin() + e);
  out.times_own_.assign(st.begin() + b, st.begin() + e);
  return out;
}

bool operator==(const Trace& a, const Trace& b) {
  if (a.user_id() != b.user_id() || a.size() != b.size()) return false;
  const std::span<const double> ax = a.xs(), bx = b.xs();
  const std::span<const double> ay = a.ys(), by = b.ys();
  const std::span<const Timestamp> at = a.times(), bt = b.times();
  for (std::size_t i = 0; i < ax.size(); ++i) {
    if (at[i] != bt[i] || ax[i] != bx[i] || ay[i] != by[i]) return false;
  }
  return true;
}

}  // namespace locpriv::trace
