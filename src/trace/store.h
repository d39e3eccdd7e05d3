// Columnar trace arena: the structure-of-arrays backing of a Dataset.
//
// A TraceStore holds every event of a dataset in three contiguous
// columns (x, y, timestamp) plus a 32-bit CSR offsets array delimiting
// each user's span — the same idiom as geo::GridIndex. Traces over an
// arena are cheap views (a shared_ptr to the store plus a user index);
// the columns themselves may live on the heap or inside a read-only
// memory mapping of the binary dataset format (see store_io.h), which
// is how sweeps and the sharded service stream actuals from disk
// without per-process copies.
//
// A store is immutable after construction. Views therefore never
// dangle: the column pointers are fixed for the store's lifetime, and
// every view keeps the store (and through it, any file mapping) alive.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/event.h"

namespace locpriv::trace {

class Dataset;

/// Immutable columnar arena for one dataset. Invariants, established at
/// construction: offsets has user_count()+1 entries, starts at 0, is
/// nondecreasing and ends at event_count(); every user's timestamp span
/// is nondecreasing; user ids are unique and in dataset order.
class TraceStore {
 public:
  /// Heap-owned store from prebuilt columns. Throws std::invalid_argument
  /// when an invariant fails.
  TraceStore(std::vector<std::string> user_ids, std::vector<std::uint32_t> offsets,
             std::vector<double> xs, std::vector<double> ys, std::vector<Timestamp> times);

  /// Borrowed-column store: the pointers reference memory owned by
  /// `backing` (a file mapping or a raw load buffer), which the store
  /// keeps alive. `validate` re-checks the CSR and time-order invariants
  /// (loaders that already verified a checksummed file may skip it).
  TraceStore(std::vector<std::string> user_ids, const std::uint32_t* offsets, const double* xs,
             const double* ys, const Timestamp* times, std::size_t event_count,
             std::shared_ptr<const void> backing, bool validate);

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Builds an arena from a (row-major) dataset, copying every trace's
  /// events into the columns in dataset order. Throws when the dataset
  /// exceeds the 32-bit CSR capacity (~4.29 billion events).
  [[nodiscard]] static std::shared_ptr<const TraceStore> from_dataset(const Dataset& d);

  [[nodiscard]] std::size_t user_count() const { return user_ids_.size(); }
  [[nodiscard]] std::size_t event_count() const { return event_count_; }
  /// True when the columns live in borrowed memory (e.g. an mmap) rather
  /// than heap vectors owned by this store.
  [[nodiscard]] bool borrowed() const { return backing_ != nullptr; }

  [[nodiscard]] const std::string& user_id(std::size_t u) const { return user_ids_[u]; }
  [[nodiscard]] const std::vector<std::string>& user_ids() const { return user_ids_; }

  /// CSR delimiters: user u's events occupy [offsets()[u], offsets()[u+1]).
  [[nodiscard]] std::span<const std::uint32_t> offsets() const {
    return {offsets_p_, user_ids_.size() + 1};
  }
  [[nodiscard]] std::size_t count_of(std::size_t u) const {
    return offsets_p_[u + 1] - offsets_p_[u];
  }

  /// Whole-arena columns.
  [[nodiscard]] std::span<const double> xs() const { return {xs_p_, event_count_}; }
  [[nodiscard]] std::span<const double> ys() const { return {ys_p_, event_count_}; }
  [[nodiscard]] std::span<const Timestamp> times() const { return {times_p_, event_count_}; }

  /// Per-user column spans.
  [[nodiscard]] std::span<const double> xs(std::size_t u) const {
    return {xs_p_ + offsets_p_[u], count_of(u)};
  }
  [[nodiscard]] std::span<const double> ys(std::size_t u) const {
    return {ys_p_ + offsets_p_[u], count_of(u)};
  }
  [[nodiscard]] std::span<const Timestamp> times(std::size_t u) const {
    return {times_p_ + offsets_p_[u], count_of(u)};
  }

 private:
  void check_invariants() const;

  std::vector<std::string> user_ids_;
  // Owned storage (empty when the columns are borrowed from `backing_`).
  std::vector<std::uint32_t> offsets_own_;
  std::vector<double> xs_own_;
  std::vector<double> ys_own_;
  std::vector<Timestamp> times_own_;
  // Keeps a file mapping / load buffer alive for borrowed columns.
  std::shared_ptr<const void> backing_;
  // Column pointers, valid in both modes.
  const std::uint32_t* offsets_p_ = nullptr;
  const double* xs_p_ = nullptr;
  const double* ys_p_ = nullptr;
  const Timestamp* times_p_ = nullptr;
  std::size_t event_count_ = 0;
};

}  // namespace locpriv::trace
