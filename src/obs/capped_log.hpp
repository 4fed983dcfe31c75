#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

namespace speedbal::obs {

namespace detail {
/// Placeholder kind of a log that keeps no per-kind counters.
enum class NoKind {};
template <auto Field>
struct FieldType {
  using type = NoKind;
};
template <class Record, class T, T Record::*Field>
struct FieldType<Field> {
  using type = T;
};
}  // namespace detail

/// The append-only record log behind every RunRecorder store: free-form
/// trace events, speed samples, balancer decisions, migrations, request
/// spans, run segments, and the rebalance, share and tuning epochs.
/// Internally synchronized like every other recorder member.
/// Storage is capped (`DefaultCap` records until set_cap) so a pathological
/// run cannot grow the log, or its export, unboundedly: records past the
/// cap are dropped and counted, and the oldest records survive.
///
/// The counted form names the record's outcome field (`KindField`, a
/// pointer to an enum member numbered 0..NumKinds-1) and keeps one counter
/// per outcome. Counters are bumped on every add before the cap check: the
/// cap bounds memory, not the statistics.
template <class Record, std::size_t DefaultCap, auto KindField = nullptr,
          std::size_t NumKinds = 0>
class CappedLog {
 public:
  using Kind = typename detail::FieldType<KindField>::type;

  /// Returns the record's index in snapshot() order, or -1 when the cap
  /// dropped it.
  std::int64_t add(Record rec) {
    std::lock_guard<std::mutex> lock(mu_);
    count_kind(rec);
    if (records_.size() >= cap_) {
      ++dropped_;
      return -1;
    }
    records_.push_back(std::move(rec));
    return static_cast<std::int64_t>(records_.size()) - 1;
  }

  /// Append `recs` under one lock, as recs.size() add() calls would, then
  /// count `unbuilt` more records as dropped: records their producer never
  /// built because its own cap left them out. Takes over the vector's
  /// storage when the log is empty.
  void append(std::vector<Record>&& recs, std::int64_t unbuilt)
    requires(NumKinds == 0)
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t take = std::min(room_locked(), recs.size());
    dropped_ += static_cast<std::int64_t>(recs.size() - take) + unbuilt;
    recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(take), recs.end());
    if (records_.empty())
      records_ = std::move(recs);
    else
      records_.insert(records_.end(), std::make_move_iterator(recs.begin()),
                      std::make_move_iterator(recs.end()));
  }

  std::vector<Record> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  /// The records in place, read under the log's lock for as long as the
  /// view lives: what snapshot() returns, without the copy. Adds from other
  /// threads wait meanwhile; any other call on the log from the view's own
  /// thread deadlocks, so read everything through the view.
  class Locked {
   public:
    Locked(const Locked&) = delete;
    Locked& operator=(const Locked&) = delete;
    const std::vector<Record>& operator*() const { return *records_; }
    const std::vector<Record>* operator->() const { return records_; }

   private:
    friend class CappedLog;
    Locked(std::mutex& mu, const std::vector<Record>& records)
        : lock_(mu), records_(&records) {}
    std::unique_lock<std::mutex> lock_;
    const std::vector<Record>* records_;
  };
  Locked locked() const { return Locked(mu_, records_); }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  std::int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Records the cap still lets in.
  std::size_t room() const {
    std::lock_guard<std::mutex> lock(mu_);
    return room_locked();
  }

  void set_cap(std::size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    cap_ = cap;
  }

  std::int64_t count(Kind k) const requires(NumKinds > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[static_cast<std::size_t>(k)];
  }

  std::array<std::int64_t, NumKinds> counts() const requires(NumKinds > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  std::size_t room_locked() const {
    return cap_ > records_.size() ? cap_ - records_.size() : 0;
  }

  void count_kind(const Record& rec) {
    if constexpr (NumKinds > 0)
      ++counts_[static_cast<std::size_t>(rec.*KindField)];
  }

  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::array<std::int64_t, NumKinds> counts_{};
  std::size_t cap_ = DefaultCap;
  std::int64_t dropped_ = 0;
};

}  // namespace speedbal::obs
