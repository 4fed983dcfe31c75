#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace speedbal {

/// First-in first-out queue of small value types in one contiguous ring.
/// The ring starts empty (no allocation), doubles when full, and never
/// shrinks, so a queue that has reached its high-water mark pushes and pops
/// without touching the allocator — std::deque allocates and frees a node
/// block every few hundred bytes of throughput. `pop_front` and `clear` do
/// not destroy elements: slots are overwritten by later pushes, which suits
/// the trivially copyable records (requests, deliveries) it holds.
template <class T>
class Fifo {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const T& operator*() const { return q_->at(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    friend class Fifo;
    const_iterator(const Fifo* q, std::size_t i) : q_(q), i_(i) {}
    const Fifo* q_ = nullptr;
    std::size_t i_ = 0;
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return ring_.size(); }

  /// Oldest element; the queue must not be empty.
  const T& front() const { return ring_[head_]; }

  void push_back(T v) {
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Drop the oldest element; the queue must not be empty.
  void pop_front() {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }

  /// Empty the queue, keeping its capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Oldest to newest.
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  /// The i-th oldest element.
  const T& at(std::size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  /// Double the ring (capacity stays a power of two, so wrapping is a
  /// mask), unrolling the live elements to the front of the new one.
  void grow() {
    std::vector<T> next(ring_.empty() ? kInitialCapacity : 2 * ring_.size());
    const std::size_t mask = ring_.size() - 1;
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(ring_[(head_ + i) & mask]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace speedbal
