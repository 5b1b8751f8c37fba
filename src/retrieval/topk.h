#ifndef HMMM_RETRIEVAL_TOPK_H_
#define HMMM_RETRIEVAL_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace hmmm {

/// Bounded best-K accumulator over any "better than" order: a binary
/// heap with the *worst* retained element at the front so an insertion
/// beyond capacity evicts it. `Better` must be a strict TOTAL order for
/// deterministic contents (the traversal's orders break score ties by a
/// unique generation / video-order index, which makes the retained set
/// byte-identical to a stable sort of every candidate).
///
/// Push on a full heap first compares against the current worst: a loser
/// is rejected with that single comparison, and a winner overwrites the
/// front and sifts down in one pass (~log K comparisons) instead of the
/// former pop_heap + push_heap round trip (~2 log K, which re-compared
/// the new element against the evictee it had already beaten).
template <typename T, typename Better>
class TopKHeap {
 public:
  explicit TopKHeap(size_t capacity, Better better = Better())
      : capacity_(capacity), better_(std::move(better)) {}

  void Push(T item) {
    if (entries_.size() == capacity_) {
      // Full: the front holds the worst retained element, so anything
      // not beating it would be pushed and immediately popped — reject
      // on this one comparison alone.
      if (!better_(item, entries_.front())) return;
      ReplaceTop(std::move(item));
      return;
    }
    entries_.push_back(std::move(item));
    std::push_heap(entries_.begin(), entries_.end(), better_);
  }

  bool full() const { return entries_.size() == capacity_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// The worst retained element; only meaningful when non-empty.
  const T& worst() const { return entries_.front(); }

  std::vector<T>& entries() { return entries_; }
  const std::vector<T>& entries() const { return entries_; }

 private:
  /// Overwrites the front (the worst element) with `item` and restores
  /// the heap property with a single root-to-leaf sift-down.
  void ReplaceTop(T item) {
    const size_t n = entries_.size();
    size_t hole = 0;
    while (true) {
      size_t child = 2 * hole + 1;
      if (child >= n) break;
      const size_t right = child + 1;
      // Descend toward the WORSE child: the root slot must end up
      // holding the worst element of every triple on the path.
      if (right < n && better_(entries_[child], entries_[right])) {
        child = right;
      }
      if (!better_(item, entries_[child])) break;
      entries_[hole] = std::move(entries_[child]);
      hole = child;
    }
    entries_[hole] = std::move(item);
  }

  size_t capacity_;
  Better better_;
  std::vector<T> entries_;
};

}  // namespace hmmm

#endif  // HMMM_RETRIEVAL_TOPK_H_
