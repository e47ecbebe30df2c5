#ifndef SILKMOTH_CORE_QUERY_SCRATCH_H_
#define SILKMOTH_CORE_QUERY_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "filter/check_filter.h"

namespace silkmoth {

/// Reusable per-thread scratch space for one search pass.
///
/// The filter hot loops need two transient maps per query: set id → candidate
/// accumulator (candidate selection, Algorithm 1) and element id → visited
/// flag (NN search, Section 5.2). Hash maps pay a hash + probe per posting
/// and a fresh allocation per query; this scratch replaces both with dense
/// arrays stamped by a monotonically increasing epoch, so "clearing" between
/// queries is one counter increment and a slot is live only when its stamp
/// equals the current epoch. Arrays grow to the collection's set count (and
/// the largest probed set's element count) once and are reused for every
/// subsequent reference — discovery keeps one scratch per worker thread.
///
/// Not thread-safe; use one instance per thread.
struct QueryScratch {
  // --- Candidate accumulation (check filter) -------------------------------
  std::vector<uint64_t> set_epoch;     ///< Stamp per set id.
  std::vector<Candidate> set_cand;     ///< Accumulator slot per set id.
  std::vector<uint8_t> set_size_ok;    ///< Size-bound verdict per set id.
  std::vector<uint32_t> touched_sets;  ///< Set ids touched this query.
  uint64_t query_epoch = 0;

  // --- NN-search visited marks ---------------------------------------------
  std::vector<uint64_t> elem_epoch;  ///< Stamp per element id of probed set.
  uint64_t nn_epoch = 0;

  /// Starts a new query.
  void BeginQuery() {
    ++query_epoch;
    touched_sets.clear();
  }

  /// Marks `set_id` live for this query. Returns true on the first touch,
  /// when the caller must initialize the slot. Slot arrays grow lazily and
  /// geometrically up to the largest touched set id, so a one-shot scratch
  /// on a selective query never pays for the whole collection, and a
  /// persistent scratch reaches its steady-state size after a few queries.
  bool TouchSet(uint32_t set_id) {
    if (set_id >= set_epoch.size()) {
      const size_t n =
          std::max(set_epoch.size() * 2, static_cast<size_t>(set_id) + 1);
      set_epoch.resize(n, 0);
      set_cand.resize(n);
      set_size_ok.resize(n, 0);
    }
    if (set_epoch[set_id] == query_epoch) return false;
    set_epoch[set_id] = query_epoch;
    touched_sets.push_back(set_id);
    return true;
  }

  /// Starts a new NN search against a set of `num_elems` elements.
  void BeginNnSearch(size_t num_elems) {
    ++nn_epoch;
    if (elem_epoch.size() < num_elems) elem_epoch.resize(num_elems, 0);
  }

  /// Marks `elem_id` visited. Returns true on the first visit.
  bool VisitElem(uint32_t elem_id) {
    if (elem_epoch[elem_id] == nn_epoch) return false;
    elem_epoch[elem_id] = nn_epoch;
    return true;
  }

  /// Releases grossly oversized buffers. A long-lived scratch (e.g. the
  /// per-thread one behind SearchAcrossShards) grows to the largest collection
  /// it has ever served; when the collections being queried are much
  /// smaller, this re-allocates the arrays down so one huge query does not
  /// pin its memory for the thread's lifetime. Shrinking only happens after
  /// `kShrinkPatience` consecutive undersized queries (any query near the
  /// current size resets the vote), so a thread alternating between a large
  /// and a small collection does not thrash realloc+regrow on every call.
  /// Epochs keep counting — fresh zero stamps are always stale.
  void ShrinkTo(size_t num_sets) {
    constexpr size_t kFloorSlots = size_t{1} << 16;
    constexpr int kShrinkPatience = 16;
    const size_t cap = std::max(kFloorSlots, 4 * num_sets);
    if (set_epoch.size() <= cap) {
      shrink_votes_ = 0;
      return;
    }
    if (++shrink_votes_ < kShrinkPatience) return;
    shrink_votes_ = 0;
    std::vector<uint64_t>(num_sets, 0).swap(set_epoch);
    std::vector<Candidate>(num_sets).swap(set_cand);
    std::vector<uint8_t>(num_sets, 0).swap(set_size_ok);
    touched_sets.clear();
    touched_sets.shrink_to_fit();
    // elem_epoch is deliberately left alone: it is sized by the largest
    // probed set's element count (not the set universe), so it is small,
    // and judging it by a num_sets-derived cap would thrash workloads
    // whose collections legitimately contain one big set.
  }

 private:
  int shrink_votes_ = 0;  ///< Consecutive ShrinkTo calls wanting a shrink.
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_QUERY_SCRATCH_H_
