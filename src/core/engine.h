#ifndef SILKMOTH_CORE_ENGINE_H_
#define SILKMOTH_CORE_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/reference_block.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

/// The SilkMoth reproduction: engines, search pass, signature schemes,
/// filters, maximum-matching verification, and the supporting text, index,
/// and data-generation utilities.
namespace silkmoth {

/// One related pair found in discovery mode.
struct PairMatch {
  uint32_t ref_id = 0;          ///< Index into the reference collection.
  uint32_t set_id = 0;          ///< Index into the indexed collection.
  double matching_score = 0.0;  ///< |R ∩̃φα S|.
  double relatedness = 0.0;     ///< similar() or contain() value.

  /// Structural equality (ids and exact scores).
  friend bool operator==(const PairMatch&, const PairMatch&) = default;
};

/// Canonical discovery output order: ascending (ref_id, set_id). Every
/// discovery path (in-process, shard runner, serve, delta replay) sorts
/// with this, which is what makes their outputs comparable byte-for-byte.
inline bool PairMatchIdLess(const PairMatch& a, const PairMatch& b) {
  if (a.ref_id != b.ref_id) return a.ref_id < b.ref_id;
  return a.set_id < b.set_id;
}

/// True when a self-join under `metric` reports each unordered pair once
/// (keeping ref_id < set_id): the symmetric SET-SIMILARITY case.
/// SET-CONTAINMENT is asymmetric, so both directions are evaluated. Shared
/// by every discovery implementation so the pair semantics cannot diverge.
inline bool SelfJoinReportsUnorderedPairs(Relatedness metric) {
  return metric == Relatedness::kSimilarity;
}

/// The SilkMoth engine (Section 3's framework).
///
/// Construction partitions `data` into Options::num_shards contiguous
/// set-id ranges (ComputeShardRanges, the same partition the snapshot
/// builder uses) and builds one inverted index per range; every search
/// pass afterwards reuses them. The default is one shard: a single index
/// over the whole collection. Search only needs an index over the candidate
/// universe, so the collection splits exactly: a reference is streamed
/// through every shard's index and the per-shard matches are unioned. The
/// shard ranges are disjoint and ascending, and verification only ever
/// looks at the (reference, set) records, so every query returns the same
/// result, scores included, at every shard count.
///
/// Every query runs through the shard drivers: Search and SearchTopK
/// through SearchAcrossShards (core/search_pass.h), Discover and
/// DiscoverSelf through DiscoverAcrossShards (core/sharded_engine.h). The
/// SearchStats these methods fill is the sum over all shards; callers that
/// want the per-shard funnel call the drivers themselves with shards() and
/// a ShardedSearchStats.
///
/// The engine holds a pointer to `data`, which must outlive it; the
/// collection and the indexes are immutable after construction, so all
/// query methods are const and thread-safe.
///
/// Usage:
///   Collection data = ...;                       // via datagen builders
///   Options opt;
///   opt.metric = Relatedness::kContainment;
///   opt.delta = 0.7;
///   SilkMoth engine(&data, opt);
///   auto matches = engine.Search(reference_set); // RELATED SET SEARCH
///   auto pairs = engine.DiscoverSelf();          // RELATED SET DISCOVERY
class SilkMoth {
 public:
  /// `data` must outlive the engine. Options are validated eagerly: invalid
  /// options are reported through ok()/error() and queries return empty.
  /// Shard indexes are built in parallel (up to options.num_threads
  /// builders). num_shards may exceed the set count; trailing shards are
  /// then empty and answer every query with no matches.
  SilkMoth(const Collection* data, Options options);

  /// True when construction validated the options; queries on a not-ok
  /// engine return empty results.
  bool ok() const { return error_.empty(); }
  /// Human-readable validation error ("" when ok()).
  const std::string& error() const { return error_; }
  /// The validated engine configuration.
  const Options& options() const { return options_; }
  /// Shard 0's index — at num_shards == 1 (the default), the index over
  /// the whole collection. An empty index when the engine is not ok().
  const InvertedIndex& index() const;
  /// The engine's shards in set-id order, one per Options::num_shards
  /// (none when the engine is not ok()): each a contiguous set-id range
  /// plus the index built over it. The views point into this engine and
  /// are valid for its lifetime.
  std::span<const ShardView> shards() const { return shards_; }
  /// The indexed collection (owned by the caller).
  const Collection& data() const { return *data_; }

  /// RELATED SET SEARCH (Problem 2): all sets related to `ref`, sorted by
  /// set id. The reference must be tokenized against the data collection's
  /// dictionary.
  std::vector<SearchMatch> Search(const SetRecord& ref,
                                  SearchStats* stats = nullptr) const;

  /// Extension: the k most related sets among those with relatedness >=
  /// options().delta, ordered by descending relatedness (ties broken by
  /// ascending set id). Output-identical to selecting the k best from the
  /// full Search result, but each shard's pass runs in top-k mode: a
  /// running heap of the shard's k best feeds its k-th-best score back
  /// into verification as a floating floor, so candidates provably outside
  /// the top k are dropped without a matching solve (`heap_floor_rejects`
  /// counts them). With several shards, `results` counts every shard's
  /// kept matches and so can exceed k.
  std::vector<SearchMatch> SearchTopK(const SetRecord& ref, size_t k,
                                      SearchStats* stats = nullptr) const;

  /// RELATED SET DISCOVERY (Problem 1) across two collections: one search
  /// pass per (reference set, shard). Results sorted by (ref_id, set_id).
  std::vector<PairMatch> Discover(const Collection& refs,
                                  SearchStats* stats = nullptr) const;

  /// Block-granular discovery: streams exactly the references `block`
  /// selects — a self-join sub-range of the indexed collection or an
  /// external query collection tokenized against its dictionary (see
  /// core/reference_block.h). The full-collection self-join block is
  /// byte-identical to DiscoverSelf; external blocks additionally stamp
  /// the query_sets/oov_tokens counters once per non-empty shard.
  /// Self-join blocks must view this engine's own data collection.
  std::vector<PairMatch> Discover(const ReferenceBlock& block,
                                  SearchStats* stats = nullptr) const;

  /// Discovery within the indexed collection itself (R = S, the paper's
  /// string/schema matching setup). Self-pairs are skipped; under
  /// SET-SIMILARITY each unordered pair is reported once (ref_id < set_id);
  /// under SET-CONTAINMENT both directions are evaluated because the metric
  /// is asymmetric.
  std::vector<PairMatch> DiscoverSelf(SearchStats* stats = nullptr) const;

 private:
  const Collection* data_;
  Options options_;
  // shards_[s].index points at indexes_[s]. A move keeps both vectors'
  // buffers in place, so the views stay valid; copying is impossible
  // (InvertedIndex is move-only).
  std::vector<InvertedIndex> indexes_;
  std::vector<ShardView> shards_;
  std::string error_;
};

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_ENGINE_H_
