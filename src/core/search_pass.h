#ifndef SILKMOTH_CORE_SEARCH_PASS_H_
#define SILKMOTH_CORE_SEARCH_PASS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace silkmoth {

struct QueryScratch;

/// One related set found for a reference.
struct SearchMatch {
  uint32_t set_id = 0;          ///< Index into the indexed collection.
  double matching_score = 0.0;  ///< |R ∩̃φα S|.
  double relatedness = 0.0;     ///< similar() or contain() value.

  /// Structural equality (id and exact scores).
  friend bool operator==(const SearchMatch&, const SearchMatch&) = default;
};

/// One shard of a candidate universe as the shard drivers see it: a set-id
/// range plus the index built over it (not owned). SilkMoth::shards(), the
/// snapshot loader, the serve daemon and the delta shard all hand these to
/// SearchAcrossShards / DiscoverAcrossShards.
struct ShardView {
  SetIdRange range;                      ///< Global set ids the shard owns.
  const InvertedIndex* index = nullptr;  ///< Index over `range` (borrowed).
};

/// Sentinel for RunSearchPass's `exclude_set`: exclude nothing.
inline constexpr uint32_t kNoExclude = static_cast<uint32_t>(-1);

/// Runs one full search pass (Section 3): signature generation, candidate
/// selection + check filter, NN filter, verification. Results are sorted by
/// set id. `exclude_set` skips one set id (self-pairs in discovery mode);
/// pass kNoExclude to keep all.
///
/// The similarity for options.phi is resolved once per pass and handed to
/// every stage. `scratch` supplies the reusable epoch-stamped buffers the
/// filters run on; pass one instance per thread and reuse it across
/// references (discovery does). When null, a pass-local scratch is used.
///
/// `scan_range` is the candidate universe `index` was built over (a shard's
/// set-id range). Signature-probed candidates are already confined to it
/// because the index holds no postings outside the range; the range only
/// steers the §7.3 no-valid-signature fallback, which scans sets directly
/// instead of going through the index. The default covers everything.
///
/// `top_k`, when positive, switches the pass to top-k mode (KOIOS-style
/// early termination): verification keeps a running heap of the k best
/// matches, and once it is full the k-th-best relatedness becomes a
/// floating floor threaded into the verifier — candidates whose upper
/// bound cannot reach it are dropped (`heap_floor_rejects`) without any
/// matching bound or solve. The returned matches are exactly the k best
/// of the full result set, sorted best-first (relatedness descending, set
/// id ascending on ties) instead of by set id.
std::vector<SearchMatch> RunSearchPass(const SetRecord& ref,
                                       const Collection& data,
                                       const InvertedIndex& index,
                                       const Options& options,
                                       uint32_t exclude_set = kNoExclude,
                                       SearchStats* stats = nullptr,
                                       QueryScratch* scratch = nullptr,
                                       SetIdRange scan_range = {},
                                       size_t top_k = 0);

/// RELATED SET SEARCH over a sharded candidate universe: the one
/// per-reference driver behind SilkMoth::Search and SilkMoth::SearchTopK.
/// Runs `ref`'s pass against every non-empty shard in order, all on one
/// per-thread QueryScratch, and unions the matches. Shard ranges must be
/// disjoint and ascending. With top_k == 0 the result is sorted by set id.
/// With top_k > 0 each shard's pass keeps its own k best, and the union is
/// sorted best-first and cut to k — exact, because the global top k lies
/// inside the union of the per-shard top k. `stats`, when non-null, must
/// have per_shard.size() == shards.size(); slot i aggregates the pass
/// against shards[i], and empty shards record nothing.
std::vector<SearchMatch> SearchAcrossShards(const SetRecord& ref,
                                            const Collection& data,
                                            std::span<const ShardView> shards,
                                            const Options& options,
                                            ShardedSearchStats* stats,
                                            size_t top_k = 0);

}  // namespace silkmoth

#endif  // SILKMOTH_CORE_SEARCH_PASS_H_
