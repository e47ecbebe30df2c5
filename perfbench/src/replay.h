// Stage-by-stage replay of one search pass, timed from outside the engine.
//
// The engine's entry calls (SearchTopK, DiscoverSelf, a serve request) run
// RunSearchPass as one opaque call. The traced run replays the same
// reference through the pass's public stages in the same order and with the
// same thresholds, margins and top-k floor: GenerateSignature, then
// SelectAndCheckCandidates, then NnFilterCandidates, then the
// MaxMatchingVerifier::ScoreDecision loop. Each stage becomes a span, so a
// layer's self time is measured where its work happens. The replay must
// return the same matches and SearchStats counters as the entry call; the
// workloads check that and count a difference as a failed operation.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/options.h"
#include "core/query_scratch.h"
#include "core/search_pass.h"
#include "core/stats.h"
#include "index/inverted_index.h"
#include "text/dataset.h"

namespace perfbench {

/// The top-k preference order RunSearchPass keeps its heap in and returns
/// matches in: higher relatedness first, lower set id on ties.
inline bool IsBetterMatch(const silkmoth::SearchMatch& a,
                          const silkmoth::SearchMatch& b) {
  if (a.relatedness != b.relatedness) return a.relatedness > b.relatedness;
  return a.set_id < b.set_id;
}

/// φ evaluations split by the stage that made them; SearchStats folds both
/// into one similarity_calls counter.
struct StageCounters {
  size_t filter_similarity_calls = 0;
  size_t matching_similarity_calls = 0;
};

/// Replays RunSearchPass(ref, data, index, options, exclude_set, stats,
/// scratch, scan_range, top_k) and returns what it would return. Spans
/// ("core.pass" with sig/filter/matching children) go to `tracer` under
/// `parent` and `request`.
std::vector<silkmoth::SearchMatch> ReplaySearchPass(
    const silkmoth::SetRecord& ref, const silkmoth::Collection& data,
    const silkmoth::InvertedIndex& index, const silkmoth::Options& options,
    uint32_t exclude_set, silkmoth::SearchStats* stats,
    silkmoth::QueryScratch* scratch, silkmoth::SetIdRange scan_range,
    size_t top_k, Tracer* tracer, int64_t parent, uint64_t request,
    StageCounters* split);

/// True when every deterministic counter of `a` equals `b`'s (the phase
/// timers are ignored).
bool SameCounters(const silkmoth::SearchStats& a,
                  const silkmoth::SearchStats& b);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
