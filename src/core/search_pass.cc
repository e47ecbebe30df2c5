#include "core/search_pass.h"

#include <algorithm>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/verifier.h"
#include "sig/scheme.h"
#include "util/timer.h"

namespace silkmoth {

namespace {

/// Top-k preference order: higher relatedness first, lower set id on ties —
/// the order SearchTopK returns and the heap evicts by. File-local on
/// purpose: a public silkmoth::IsBetterMatch(SearchMatch, SearchMatch)
/// would make unqualified calls to a same-signature helper in client code
/// ambiguous through argument-dependent lookup.
bool IsBetterMatch(const SearchMatch& a, const SearchMatch& b) {
  if (a.relatedness != b.relatedness) return a.relatedness > b.relatedness;
  return a.set_id < b.set_id;
}

}  // namespace

std::vector<SearchMatch> RunSearchPass(const SetRecord& ref,
                                       const Collection& data,
                                       const InvertedIndex& index,
                                       const Options& options,
                                       uint32_t exclude_set,
                                       SearchStats* stats,
                                       QueryScratch* scratch,
                                       SetIdRange scan_range,
                                       size_t top_k) {
  std::vector<SearchMatch> results;
  if (ref.Empty()) return results;

  // Resolve the element similarity once for the whole pass; every stage
  // below (filters, NN searches, verification) reuses this pointer.
  const ElementSimilarity* sim = GetSimilarity(options.phi);
  QueryScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;

  WallTimer timer;
  if (stats != nullptr) ++stats->references;

  // --- Signature generation (Sections 4, 6, 7). ---
  SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  const Signature sig = GenerateSignature(ref, index, params);
  if (stats != nullptr) {
    stats->signature_seconds += timer.ElapsedSeconds();
    stats->signature_tokens += sig.NumProbeTokens();
  }

  // --- Candidate selection + check filter (Algorithm 1). ---
  timer.Restart();
  std::vector<Candidate> candidates;
  const bool use_check = options.check_filter || options.nn_filter;
  if (sig.valid) {
    CheckFilterStats cstats;
    candidates = SelectAndCheckCandidates(ref, sig, data, index, options,
                                          use_check, &cstats, sim, scratch);
    if (stats != nullptr) {
      stats->initial_candidates += cstats.initial_candidates;
      stats->after_size += cstats.initial_candidates - cstats.size_filtered;
      stats->similarity_calls += cstats.similarity_calls;
    }
  } else {
    // No valid signature exists for this reference (possible for edit
    // similarity, Section 7.3): scan everything, correctness first.
    candidates = AllCandidates(ref, data, options, scan_range);
    if (stats != nullptr) {
      ++stats->fallback_scans;
      stats->initial_candidates += candidates.size();
      stats->after_size += candidates.size();
    }
  }
  if (stats != nullptr) {
    stats->after_check += candidates.size();
    stats->selection_seconds += timer.ElapsedSeconds();
  }

  // --- Nearest-neighbor filter (Algorithm 2). ---
  if (options.nn_filter && sig.valid) {
    timer.Restart();
    NnFilterStats nstats;
    candidates = NnFilterCandidates(ref, sig, std::move(candidates), data,
                                    index, options, &nstats, sim, scratch);
    if (stats != nullptr) {
      stats->similarity_calls += nstats.similarity_calls;
      stats->nn_seconds += timer.ElapsedSeconds();
    }
  }
  if (stats != nullptr) stats->after_nn += candidates.size();

  // --- Verification (Section 5.3, bound-guided). ---
  // ScoreDecision answers the θ-threshold test from a greedy lower bound and
  // a row/column-maxima upper bound; the exact Hungarian solver runs only
  // when the bounds come within `margin` of the threshold — the margin is
  // sized so a bound-settled decision can never disagree with IsRelated,
  // whose kFloatSlack applies to the relatedness *ratio* and is therefore
  // worth up to kFloatSlack·(|R|+|S|) on the matching score. Whenever an
  // exact score exists (ambiguous-band solve, or the reporting solve on a
  // bound-accept) the original IsRelated test decides, keeping results
  // bit-identical to unconditional exact verification.
  //
  // With exact_scores off, bound-accepted pairs skip the reporting solve:
  // the decision is the bound's, and the pair reports the greedy lower
  // bound as its score (counted in bound_only_scores). The *pair set* is
  // identical either way — only reported scores may understate.
  // In top-k mode `results` doubles as the k-best heap: IsBetterMatch as
  // the heap comparator keeps the *worst* kept match at the front, so the
  // front's relatedness is the running k-th-best score — the floating floor.
  timer.Restart();
  const MaxMatchingVerifier verifier(sim, options.alpha, options.reduction);
  for (const Candidate& cand : candidates) {
    if (cand.set_id == exclude_set) continue;
    const SetRecord& s = data.sets[cand.set_id];
    const double m_threshold =
        RelatedScoreThreshold(ref.Size(), s.Size(), options);
    const double margin =
        kFloatSlack * (static_cast<double>(ref.Size() + s.Size()) + 2.0);
    // Once the heap is full, translate the k-th-best relatedness into this
    // pair shape's matching-score floor. The floor only ever rises, and the
    // verifier rejects against it with the same margin discipline as θ, so
    // a floor-rejected candidate's reported relatedness would have been
    // strictly below the k-th best — it could never enter the final heap.
    const double floor_theta =
        top_k > 0 && results.size() == top_k
            ? ScoreThresholdForRelatedness(results.front().relatedness,
                                           ref.Size(), s.Size(), options)
            : -1.0;
    MatchingStats mstats;
    const VerifyDecision decision =
        verifier.ScoreDecision(ref, s, m_threshold, &mstats, margin,
                               /*need_exact_score=*/options.exact_scores,
                               floor_theta);
    if (stats != nullptr) {
      ++stats->verifications;
      stats->similarity_calls += mstats.similarity_calls;
      stats->reduced_pairs += mstats.reduced_pairs;
      stats->bound_accepts += mstats.bound_accepts;
      stats->bound_rejects += mstats.bound_rejects;
      stats->tier2_accepts += mstats.tier2_accepts;
      stats->heap_floor_rejects += mstats.floor_rejects;
      stats->exact_solves += mstats.exact_solves;
      stats->reporting_solves += mstats.reporting_solves;
    }
    const bool related =
        decision.exact ? IsRelated(decision.score, ref.Size(), s.Size(),
                                   options)
                       : decision.related;
    if (!related) continue;
    // Exact when exact_scores (accepts always solve); otherwise a
    // bound-accept reports its greedy lower bound.
    const double m = decision.exact ? decision.score : decision.lower;
    if (stats != nullptr && !decision.exact) ++stats->bound_only_scores;
    SearchMatch match;
    match.set_id = cand.set_id;
    match.matching_score = m;
    match.relatedness = RelatednessScore(m, ref.Size(), s.Size(), options);
    if (top_k == 0) {
      results.push_back(match);
    } else if (results.size() < top_k) {
      results.push_back(match);
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    } else if (IsBetterMatch(match, results.front())) {
      std::pop_heap(results.begin(), results.end(), IsBetterMatch);
      results.back() = match;
      std::push_heap(results.begin(), results.end(), IsBetterMatch);
    }
  }
  if (stats != nullptr) {
    stats->verify_seconds += timer.ElapsedSeconds();
    stats->results += results.size();
  }

  if (top_k > 0) {
    std::sort(results.begin(), results.end(), IsBetterMatch);
  } else {
    std::sort(results.begin(), results.end(),
              [](const SearchMatch& a, const SearchMatch& b) {
                return a.set_id < b.set_id;
              });
  }
  return results;
}

std::vector<SearchMatch> SearchAcrossShards(const SetRecord& ref,
                                            const Collection& data,
                                            std::span<const ShardView> shards,
                                            const Options& options,
                                            ShardedSearchStats* stats,
                                            size_t top_k) {
  // One scratch per thread, reused across calls and shards: repeated
  // searches pay the dense-array allocation once, and BeginQuery's epoch
  // bump makes cross-shard reuse exactly as safe as cross-reference reuse.
  // ShrinkTo bounds the retention when a past query against a much larger
  // collection left oversized buffers behind.
  static thread_local QueryScratch scratch;
  scratch.ShrinkTo(data.sets.size());

  std::vector<SearchMatch> results;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardView& shard = shards[s];
    if (shard.range.begin == shard.range.end) continue;  // Empty shard.
    std::vector<SearchMatch> matches = RunSearchPass(
        ref, data, *shard.index, options, kNoExclude,
        stats != nullptr ? &stats->per_shard[s] : nullptr, &scratch,
        shard.range, top_k);
    // Shard ranges are disjoint and ascending and each shard's matches are
    // sorted by set id, so appending keeps the global set-id order.
    if (results.empty()) {
      results = std::move(matches);
    } else {
      results.insert(results.end(), matches.begin(), matches.end());
    }
  }
  if (top_k > 0) {
    std::sort(results.begin(), results.end(), IsBetterMatch);
    if (results.size() > top_k) results.resize(top_k);
  }
  return results;
}

}  // namespace silkmoth
