#include "replay.h"

#include <algorithm>

#include "core/relatedness.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/verifier.h"
#include "sig/scheme.h"

namespace perfbench {

using namespace silkmoth;

std::vector<SearchMatch> ReplaySearchPass(
    const SetRecord& ref, const Collection& data, const InvertedIndex& index,
    const Options& options, uint32_t exclude_set, SearchStats* stats,
    QueryScratch* scratch, SetIdRange scan_range, size_t top_k,
    Tracer* tracer, int64_t parent, uint64_t request, StageCounters* split) {
  std::vector<SearchMatch> results;
  if (ref.Empty()) return results;
  const Clock::time_point pass_start = Clock::now();
  // Stage spans are buffered here and recorded after the pass span, whose
  // id they need as their parent.
  struct Stage {
    const char* name;
    Clock::time_point start, end;
  };
  std::vector<Stage> stages;
  stages.reserve(4);

  const ElementSimilarity* sim = GetSimilarity(options.phi);
  ++stats->references;

  Clock::time_point t0 = Clock::now();
  SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  const Signature sig = GenerateSignature(ref, index, params);
  Clock::time_point t1 = Clock::now();
  stages.push_back({"sig.GenerateSignature", t0, t1});
  stats->signature_seconds += MsBetween(t0, t1) / 1000.0;
  stats->signature_tokens += sig.NumProbeTokens();

  t0 = Clock::now();
  std::vector<Candidate> candidates;
  const bool use_check = options.check_filter || options.nn_filter;
  if (sig.valid) {
    CheckFilterStats cstats;
    candidates = SelectAndCheckCandidates(ref, sig, data, index, options,
                                          use_check, &cstats, sim, scratch);
    stats->initial_candidates += cstats.initial_candidates;
    stats->after_size += cstats.initial_candidates - cstats.size_filtered;
    stats->similarity_calls += cstats.similarity_calls;
    split->filter_similarity_calls += cstats.similarity_calls;
  } else {
    candidates = AllCandidates(ref, data, options, scan_range);
    ++stats->fallback_scans;
    stats->initial_candidates += candidates.size();
    stats->after_size += candidates.size();
  }
  stats->after_check += candidates.size();
  t1 = Clock::now();
  stages.push_back({"filter.SelectAndCheckCandidates", t0, t1});
  stats->selection_seconds += MsBetween(t0, t1) / 1000.0;

  if (options.nn_filter && sig.valid) {
    t0 = Clock::now();
    NnFilterStats nstats;
    candidates = NnFilterCandidates(ref, sig, std::move(candidates), data,
                                    index, options, &nstats, sim, scratch);
    stats->similarity_calls += nstats.similarity_calls;
    split->filter_similarity_calls += nstats.similarity_calls;
    t1 = Clock::now();
    stages.push_back({"filter.NnFilterCandidates", t0, t1});
    stats->nn_seconds += MsBetween(t0, t1) / 1000.0;
  }
  stats->after_nn += candidates.size();

  // The verification loop: ScoreDecision calls are timed one by one and
  // recorded as one span whose length is their sum, so the loop's own work
  // (thresholds, heap maintenance) stays in core.pass's self time.
  const Clock::time_point loop_start = Clock::now();
  double verify_ms = 0.0;
  const MaxMatchingVerifier verifier(sim, options.alpha, options.reduction);
  for (const Candidate& cand : candidates) {
    if (cand.set_id == exclude_set) continue;
    const SetRecord& s = data.sets[cand.set_id];
    const double m_threshold =
        RelatedScoreThreshold(ref.Size(), s.Size(), options);
    const double margin =
        kFloatSlack * (static_cast<double>(ref.Size() + s.Size()) + 2.0);
    const double floor_theta =
        top_k > 0 && results.size() == top_k
            ? ScoreThresholdForRelatedness(results.front().relatedness,
                                           ref.Size(), s.Size(), options)
            : -1.0;
    MatchingStats mstats;
    const Clock::time_point v0 = Clock::now();
    const VerifyDecision decision = verifier.ScoreDecision(
        ref, s, m_threshold, &mstats, margin, options.exact_scores,
        floor_theta);
    verify_ms += MsBetween(v0, Clock::now());
    ++stats->verifications;
    stats->similarity_calls += mstats.similarity_calls;
    split->matching_similarity_calls += mstats.similarity_calls;
    stats->reduced_pairs += mstats.reduced_pairs;
    stats->bound_accepts += mstats.bound_accepts;
    stats->bound_rejects += mstats.bound_rejects;
    stats->tier2_accepts += mstats.tier2_accepts;
    stats->heap_floor_rejects += mstats.floor_rejects;
    stats->exact_solves += mstats.exact_solves;
    stats->reporting_solves += mstats.reporting_solves;
    const bool related =
        decision.exact
            ? IsRelated(decision.score, ref.Size(), s.Size(), options)
            : decision.related;
    if (!related) continue;
    const double m = decision.exact ? decision.score : decision.lower;
    if (!decision.exact) ++stats->bound_only_scores;
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
  stages.push_back(
      {"matching.ScoreDecision", loop_start,
       loop_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(verify_ms))});
  stats->verify_seconds += verify_ms / 1000.0;
  stats->results += results.size();

  if (top_k > 0) {
    std::sort(results.begin(), results.end(), IsBetterMatch);
  } else {
    std::sort(results.begin(), results.end(),
              [](const SearchMatch& a, const SearchMatch& b) {
                return a.set_id < b.set_id;
              });
  }
  if (tracer != nullptr && tracer->enabled()) {
    const int64_t pass =
        tracer->Add("core.pass", pass_start, Clock::now(), parent, request);
    for (const Stage& st : stages) {
      tracer->Add(st.name, st.start, st.end, pass, request);
    }
  }
  return results;
}

bool SameCounters(const SearchStats& a, const SearchStats& b) {
  return a.CountersJson() == b.CountersJson();
}

}  // namespace perfbench
