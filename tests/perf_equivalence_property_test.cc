// Equivalence properties for the hot-path overhaul, on randomized corpora:
//
//  1. The epoch-stamped scratch candidate accumulator produces byte-identical
//     candidate lists (ids, probed best-match vectors, strong flags, order)
//     to the pre-refactor reference accumulator — an unordered_map rebuilt
//     here exactly as check_filter.cc had it before the refactor — and its
//     output is invariant under scratch reuse across queries.
//  2. The bound-guided verifier (ScoreDecision) never changes an
//     accept/reject decision relative to exact verification, its bounds
//     always sandwich the exact matching score, and the exact Hungarian
//     solver runs only in the ambiguous band lower < θ <= upper. Every exact
//     or reporting score it returns is bit-identical to the pre-refactor
//     reference — the hash-map reduction peel rebuilt here, then a dense φ
//     fill and the solver — while it makes at most one φ call per matrix
//     cell, and fewer when φ is Jaccard (token-disjoint cells need none).
//     Each decision, in plain, exact-score and floating-floor mode, also
//     equals field for field (bounds bit for bit, every MatchingStats
//     counter) the same tiers run on that reference peel and dense fill,
//     over the corpus and over wide synthetic sets no corpus produces.
//  3. The full search pass (scratch accumulator + bound-guided verification)
//     reports the same accepted pairs with the same scores (within
//     kFloatSlack) as the pre-refactor pipeline.
//
// All three properties are swept across the workload shapes: the
// SET-SIMILARITY and SET-CONTAINMENT metrics over word tokens (Jaccard) on
// titles, SET-CONTAINMENT over column sets (many 1-3-token elements with
// planted identical ones, so reduction and the token-disjoint skip both
// fire), and edit similarity (Eds over q-grams).

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_scratch.h"
#include "core/relatedness.h"
#include "core/search_pass.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"
#include "datagen/webtable.h"
#include "filter/check_filter.h"
#include "filter/nn_filter.h"
#include "matching/hungarian.h"
#include "matching/local_max.h"
#include "matching/verifier.h"
#include "sig/scheme.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace silkmoth {
namespace {

struct WorkloadConfig {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
  bool columns = false;  ///< Column sets instead of DBLP titles.
};

Options MakeOptions(const WorkloadConfig& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const WorkloadConfig& cfg, size_t sets, uint64_t seed) {
  if (cfg.columns) {
    return BuildCollection(
        GenerateColumnSets(InclusionDependencyDefaults(sets, seed)),
        TokenizerKind::kWord);
  }
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;  // Near-duplicates exercise reduction + accepts.
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

Signature MakeSignature(const SetRecord& ref, const InvertedIndex& index,
                        const Options& options) {
  SchemeParams params;
  params.scheme = options.scheme;
  params.phi = options.phi;
  params.theta = MatchingThreshold(options.delta, ref.Size());
  params.alpha = options.alpha;
  params.q = options.EffectiveQ();
  return GenerateSignature(ref, index, params);
}

// The candidate selection + check filter exactly as it was before the
// scratch refactor: an unordered_map<set_id, Accum> accumulator, drained
// into a vector sorted by set id.
std::vector<Candidate> ReferenceSelectAndCheck(
    const SetRecord& ref, const Signature& sig, const Collection& data,
    const InvertedIndex& index, const Options& options, bool apply_check) {
  const ElementSimilarity* sim = GetSimilarity(options.phi);
  struct Accum {
    Candidate cand;
    bool size_ok = true;
  };
  std::unordered_map<uint32_t, Accum> accum;

  for (uint32_t i = 0; i < sig.probe.size(); ++i) {
    const Element& r_elem = ref.elements[i];
    for (TokenId t : sig.probe[i]) {
      for (const Posting& p : index.List(t)) {
        auto [it, inserted] = accum.try_emplace(p.set_id);
        Accum& a = it->second;
        if (inserted) {
          a.cand.set_id = p.set_id;
          a.size_ok =
              SizeFeasible(ref.Size(), data.sets[p.set_id].Size(), options);
        }
        if (!a.size_ok) continue;
        const Element& s_elem = data.sets[p.set_id].elements[p.elem_id];
        const double score =
            sim->ScoreThresholded(r_elem, s_elem, options.alpha);
        auto& best = a.cand.best;
        if (!best.empty() && best.back().first == i) {
          best.back().second = std::max(best.back().second, score);
        } else {
          best.emplace_back(i, score);
        }
        if (score >= sig.check_threshold[i] - kFloatSlack) {
          a.cand.strong = true;
        }
      }
    }
  }

  const double theta = MatchingThreshold(options.delta, ref.Size());
  const bool bound_certifies = sig.miss_bound_sum < theta - kFloatSlack;

  std::vector<Candidate> out;
  out.reserve(accum.size());
  for (auto& [set_id, a] : accum) {
    if (!a.size_ok) continue;
    if (apply_check && bound_certifies && !a.cand.strong) continue;
    out.push_back(std::move(a.cand));
  }
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.set_id < b.set_id;
            });
  return out;
}

// The verification loop exactly as it was before the bound fast path: an
// unconditional exact maximum matching followed by the IsRelated test.
std::vector<SearchMatch> ReferenceVerify(const SetRecord& ref,
                                         const std::vector<Candidate>& cands,
                                         const Collection& data,
                                         const Options& options,
                                         uint32_t exclude_set) {
  const MaxMatchingVerifier verifier(GetSimilarity(options.phi),
                                     options.alpha, options.reduction);
  std::vector<SearchMatch> results;
  for (const Candidate& cand : cands) {
    if (cand.set_id == exclude_set) continue;
    const SetRecord& s = data.sets[cand.set_id];
    const double m = verifier.Score(ref, s);
    if (IsRelated(m, ref.Size(), s.Size(), options)) {
      SearchMatch match;
      match.set_id = cand.set_id;
      match.matching_score = m;
      match.relatedness = RelatednessScore(m, ref.Size(), s.Size(), options);
      results.push_back(match);
    }
  }
  return results;
}

// The reduction's identity key exactly as similarity.cc had it before the
// scan-based peel: the text for edit similarities, the token-id bytes for
// Jaccard.
std::string ReferenceIdentityKey(const Element& e, SimilarityKind kind) {
  if (IsEditSimilarity(kind)) return std::string(e.text);
  std::string key;
  for (TokenId t : e.tokens) {
    key.append(reinterpret_cast<const char*>(&t), sizeof(t));
  }
  return key;
}

// The reduction peel exactly as it was before the scan-based peel: one key
// string per element, three unordered_maps. Emits the surviving elements in
// order and returns the number of identical pairs peeled.
size_t ReferencePeel(const SetRecord& r, const SetRecord& s,
                     const Options& options,
                     std::vector<const Element*>* r_elems,
                     std::vector<const Element*>* s_elems) {
  const ElementSimilarity* sim = GetSimilarity(options.phi);
  const bool reduce = options.reduction && options.alpha <= kFloatSlack &&
                      sim->HasMetricDual();
  size_t reduced = 0;
  if (!reduce) {
    for (const Element& e : r.elements) r_elems->push_back(&e);
    for (const Element& e : s.elements) s_elems->push_back(&e);
    return 0;
  }
  std::unordered_map<std::string, int> s_counts;
  for (const Element& e : s.elements) {
    s_counts[ReferenceIdentityKey(e, options.phi)] += 1;
  }
  std::unordered_map<std::string, int> consumed;
  for (const Element& e : r.elements) {
    const std::string key = ReferenceIdentityKey(e, options.phi);
    auto it = s_counts.find(key);
    const int available = it == s_counts.end() ? 0 : it->second;
    int& used = consumed[key];
    if (used < available) {
      ++used;
      ++reduced;
    } else {
      r_elems->push_back(&e);
    }
  }
  std::unordered_map<std::string, int> to_skip = consumed;
  for (const Element& e : s.elements) {
    auto it = to_skip.find(ReferenceIdentityKey(e, options.phi));
    if (it != to_skip.end() && it->second > 0) {
      --it->second;
    } else {
      s_elems->push_back(&e);
    }
  }
  return reduced;
}

// φ_α of every surviving cell: the dense fill.
WeightMatrix ReferenceDenseFill(const std::vector<const Element*>& r_elems,
                                const std::vector<const Element*>& s_elems,
                                const Options& options) {
  const ElementSimilarity* sim = GetSimilarity(options.phi);
  WeightMatrix w(r_elems.size(), s_elems.size());
  for (size_t i = 0; i < r_elems.size(); ++i) {
    for (size_t j = 0; j < s_elems.size(); ++j) {
      w.At(i, j) =
          sim->ScoreThresholded(*r_elems[i], *s_elems[j], options.alpha);
    }
  }
  return w;
}

// Score() exactly as it was before the scan-based peel and the sparse fill:
// the hash-map reduction peel, then a dense φ fill of the survivors and the
// exact solver.
double ReferenceExactScore(const SetRecord& r, const SetRecord& s,
                           const Options& options) {
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const double base =
      static_cast<double>(ReferencePeel(r, s, options, &r_elems, &s_elems));
  if (r_elems.empty() || s_elems.empty()) return base;
  return base +
         MaxWeightMatchingScore(ReferenceDenseFill(r_elems, s_elems, options));
}

// Bit `id mod 64` of every token id.
uint64_t ReferenceTokenMask(const Element& e) {
  uint64_t mask = 0;
  for (TokenId t : e.tokens) mask |= uint64_t{1} << (t % 64);
  return mask;
}

// ScoreDecision's tiers run on the reference peel and a dense fill: the
// upper bound is the Σ of row and of column maxima, summed in index order;
// then the θ reject, the floor reject, the row-greedy and local-max lower
// bounds and the solver. `similarity_calls` counts the surviving cells
// whose token masks share a bit when φ is 0 on token-disjoint elements (the
// calls ScoreDecision makes), and every surviving cell otherwise.
VerifyDecision ReferenceDecision(const SetRecord& r, const SetRecord& s,
                                 const Options& options, double theta,
                                 double margin, bool need_exact_score,
                                 double floor_theta, MatchingStats* stats) {
  margin = std::max(margin, kFloatSlack);
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = ReferencePeel(r, s, options, &r_elems, &s_elems);
  stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);
  VerifyDecision d;
  if (r_elems.empty() || s_elems.empty()) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    ++(d.related ? stats->bound_accepts : stats->bound_rejects);
    return d;
  }

  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();
  const WeightMatrix w = ReferenceDenseFill(r_elems, s_elems, options);
  const bool sparse = GetSimilarity(options.phi)->ZeroWhenTokensDisjoint();
  std::vector<double> row_max(rows, 0.0);
  std::vector<double> col_max(cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      row_max[i] = std::max(row_max[i], w.At(i, j));
      col_max[j] = std::max(col_max[j], w.At(i, j));
      if (!sparse || (ReferenceTokenMask(*r_elems[i]) &
                      ReferenceTokenMask(*s_elems[j])) != 0) {
        ++stats->similarity_calls;
      }
    }
  }
  stats->matrix_rows = rows;
  stats->matrix_cols = cols;
  double row_sum = 0.0;
  for (double v : row_max) row_sum += v;
  double col_sum = 0.0;
  for (double v : col_max) col_sum += v;
  d.upper = base + std::min(row_sum, col_sum);
  d.lower = base;
  d.score = d.upper;
  if (d.upper < theta - margin) {
    ++stats->bound_rejects;
    return d;
  }
  if (floor_theta > theta && d.upper < floor_theta - margin) {
    ++stats->floor_rejects;
    return d;
  }

  // Row-greedy: rows by descending row maximum (ties by index), each taking
  // its heaviest free column (ties by index).
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return row_max[a] > row_max[b];
  });
  std::vector<bool> used(cols, false);
  double greedy = 0.0;
  for (size_t i : order) {
    size_t best_j = cols;
    for (size_t j = 0; j < cols; ++j) {
      if (!used[j] && w.At(i, j) > (best_j == cols ? 0.0 : w.At(i, best_j))) {
        best_j = j;
      }
    }
    if (best_j == cols) continue;
    used[best_j] = true;
    greedy += w.At(i, best_j);
  }
  d.lower = base + greedy;
  size_t* accept_counter = &stats->bound_accepts;
  if (d.lower < theta + margin) {
    d.lower = base + std::max(greedy, LocalMaxMatchingScore(w));
    accept_counter = &stats->tier2_accepts;
  }
  if (d.lower >= theta + margin) {
    d.related = true;
    d.score = d.lower;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      ++stats->reporting_solves;
    }
    ++*accept_counter;
    return d;
  }
  d.score = base + MaxWeightMatchingScore(w);
  d.exact = true;
  d.related = d.score >= theta - kFloatSlack;
  ++stats->exact_solves;
  return d;
}

// Runs ScoreDecision and ReferenceDecision on the same arguments and
// expects every VerifyDecision and MatchingStats field to match exactly.
// Returns the verifier's decision and stores its counters in `stats`.
VerifyDecision ExpectDecisionMatchesReference(
    const MaxMatchingVerifier& verifier, const SetRecord& r,
    const SetRecord& s, const Options& options, double theta, double margin,
    bool need_exact_score, double floor_theta, const std::string& where,
    MatchingStats* stats) {
  MatchingStats got_stats;
  const VerifyDecision got = verifier.ScoreDecision(
      r, s, theta, &got_stats, margin, need_exact_score, floor_theta);
  MatchingStats want_stats;
  const VerifyDecision want =
      ReferenceDecision(r, s, options, theta, margin, need_exact_score,
                        floor_theta, &want_stats);
  const std::string ctx = where + ", theta " + std::to_string(theta) +
                          ", need_exact " + std::to_string(need_exact_score) +
                          ", floor " + std::to_string(floor_theta);
  EXPECT_EQ(got.related, want.related) << ctx;
  EXPECT_EQ(got.exact, want.exact) << ctx;
  EXPECT_EQ(got.upper, want.upper) << ctx;
  EXPECT_EQ(got.lower, want.lower) << ctx;
  EXPECT_EQ(got.score, want.score) << ctx;
  EXPECT_EQ(got_stats.matrix_rows, want_stats.matrix_rows) << ctx;
  EXPECT_EQ(got_stats.matrix_cols, want_stats.matrix_cols) << ctx;
  EXPECT_EQ(got_stats.reduced_pairs, want_stats.reduced_pairs) << ctx;
  EXPECT_EQ(got_stats.similarity_calls, want_stats.similarity_calls) << ctx;
  EXPECT_EQ(got_stats.bound_accepts, want_stats.bound_accepts) << ctx;
  EXPECT_EQ(got_stats.bound_rejects, want_stats.bound_rejects) << ctx;
  EXPECT_EQ(got_stats.tier2_accepts, want_stats.tier2_accepts) << ctx;
  EXPECT_EQ(got_stats.floor_rejects, want_stats.floor_rejects) << ctx;
  EXPECT_EQ(got_stats.exact_solves, want_stats.exact_solves) << ctx;
  EXPECT_EQ(got_stats.reporting_solves, want_stats.reporting_solves) << ctx;
  *stats = got_stats;
  return got;
}

// Sets no corpus config produces (corpus sets stay at or under 30
// elements): 65-150 elements, so S spans two or three 64-bit words; elements
// with no tokens (empty text for edit φ); token ids 64 and 128 apart, which
// share a mask bit without sharing a token; and identical elements repeated
// within a set and across sets. Every set draws most elements from one
// shared base sequence, so pairs peel many identical elements and still
// leave multi-word residues. Jaccard elements carry sorted token ids (the
// text spells them); edit-similarity elements carry short strings, which is
// all Eds and NEds read.
std::vector<SetRecord> MakeWideSets(SimilarityKind phi, uint64_t seed) {
  Rng rng(seed);
  auto arena = std::make_shared<ElementArena>();
  struct Shape {
    std::string text;
    std::vector<TokenId> tokens;
  };
  const auto random_shape = [&] {
    Shape shape;
    if (IsEditSimilarity(phi)) {
      const int64_t len = rng.NextInRange(0, 6);
      for (int64_t k = 0; k < len; ++k) {
        shape.text.push_back(static_cast<char>('a' + rng.NextBounded(4)));
      }
      return shape;
    }
    const int64_t count = rng.NextInRange(0, 3);
    for (int64_t k = 0; k < count; ++k) {
      // Ids 0-11 plus 64 or 128: many collide mod 64.
      const TokenId t = static_cast<TokenId>(rng.NextBounded(12) +
                                             64 * rng.NextBounded(3));
      shape.tokens.push_back(t);
    }
    std::sort(shape.tokens.begin(), shape.tokens.end());
    shape.tokens.erase(std::unique(shape.tokens.begin(), shape.tokens.end()),
                       shape.tokens.end());
    for (TokenId t : shape.tokens) shape.text += std::to_string(t) + " ";
    return shape;
  };
  std::vector<Shape> pool(40);
  for (Shape& shape : pool) shape = random_shape();
  std::vector<size_t> base(150);
  for (size_t& k : base) k = rng.NextBounded(pool.size());

  std::vector<SetRecord> sets(4);
  for (SetRecord& set : sets) {
    set.arena = arena;
    const size_t n = static_cast<size_t>(rng.NextInRange(65, 150));
    for (size_t k = 0; k < n; ++k) {
      const Shape shape = rng.NextBool(0.75)
                              ? pool[base[k]]
                              : rng.NextBool(0.5) ? random_shape()
                                                  : pool[rng.NextBounded(
                                                        pool.size())];
      set.elements.push_back(MakeArenaElement(arena.get(), shape.text,
                                              shape.tokens));
    }
  }
  return sets;
}
// The full pre-refactor search pass: reference accumulator, shared NN
// filter, exact verification.
std::vector<SearchMatch> ReferenceSearchPass(const SetRecord& ref,
                                             const Collection& data,
                                             const InvertedIndex& index,
                                             const Options& options,
                                             uint32_t exclude_set) {
  if (ref.Empty()) return {};
  const Signature sig = MakeSignature(ref, index, options);
  std::vector<Candidate> cands;
  if (sig.valid) {
    cands = ReferenceSelectAndCheck(ref, sig, data, index, options,
                                    options.check_filter || options.nn_filter);
    if (options.nn_filter) {
      cands = NnFilterCandidates(ref, sig, std::move(cands), data, index,
                                 options);
    }
  } else {
    cands = AllCandidates(ref, data, options);
  }
  return ReferenceVerify(ref, cands, data, options, exclude_set);
}

class PerfEquivalenceSweep : public ::testing::TestWithParam<WorkloadConfig> {
};

TEST_P(PerfEquivalenceSweep, ScratchAccumulatorMatchesReferenceByteForByte) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40, /*seed=*/cfg.delta * 1000);
  InvertedIndex index;
  index.Build(data);
  const ElementSimilarity* sim = GetSimilarity(opt.phi);

  // One scratch reused across every reference and both filter modes: epoch
  // stamping must make each query independent of all previous ones.
  QueryScratch scratch;
  size_t nonempty = 0;
  for (const SetRecord& ref : data.sets) {
    if (ref.Empty()) continue;
    const Signature sig = MakeSignature(ref, index, opt);
    if (!sig.valid) continue;
    for (bool apply_check : {true, false}) {
      const std::vector<Candidate> expected =
          ReferenceSelectAndCheck(ref, sig, data, index, opt, apply_check);
      const std::vector<Candidate> got = SelectAndCheckCandidates(
          ref, sig, data, index, opt, apply_check, nullptr, sim, &scratch);
      ASSERT_EQ(got, expected)
          << cfg.name << ": candidate mismatch, ref size " << ref.Size()
          << ", apply_check " << apply_check;
      if (!expected.empty()) ++nonempty;
    }
  }
  // The sweep must actually exercise non-trivial selections.
  EXPECT_GT(nonempty, 0u) << cfg.name;
}

TEST_P(PerfEquivalenceSweep, BoundDecisionsMatchExactVerification) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 30, /*seed=*/7 + cfg.delta * 100);
  const MaxMatchingVerifier verifier(GetSimilarity(opt.phi), opt.alpha,
                                     opt.reduction);

  size_t bound_settled = 0;
  size_t exact_solved = 0;
  size_t similarity_calls = 0;
  size_t matrix_cells = 0;
  size_t reduced_pairs = 0;
  size_t floor_rejects = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    for (uint32_t s = 0; s < data.sets.size(); ++s) {
      const SetRecord& rs = data.sets[r];
      const SetRecord& ss = data.sets[s];
      if (rs.Empty() || ss.Empty()) continue;
      if (!SizeFeasible(rs.Size(), ss.Size(), opt)) continue;

      // The margin RunSearchPass uses: wide enough to absorb IsRelated's
      // ratio-level slack (worth up to kFloatSlack·(|R|+|S|) on the
      // matching score) plus bound-side summation drift.
      const double theta = RelatedScoreThreshold(rs.Size(), ss.Size(), opt);
      const double margin =
          kFloatSlack * (static_cast<double>(rs.Size() + ss.Size()) + 2.0);
      const double exact = verifier.Score(rs, ss);
      const double reference = ReferenceExactScore(rs, ss, opt);
      EXPECT_EQ(exact, reference) << cfg.name;
      const std::string where = std::string(cfg.name) + " pair (" +
                                std::to_string(r) + ", " +
                                std::to_string(s) + ")";
      MatchingStats stats;
      const VerifyDecision d = ExpectDecisionMatchesReference(
          verifier, rs, ss, opt, theta, margin, /*need_exact_score=*/false,
          /*floor_theta=*/-1.0, where, &stats);
      // Exact-score mode, and a floor one above the optimum, which drops
      // every candidate whose upper bound lies less than one above it.
      MatchingStats mode_stats;
      ExpectDecisionMatchesReference(verifier, rs, ss, opt, theta, margin,
                                     true, -1.0, where, &mode_stats);
      ExpectDecisionMatchesReference(verifier, rs, ss, opt, theta, margin,
                                     true, exact + 1.0, where, &mode_stats);
      floor_rejects += mode_stats.floor_rejects;
      if (d.exact) {
        EXPECT_EQ(d.score, reference) << cfg.name;
      }

      // At most one φ call per cell of the (reduced) matrix.
      const size_t cells = stats.matrix_rows * stats.matrix_cols;
      EXPECT_LE(stats.similarity_calls, cells) << cfg.name;
      similarity_calls += stats.similarity_calls;
      matrix_cells += cells;
      reduced_pairs += stats.reduced_pairs;

      // The bounds must sandwich the exact optimum.
      EXPECT_LE(d.lower, exact + kFloatSlack) << cfg.name;
      EXPECT_GE(d.upper, exact - kFloatSlack) << cfg.name;

      // Exactly one counter fires per decision (floor_rejects stays 0
      // without a floating floor); the exact solver runs only in the
      // ambiguous band lower < θ+margin, upper >= θ-margin; and a decision
      // settled by the bounds alone never disagrees with exact verification
      // under the IsRelated test.
      ASSERT_EQ(stats.bound_accepts + stats.bound_rejects +
                    stats.tier2_accepts + stats.exact_solves,
                1u);
      EXPECT_EQ(stats.floor_rejects, 0u);
      if (stats.exact_solves == 1) {
        EXPECT_LT(d.lower, theta + margin) << cfg.name;
        EXPECT_GE(d.upper, theta - margin) << cfg.name;
        EXPECT_TRUE(d.exact);
        ++exact_solved;
      } else {
        ASSERT_EQ(d.related, IsRelated(exact, rs.Size(), ss.Size(), opt))
            << cfg.name << ": decision flip for pair (" << r << ", " << s
            << "), exact " << exact << ", theta " << theta << ", bounds ["
            << d.lower << ", " << d.upper << "]";
        ++bound_settled;
      }

      // The reporting mode must hand back the solver's exact score on
      // accepts without perturbing the decision or the exact_solves count —
      // the reporting-only solve lands in reporting_solves instead.
      if (stats.bound_accepts == 1 || stats.tier2_accepts == 1) {
        MatchingStats rstats;
        const VerifyDecision dr = verifier.ScoreDecision(
            rs, ss, theta, &rstats, margin, /*need_exact_score=*/true);
        EXPECT_TRUE(dr.related);
        EXPECT_TRUE(dr.exact);
        EXPECT_EQ(dr.score, reference) << cfg.name;
        EXPECT_EQ(rstats.exact_solves, 0u);
        // The trivial path (both sides consumed by reduction) is exact with
        // no solve at all; every other bound-settled accept pays exactly one
        // reporting solve.
        EXPECT_EQ(rstats.reporting_solves, d.exact ? 0u : 1u) << cfg.name;
        EXPECT_EQ(rstats.bound_accepts, stats.bound_accepts);
        EXPECT_EQ(rstats.tier2_accepts, stats.tier2_accepts);
      }
    }
  }
  // The corpus (near-duplicates + unrelated pairs) must exercise the fast
  // path; the ambiguous band may legitimately be empty.
  EXPECT_GT(bound_settled, 0u) << cfg.name;
  EXPECT_GT(bound_settled + exact_solved, 100u) << cfg.name;
  // Only a φ that is 0 on token-disjoint elements skips cells, and on these
  // corpora it must actually skip some; an active reduction must peel some.
  if (GetSimilarity(opt.phi)->ZeroWhenTokensDisjoint()) {
    EXPECT_LT(similarity_calls, matrix_cells) << cfg.name;
  } else {
    EXPECT_EQ(similarity_calls, matrix_cells) << cfg.name;
  }
  if (verifier.ReductionActive()) {
    EXPECT_GT(reduced_pairs, 0u) << cfg.name;
  }
  EXPECT_GT(floor_rejects, 0u) << cfg.name;

  // Wide synthetic sets, against the reference tiers at θ on both sides of
  // each pair's optimum.
  const std::vector<SetRecord> wide =
      MakeWideSets(opt.phi, /*seed=*/11 + static_cast<uint64_t>(cfg.delta * 10));
  MatchingStats wide_stats;
  size_t wide_cells = 0;
  for (size_t r = 0; r < wide.size(); ++r) {
    for (size_t s = 0; s < wide.size(); ++s) {
      const SetRecord& rs = wide[r];
      const SetRecord& ss = wide[s];
      const double exact = verifier.Score(rs, ss);
      EXPECT_EQ(exact, ReferenceExactScore(rs, ss, opt)) << cfg.name;
      const double margin =
          kFloatSlack * (static_cast<double>(rs.Size() + ss.Size()) + 2.0);
      const std::string where = std::string(cfg.name) + " wide pair (" +
                                std::to_string(r) + ", " +
                                std::to_string(s) + ")";
      for (const double theta :
           {RelatedScoreThreshold(rs.Size(), ss.Size(), opt), exact / 2,
            exact, exact + 0.5}) {
        // Plain, exact-score and floating-floor mode.
        for (const auto& [need_exact, floor_theta] :
             {std::pair{false, -1.0}, std::pair{true, -1.0},
              std::pair{true, exact + 1.0}}) {
          MatchingStats st;
          ExpectDecisionMatchesReference(verifier, rs, ss, opt, theta, margin,
                                         need_exact, floor_theta, where, &st);
          wide_cells += st.matrix_rows * st.matrix_cols;
          wide_stats.similarity_calls += st.similarity_calls;
          wide_stats.reduced_pairs += st.reduced_pairs;
          wide_stats.bound_rejects += st.bound_rejects;
          wide_stats.floor_rejects += st.floor_rejects;
          wide_stats.bound_accepts += st.bound_accepts + st.tier2_accepts;
          wide_stats.exact_solves += st.exact_solves;
          wide_stats.reporting_solves += st.reporting_solves;
        }
      }
    }
  }
  // Every tier must fire, and the shapes must make the sparse fill skip
  // cells and the reduction peel pairs where each applies.
  EXPECT_GT(wide_stats.bound_rejects, 0u) << cfg.name;
  EXPECT_GT(wide_stats.floor_rejects, 0u) << cfg.name;
  EXPECT_GT(wide_stats.bound_accepts, 0u) << cfg.name;
  EXPECT_GT(wide_stats.exact_solves, 0u) << cfg.name;
  EXPECT_GT(wide_stats.reporting_solves, 0u) << cfg.name;
  if (GetSimilarity(opt.phi)->ZeroWhenTokensDisjoint()) {
    EXPECT_LT(wide_stats.similarity_calls, wide_cells) << cfg.name;
  } else {
    EXPECT_EQ(wide_stats.similarity_calls, wide_cells) << cfg.name;
  }
  if (verifier.ReductionActive()) {
    EXPECT_GT(wide_stats.reduced_pairs, 0u) << cfg.name;
  }
}

// A caller-supplied margin below kFloatSlack used to let the bound reject
// (`upper < θ - margin`) contradict the exact accept test (`score >= θ -
// kFloatSlack`) for θ just above the bound sandwich — e.g. margin 0 and
// θ = exact + kFloatSlack/2 on a pair whose upper bound is tight. The
// clamp in ScoreDecision pins every decision to the exact-solver decision
// for ANY margin; sweep θ through a ±2·kFloatSlack band around the exact
// score. Offsets stay at least a half-slack away from the oracle's own
// equality point (off = +1) so the oracle comparison is not ulp-sensitive.
TEST_P(PerfEquivalenceSweep, SubSlackMarginsNeverFlipBoundaryDecisions) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 20, /*seed=*/41);
  const MaxMatchingVerifier verifier(GetSimilarity(opt.phi), opt.alpha,
                                     opt.reduction);
  size_t checked = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    for (uint32_t s = r; s < data.sets.size(); ++s) {
      const SetRecord& rs = data.sets[r];
      const SetRecord& ss = data.sets[s];
      if (rs.Empty() || ss.Empty()) continue;
      const double exact = verifier.Score(rs, ss);
      for (const double off : {-2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 2.0}) {
        const double theta = exact + off * kFloatSlack;
        const bool oracle = exact >= theta - kFloatSlack;
        for (const double margin : {0.0, kFloatSlack / 8, kFloatSlack}) {
          MatchingStats st;
          const VerifyDecision d =
              verifier.ScoreDecision(rs, ss, theta, &st, margin);
          ASSERT_EQ(d.related, oracle)
              << cfg.name << ": boundary flip for pair (" << r << ", " << s
              << "), exact " << exact << ", off " << off << "·slack, margin "
              << margin;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u) << cfg.name;
}

TEST_P(PerfEquivalenceSweep, FullSearchPassMatchesReferencePipeline) {
  const WorkloadConfig cfg = GetParam();
  const Options opt = MakeOptions(cfg);
  Collection data = MakeData(cfg, 35, /*seed=*/123);
  InvertedIndex index;
  index.Build(data);

  QueryScratch scratch;
  size_t accepted = 0;
  for (uint32_t r = 0; r < data.sets.size(); ++r) {
    const SetRecord& ref = data.sets[r];
    const std::vector<SearchMatch> expected =
        ReferenceSearchPass(ref, data, index, opt, r);
    const std::vector<SearchMatch> got =
        RunSearchPass(ref, data, index, opt, r, nullptr, &scratch);
    ASSERT_EQ(got.size(), expected.size())
        << cfg.name << ": accepted-set mismatch for reference " << r;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].set_id, expected[i].set_id) << cfg.name;
      EXPECT_NEAR(got[i].matching_score, expected[i].matching_score,
                  kFloatSlack)
          << cfg.name;
      EXPECT_NEAR(got[i].relatedness, expected[i].relatedness, kFloatSlack)
          << cfg.name;
    }
    accepted += got.size();
  }
  // The duplicate-heavy corpus must produce real matches to compare.
  EXPECT_GT(accepted, 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerfEquivalenceSweep,
    ::testing::Values(
        WorkloadConfig{"similarity_jaccard", Relatedness::kSimilarity,
                       SimilarityKind::kJaccard, 0.6, 0.4},
        WorkloadConfig{"containment_jaccard", Relatedness::kContainment,
                       SimilarityKind::kJaccard, 0.7, 0.0},
        WorkloadConfig{"containment_columns", Relatedness::kContainment,
                       SimilarityKind::kJaccard, 0.7, 0.0, /*columns=*/true},
        WorkloadConfig{"similarity_eds", Relatedness::kSimilarity,
                       SimilarityKind::kEds, 0.5, 0.6}),
    [](const ::testing::TestParamInfo<WorkloadConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace silkmoth
