#include "matching/verifier.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "matching/hungarian.h"
#include "matching/local_max.h"

namespace silkmoth {

namespace {

// One bit per token id modulo 64: elements whose masks share no bit share no
// token. Ids 64 apart share a bit, which only costs a φ call.
uint64_t TokenMask(const Element& e) {
  uint64_t mask = 0;
  for (TokenId t : e.tokens) mask |= uint64_t{1} << (t & 63);
  return mask;
}

void AppendAll(const SetRecord& set, std::vector<const Element*>* out) {
  for (const Element& e : set.elements) out->push_back(&e);
}

// φ_α of every (R, S) element pair, no cell skipped: the reference fill of
// Score() and ScoreWithAlignment(). `stats` is optional.
WeightMatrix FillDense(const ElementSimilarity& sim, double alpha,
                       const std::vector<const Element*>& r_elems,
                       const std::vector<const Element*>& s_elems,
                       MatchingStats* stats) {
  WeightMatrix w(r_elems.size(), s_elems.size());
  for (size_t i = 0; i < r_elems.size(); ++i) {
    for (size_t j = 0; j < s_elems.size(); ++j) {
      w.At(i, j) = sim.ScoreThresholded(*r_elems[i], *s_elems[j], alpha);
    }
  }
  if (stats != nullptr) {
    stats->matrix_rows = r_elems.size();
    stats->matrix_cols = s_elems.size();
    stats->similarity_calls += r_elems.size() * s_elems.size();
  }
  return w;
}

}  // namespace

MaxMatchingVerifier::MaxMatchingVerifier(const ElementSimilarity* sim,
                                         double alpha, bool use_reduction)
    : sim_(sim),
      alpha_(alpha),
      reduction_active_(use_reduction && alpha <= kFloatSlack &&
                        sim->HasMetricDual()),
      skip_disjoint_(sim->ZeroWhenTokensDisjoint()) {}

size_t MaxMatchingVerifier::SelectElements(
    const SetRecord& r, const SetRecord& s,
    std::vector<const Element*>* r_elems,
    std::vector<const Element*>* s_elems) const {
  r_elems->clear();
  s_elems->clear();
  r_elems->reserve(r.elements.size());
  s_elems->reserve(s.elements.size());
  AppendAll(s, s_elems);
  if (!reduction_active_) {
    AppendAll(r, r_elems);
    return 0;
  }

  // Pair identical elements greedily: each identical pair (φ = 1) is in
  // some maximum matching when 1-φ obeys the triangle inequality, and the
  // argument applies inductively to the reduced instance. Each R element,
  // in order, takes the first still-free identical S element (its slot is
  // nulled), so for every identity the first min(count in R, count in S)
  // elements of each side are peeled and the survivors keep their order.
  const SimilarityKind kind = sim_->kind();
  size_t reduced = 0;
  for (const Element& e : r.elements) {
    auto it = std::find_if(s_elems->begin(), s_elems->end(),
                           [&](const Element* x) {
                             return x != nullptr &&
                                    IdenticalElements(e, *x, kind);
                           });
    if (it == s_elems->end()) {
      r_elems->push_back(&e);
    } else {
      *it = nullptr;
      ++reduced;
    }
  }
  std::erase(*s_elems, nullptr);
  return reduced;
}

double MaxMatchingVerifier::ScoreWithAlignment(
    const SetRecord& r, const SetRecord& s,
    std::vector<AlignedPair>* alignment) const {
  alignment->clear();
  if (r.Empty() || s.Empty()) return 0.0;
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  AppendAll(r, &r_elems);
  AppendAll(s, &s_elems);
  const WeightMatrix w = FillDense(*sim_, alpha_, r_elems, s_elems, nullptr);
  std::vector<int> row_to_col;
  const double score = MaxWeightMatching(w, &row_to_col);
  for (size_t i = 0; i < r.Size(); ++i) {
    const int j = row_to_col[i];
    if (j < 0) continue;
    const double pair_score = w.At(i, static_cast<size_t>(j));
    if (pair_score > 0.0) {
      alignment->push_back(AlignedPair{static_cast<uint32_t>(i),
                                       static_cast<uint32_t>(j), pair_score});
    }
  }
  return score;
}

double MaxMatchingVerifier::Score(const SetRecord& r, const SetRecord& s,
                                  MatchingStats* stats) const {
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = SelectElements(r, s, &r_elems, &s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);
  if (r_elems.empty() || s_elems.empty()) return base;
  return base + MaxWeightMatchingScore(
                    FillDense(*sim_, alpha_, r_elems, s_elems, stats));
}

VerifyDecision MaxMatchingVerifier::ScoreDecision(const SetRecord& r,
                                                  const SetRecord& s,
                                                  double theta,
                                                  MatchingStats* stats,
                                                  double margin,
                                                  bool need_exact_score,
                                                  double floor_theta) const {
  // A margin below kFloatSlack would let the reject test (`upper < theta -
  // margin`) pass inputs the exact path accepts (`score >= theta -
  // kFloatSlack`): clamping keeps every bound-settled decision consistent
  // with the exact decision regardless of the caller's margin.
  margin = std::max(margin, kFloatSlack);
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  const size_t reduced = SelectElements(r, s, &r_elems, &s_elems);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);

  VerifyDecision d;
  if (r_elems.empty() || s_elems.empty()) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    if (stats != nullptr) {
      if (d.related) ++stats->bound_accepts;
      else ++stats->bound_rejects;
    }
    return d;
  }

  const size_t rows = r_elems.size();
  const size_t cols = s_elems.size();
  WeightMatrix w(rows, cols);
  std::vector<double> row_max(rows, 0.0);
  std::vector<double> col_max(cols, 0.0);
  // When φ is 0 on token-disjoint elements, a cell whose token masks share
  // no bit keeps the matrix's 0.0 (exactly what φ would return) and skips
  // the call; the maxima start at 0.0 too, so they are unchanged. Otherwise
  // every mask is all-ones and every cell is filled.
  const auto mask = [this](const Element& e) {
    return skip_disjoint_ ? TokenMask(e) : ~uint64_t{0};
  };
  std::vector<uint64_t> s_mask(cols);
  for (size_t j = 0; j < cols; ++j) s_mask[j] = mask(*s_elems[j]);
  size_t calls = 0;
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t r_mask = mask(*r_elems[i]);
    for (size_t j = 0; j < cols; ++j) {
      if ((r_mask & s_mask[j]) == 0) continue;
      const double v = sim_->ScoreThresholded(*r_elems[i], *s_elems[j], alpha_);
      ++calls;
      w.At(i, j) = v;
      row_max[i] = std::max(row_max[i], v);
      col_max[j] = std::max(col_max[j], v);
    }
  }
  if (stats != nullptr) {
    stats->matrix_rows = rows;
    stats->matrix_cols = cols;
    stats->similarity_calls += calls;
  }

  // Upper bound: every matched pair is at most its row maximum and its
  // column maximum, and each row/column hosts at most one pair.
  double row_sum = 0.0;
  for (double v : row_max) row_sum += v;
  double col_sum = 0.0;
  for (double v : col_max) col_sum += v;
  d.upper = base + std::min(row_sum, col_sum);
  // The reduced pairs alone form a feasible matching, so `base` is already
  // a valid lower bound; the greedy bound below can only raise it.
  d.lower = base;

  if (d.upper < theta - margin) {
    // Even a perfect row-wise assignment cannot reach theta. Rejects are
    // the dominant fast-path outcome, so this test runs before any edge
    // materialization or sorting.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->bound_rejects;
    return d;
  }

  if (floor_theta > theta && d.upper < floor_theta - margin) {
    // θ-related or not, this candidate cannot reach the caller's floating
    // floor (top-k's current k-th-best score), so no bound or solve is
    // worth running on it.
    d.related = false;
    d.score = d.upper;
    if (stats != nullptr) ++stats->floor_rejects;
    return d;
  }

  // Lower bound: a greedy matching — rows visited in descending row-maximum
  // order, each taking its heaviest still-free column — is a feasible
  // matching, hence a lower bound on the optimum (Birn et al. show greedy
  // matchings are near-optimal in practice). Row ordering costs O(n log n)
  // and the scan O(nm), no heavier than the matrix fill above; no per-edge
  // materialization or sort.
  std::vector<uint32_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (row_max[a] != row_max[b]) return row_max[a] > row_max[b];
    return a < b;
  });
  std::vector<uint8_t> col_used(cols, 0);
  double greedy = 0.0;
  for (uint32_t i : order) {
    if (row_max[i] <= 0.0) break;  // Remaining rows are all-zero.
    double best = 0.0;
    size_t best_j = cols;
    for (size_t j = 0; j < cols; ++j) {
      if (!col_used[j] && w.At(i, j) > best) {
        best = w.At(i, j);
        best_j = j;
      }
    }
    if (best_j < cols) {
      col_used[best_j] = 1;
      greedy += best;
    }
  }
  d.lower = base + greedy;

  if (d.lower >= theta + margin) {
    // The greedy matching alone already certifies relatedness. The greedy
    // sum's summation order differs from the exact solver's, so it is never
    // reported as exact; when the caller needs the reportable score the
    // solver runs on the matrix already in hand (reporting cost only — the
    // decision was settled by the bound).
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->bound_accepts;
    return d;
  }

  // Tier 2: the local-max matching (Birn et al.) is near-linear on this
  // already-built matrix and incomparable with the row-greedy bound, so the
  // lower bound becomes the max of the two. Its 1/2-of-optimum guarantee
  // also makes bound-only reported scores (`--approx-scores`) at least half
  // the exact score whenever this tier settles the accept.
  d.lower = base + std::max(greedy, LocalMaxMatchingScore(w));
  if (d.lower >= theta + margin) {
    d.related = true;
    if (need_exact_score) {
      d.score = base + MaxWeightMatchingScore(w);
      d.exact = true;
      if (stats != nullptr) ++stats->reporting_solves;
    } else {
      d.score = d.lower;
    }
    if (stats != nullptr) ++stats->tier2_accepts;
    return d;
  }

  // Ambiguous band: only here does the exact solver run.
  d.score = base + MaxWeightMatchingScore(w);
  d.exact = true;
  d.related = d.score >= theta - kFloatSlack;
  if (stats != nullptr) ++stats->exact_solves;
  return d;
}

}  // namespace silkmoth
