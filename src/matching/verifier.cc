#include "matching/verifier.h"

#include <algorithm>
#include <bit>
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

// One φ value ScoreDecision computed, at its (reduced) matrix position.
struct Cell {
  uint32_t row;
  uint32_t col;
  double value;
};

// The buffers of one Score() or ScoreDecision() call. Each thread keeps one,
// so once they have grown to the pair sizes it sees, a call that ends in a
// bound or floor reject allocates nothing. They live here rather than in
// QueryScratch because they are per pair, not per query, and because
// callers such as the traced stage replay call ScoreDecision without one.
struct VerifyScratch {
  std::vector<uint64_t> r_mask;    // Token mask of each R element.
  std::vector<uint64_t> s_mask;    // Token mask of each S element.
  std::vector<uint64_t> col_sets;  // Bit b's S elements: words [b·words, …).
  std::vector<uint64_t> live;      // S elements the peel left, one bit each.
  std::vector<uint32_t> r_keep;    // R elements the peel left, in order.
  std::vector<uint32_t> s_col;     // Matrix column of each live S element.
  std::vector<double> row_max;
  std::vector<double> col_max;
  std::vector<Cell> cells;         // Every φ value computed, row by row.
  size_t words = 0;                // ⌈|S| / 64⌉.

  bool IsLive(size_t j) const { return (live[j / 64] >> (j % 64)) & 1; }

  // Releases every buffer once a call has grown them past what a pair of
  // kKeptElements-element sets with kKeptCells computed cells needs, so one
  // huge pair does not pin its memory for the thread's lifetime.
  void Trim() {
    constexpr size_t kKeptElements = 4096;
    constexpr size_t kKeptCells = size_t{1} << 15;
    if (r_mask.capacity() > kKeptElements ||
        s_mask.capacity() > kKeptElements || cells.capacity() > kKeptCells) {
      *this = VerifyScratch();
    }
  }
};

// Lends the calling thread's scratch to one call and trims it on return.
class ScratchLease {
 public:
  ScratchLease() = default;
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ~ScratchLease() { scratch_.Trim(); }

  VerifyScratch& scratch() { return scratch_; }

 private:
  static VerifyScratch& ThreadScratch() {
    thread_local VerifyScratch scratch;
    return scratch;
  }

  VerifyScratch& scratch_ = ThreadScratch();
};

// Masks every element of R and S, indexes S by mask bit and applies the
// §5.3 reduction, leaving the survivors in `sc`: `r_keep`, `live` and
// `s_col`. Returns the number of identical pairs peeled.
//
// `sparse` is set when φ is 0 on token-disjoint elements: each element's
// mask then sets bit `id mod 64` of every token id, and `col_sets` holds,
// per bit, the S elements whose masks carry it. Otherwise every mask is all
// ones and `col_sets` is not built.
size_t SelectElements(const SetRecord& r, const SetRecord& s,
                      SimilarityKind kind, bool sparse, bool reduce,
                      VerifyScratch* sc) {
  const size_t nr = r.elements.size();
  const size_t ns = s.elements.size();
  const auto mask = [sparse](const Element& e) {
    return sparse ? TokenMask(e) : ~uint64_t{0};
  };
  sc->r_mask.resize(nr);
  for (size_t i = 0; i < nr; ++i) sc->r_mask[i] = mask(r.elements[i]);
  sc->s_mask.resize(ns);
  for (size_t j = 0; j < ns; ++j) sc->s_mask[j] = mask(s.elements[j]);

  const size_t words = (ns + 63) / 64;
  sc->words = words;
  sc->live.assign(words, ~uint64_t{0});
  if (ns % 64 != 0) sc->live.back() = (uint64_t{1} << (ns % 64)) - 1;
  if (sparse) {
    sc->col_sets.assign(64 * words, 0);
    for (size_t j = 0; j < ns; ++j) {
      for (uint64_t m = sc->s_mask[j]; m != 0; m &= m - 1) {
        sc->col_sets[std::countr_zero(m) * words + j / 64] |= uint64_t{1}
                                                              << (j % 64);
      }
    }
  }

  // Pair identical elements greedily: each identical pair (φ = 1) is in
  // some maximum matching when 1-φ obeys the triangle inequality, and the
  // argument applies inductively to the reduced instance. Each R element,
  // in order, takes the first still-live identical S element, so for every
  // identity the first min(count in R, count in S) elements of each side
  // are peeled and the survivors keep their order. Identical elements have
  // equal masks, so a partner of an element with mask m lies in the AND of
  // m's bit sets (the live set when m is 0 or φ is not sparse); candidates
  // whose mask differs are passed over before IdenticalElements, which
  // compares sizes before contents.
  const auto peel = [&](size_t i) {
    const uint64_t m = sc->r_mask[i];
    for (size_t word = 0; word < words; ++word) {
      uint64_t cand = sc->live[word];
      if (sparse) {
        for (uint64_t b = m; b != 0 && cand != 0; b &= b - 1) {
          cand &= sc->col_sets[std::countr_zero(b) * words + word];
        }
      }
      for (; cand != 0; cand &= cand - 1) {
        const size_t j = word * 64 + std::countr_zero(cand);
        if (sc->s_mask[j] == m &&
            IdenticalElements(r.elements[i], s.elements[j], kind)) {
          sc->live[word] &= ~(uint64_t{1} << (j % 64));
          return true;
        }
      }
    }
    return false;
  };
  sc->r_keep.clear();
  size_t reduced = 0;
  for (size_t i = 0; i < nr; ++i) {
    if (reduce && peel(i)) {
      ++reduced;
    } else {
      sc->r_keep.push_back(static_cast<uint32_t>(i));
    }
  }

  sc->s_col.resize(ns);
  uint32_t col = 0;
  for (size_t j = 0; j < ns; ++j) {
    if (sc->IsLive(j)) sc->s_col[j] = col++;
  }
  return reduced;
}

}  // namespace

MaxMatchingVerifier::MaxMatchingVerifier(const ElementSimilarity* sim,
                                         double alpha, bool use_reduction)
    : sim_(sim),
      alpha_(alpha),
      reduction_active_(use_reduction && alpha <= kFloatSlack &&
                        sim->HasMetricDual()),
      skip_disjoint_(sim->ZeroWhenTokensDisjoint()) {}

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
  ScratchLease lease;
  VerifyScratch& sc = lease.scratch();
  const size_t reduced = SelectElements(r, s, sim_->kind(), skip_disjoint_,
                                        reduction_active_, &sc);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);
  std::vector<const Element*> r_elems;
  std::vector<const Element*> s_elems;
  for (uint32_t i : sc.r_keep) r_elems.push_back(&r.elements[i]);
  for (size_t j = 0; j < s.elements.size(); ++j) {
    if (sc.IsLive(j)) s_elems.push_back(&s.elements[j]);
  }
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
  ScratchLease lease;
  VerifyScratch& sc = lease.scratch();
  const size_t reduced = SelectElements(r, s, sim_->kind(), skip_disjoint_,
                                        reduction_active_, &sc);
  if (stats != nullptr) stats->reduced_pairs = reduced;
  const double base = static_cast<double>(reduced);
  const size_t rows = sc.r_keep.size();
  const size_t cols = s.elements.size() - reduced;

  VerifyDecision d;
  if (rows == 0 || cols == 0) {
    d.lower = d.upper = d.score = base;
    d.exact = true;
    d.related = d.score >= theta - kFloatSlack;
    if (stats != nullptr) {
      if (d.related) ++stats->bound_accepts;
      else ++stats->bound_rejects;
    }
    return d;
  }

  // φ runs only on the cells whose masks share a bit: a row's columns are
  // the live elements of the OR of its bits' column sets, or every live
  // column when φ is not sparse. When φ is 0 on token-disjoint elements the
  // skipped cells are exactly 0.0, so the maxima below, and the matrix built
  // from the computed cells, are bit-identical to a dense fill.
  std::vector<double>& row_max = sc.row_max;
  std::vector<double>& col_max = sc.col_max;
  row_max.assign(rows, 0.0);
  col_max.assign(cols, 0.0);
  sc.cells.clear();
  for (size_t row = 0; row < rows; ++row) {
    const Element& e = r.elements[sc.r_keep[row]];
    const uint64_t m = sc.r_mask[sc.r_keep[row]];
    for (size_t word = 0; word < sc.words; ++word) {
      uint64_t hits = sc.live[word];
      if (skip_disjoint_) {
        uint64_t shared = 0;
        for (uint64_t b = m; b != 0; b &= b - 1) {
          shared |= sc.col_sets[std::countr_zero(b) * sc.words + word];
        }
        hits &= shared;
      }
      for (; hits != 0; hits &= hits - 1) {
        const size_t j = word * 64 + std::countr_zero(hits);
        const uint32_t col = sc.s_col[j];
        const double v = sim_->ScoreThresholded(e, s.elements[j], alpha_);
        sc.cells.push_back(Cell{static_cast<uint32_t>(row), col, v});
        row_max[row] = std::max(row_max[row], v);
        col_max[col] = std::max(col_max[col], v);
      }
    }
  }
  if (stats != nullptr) {
    stats->matrix_rows = rows;
    stats->matrix_cols = cols;
    stats->similarity_calls += sc.cells.size();
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
    // the dominant fast-path outcome, so this test runs before the matrix
    // exists.
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

  WeightMatrix w(rows, cols);
  for (const Cell& c : sc.cells) w.At(c.row, c.col) = c.value;

  // Lower bound: a greedy matching — rows visited in descending row-maximum
  // order, each taking its heaviest still-free column — is a feasible
  // matching, hence a lower bound on the optimum (Birn et al. show greedy
  // matchings are near-optimal in practice). Row ordering costs O(n log n)
  // and the scan O(nm), no heavier than building the matrix; no per-edge
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
