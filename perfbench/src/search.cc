// search-columns-topk: one closed-loop caller sends uniform, non-repeating
// column queries through SilkMoth::SearchTopK over a columns corpus that
// fits in L3 (containment, Jaccard φ, NN filter off). Nearly all of its
// time is verification, so it is the workload a matching change should move.
#include <algorithm>
#include <numeric>

#include "bench/workload.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace silkmoth;

namespace {

std::vector<SearchMatch> SortTruncate(std::vector<SearchMatch> all, size_t k) {
  std::sort(all.begin(), all.end(), IsBetterMatch);
  if (all.size() > k) all.resize(k);
  return all;
}

std::string MatchesText(const std::vector<SearchMatch>& m) {
  std::string out;
  char buf[96];
  for (const SearchMatch& x : m) {
    std::snprintf(buf, sizeof(buf), "%u\t%.17g\t%.17g\n", x.set_id,
                  x.matching_score, x.relatedness);
    out += buf;
  }
  return out;
}

}  // namespace

Report RunSearch(const RunConfig& cfg) {
  const Params& p = cfg.params;
  Report report;
  Tracer tracer(cfg.trace);
  const size_t corpus_sets = static_cast<size_t>(p.Int("corpus_sets"));
  const size_t top_k = static_cast<size_t>(p.Int("top_k"));

  Options options;
  options.metric = Relatedness::kContainment;
  options.phi = SimilarityKind::kJaccard;
  options.delta = p.Num("delta");
  options.alpha = p.Num("alpha");
  options.nn_filter = false;

  // The corpus is fixed per workload (corpus_seed); the run seed drives the
  // query order and every sample.
  RawSets raw = bench::GenerateCorpusRaw(
      bench::CorpusKind::kColumnSets, corpus_sets,
      static_cast<uint64_t>(p.Int("corpus_seed")));

  // Cold set-up: tokenize + index build, in fresh children. Half of the
  // children run before the timed window and half after it.
  auto cold_setup = [&] {
      Collection c = BuildCollection(raw, TokenizerKind::kWord, 0);
      SilkMoth engine(&c, options);
      if (!engine.ok()) throw std::runtime_error(engine.error());
  };
  const int cold_n = static_cast<int>(p.Int("cold_setups"));
  std::vector<double> setups;
  ColdSetups(cold_n / 2, cold_setup, &setups);

  Clock::time_point t0 = Clock::now();
  Collection corpus = BuildCollection(raw, TokenizerKind::kWord, 0);
  Clock::time_point t1 = Clock::now();
  tracer.Add("datagen.BuildCollection", t0, t1, -1, 0);
  const SilkMoth engine(&corpus, options);
  const Clock::time_point t2 = Clock::now();
  tracer.Add("index.Build", t1, t2, -1, 0);
  if (!engine.ok()) throw std::runtime_error(engine.error());

  // Uniform queries without repeats: a seeded permutation of the corpus.
  std::vector<uint32_t> order(corpus.NumSets());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(SubSeed(cfg.seed, "search-order"));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<uint32_t> warm(order.rbegin(), order.rend());

  // Untimed warm-up over the reversed order.
  const double warmup_s = p.Num("warmup_seconds");
  t0 = Clock::now();
  for (size_t i = 0; MsBetween(t0, Clock::now()) < warmup_s * 1000.0; ++i) {
    engine.SearchTopK(corpus.sets[warm[i % warm.size()]], top_k);
  }

  // The timed window. A traced run spends its first half untraced and its
  // second half with a span per call; the two halves give trace.overhead_pct.
  std::vector<std::vector<SearchMatch>> kept;
  std::vector<double> lat_ms;
  std::vector<double> untraced_ms, traced_ms;
  const double window_ms = cfg.seconds * 1000.0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  for (size_t i = 0; elapsed < window_ms; ++i) {
    const uint32_t q = order[i % order.size()];
    const bool spanned = cfg.trace && elapsed >= window_ms / 2;
    const Clock::time_point a = Clock::now();
    std::vector<SearchMatch> got = engine.SearchTopK(corpus.sets[q], top_k);
    const Clock::time_point b = Clock::now();
    const double ms = MsBetween(a, b);
    if (spanned) tracer.Add("core.SearchTopK", a, b, -1, i);
    lat_ms.push_back(ms);
    if (cfg.trace) (spanned ? traced_ms : untraced_ms).push_back(ms);
    kept.push_back(std::move(got));
    elapsed = MsBetween(start, b);
  }
  const double window_s = MsBetween(start, Clock::now()) / 1000.0;
  const double busy_pct = 100.0 * (ProcessCpuSeconds() - cpu0) / window_s;
  ColdSetups(cold_n - cold_n / 2, cold_setup, &setups);

  // Answers, outside the timed window: a digest of all of them, a seeded
  // sample against sort-and-truncate of Search and a smaller one against
  // brute force.
  Digest digest;
  for (const auto& m : kept) digest.Add(MatchesText(m));
  Rng sample_rng(SubSeed(cfg.seed, "search-sample"));
  const BruteForce oracle(&corpus, options);
  const size_t checks = static_cast<size_t>(p.Int("check_queries"));
  const size_t brute = static_cast<size_t>(p.Int("brute_queries"));
  for (size_t c = 0; c < checks && !kept.empty(); ++c) {
    const size_t i = sample_rng.NextBounded(kept.size());
    const SetRecord& ref = corpus.sets[order[i % order.size()]];
    if (SortTruncate(engine.Search(ref), top_k) != kept[i]) {
      report.Mismatch("search query " + std::to_string(i) +
                      " differs from sort-and-truncate of Search");
    }
    if (c < brute && SortTruncate(oracle.Search(ref), top_k) != kept[i]) {
      report.Mismatch("search query " + std::to_string(i) +
                      " differs from brute force");
    }
  }
  report.attempted = lat_ms.size();

  // The traced run replays a fixed prefix of the sequence: one entry call
  // and one stage-by-stage replay per query, which must agree.
  if (cfg.trace) {
    const size_t n = std::min<size_t>(static_cast<size_t>(p.Int("trace_queries")),
                                      order.size());
    SearchStats replay_total;
    StageCounters split;
    QueryScratch scratch;
    double entry_ms = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const SetRecord& ref = corpus.sets[order[i]];
      SearchStats entry_stats, replay_stats;
      const Clock::time_point a = Clock::now();
      const std::vector<SearchMatch> got =
          engine.SearchTopK(ref, top_k, &entry_stats);
      const Clock::time_point b = Clock::now();
      entry_ms += MsBetween(a, b);
      tracer.Add("core.SearchTopK", a, b, -1, i);
      const std::vector<SearchMatch> again =
          ReplaySearchPass(ref, corpus, engine.index(), options, kNoExclude,
                           &replay_stats, &scratch, SetIdRange{}, top_k,
                           &tracer, -1, i, &split);
      if (again != got || !SameCounters(entry_stats, replay_stats)) {
        report.Mismatch("replay of search query " + std::to_string(i) +
                        " differs from SearchTopK");
      }
      replay_total.Merge(replay_stats);
    }
    report.attempted += n;
    DeclareAllLayers(&report);
    PutCounterLayers(replay_total, split, &report);
    PutStageLayers(tracer, 1.0 / static_cast<double>(n),
                   entry_ms / static_cast<double>(n), 0.0, &report);
    report.Layer("core.pairs", static_cast<double>(replay_total.results),
                 "count", n);
    report.Layer("core.cpu_busy_pct", busy_pct, "%", 1);
    const double base = Quantile(untraced_ms, 0.5);
    report.Layer("trace.overhead_pct",
                 base > 0 ? 100.0 * (Quantile(traced_ms, 0.5) - base) / base
                          : 0.0,
                 "%", traced_ms.size());
  }

  if (cfg.trace) {
    const auto agg = tracer.Aggregate();
    report.Layer("datagen.build_collection_ms",
                 agg.at("datagen.BuildCollection").total_ms, "ms", 1);
    report.Layer("index.build_ms", agg.at("index.Build").total_ms, "ms", 1);
  } else {
    report.Put("setup_s", Quantile(setups, 0.5), "s", setups.size());
    report.Put("query_p50_ms", Quantile(lat_ms, 0.5), "ms", lat_ms.size());
    report.Put("query_p99_ms", Quantile(lat_ms, 0.99), "ms", lat_ms.size());
    report.Put("throughput_per_s",
               static_cast<double>(lat_ms.size()) / window_s, "1/s",
               lat_ms.size());
  }
  WriteTrace(tracer, cfg);
  report.health["digest"] = JsonString(digest.Hex());
  report.health["digest_queries"] = std::to_string(kept.size());
  report.health["setup_samples_s"] = JsonArray(setups);
  report.health["checked"] = std::to_string(checks);
  report.health["brute_checked"] = std::to_string(std::min(checks, brute));
  return report;
}

}  // namespace perfbench
