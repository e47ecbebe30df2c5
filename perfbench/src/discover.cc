// discover-schema: a full self-join of a schema corpus larger than L2
// through SilkMoth::DiscoverSelf on several threads, the CLI's `discover`
// path. It is the only multithreaded workload and the only self-join.
#include <algorithm>

#include "bench/workload.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace silkmoth;

namespace {

std::string PairsText(const std::vector<PairMatch>& pairs) {
  std::string out;
  char buf[112];
  for (const PairMatch& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%u\t%u\t%.17g\t%.17g\n", p.ref_id,
                  p.set_id, p.matching_score, p.relatedness);
    out += buf;
  }
  return out;
}

// The pairs a self-join reports for reference r, given all of r's related
// sets: no self-pair, and for symmetric similarity only set ids above r.
std::vector<PairMatch> SelfJoinPairs(uint32_t r,
                                     const std::vector<SearchMatch>& matches,
                                     const Options& options) {
  const bool dedup = SelfJoinReportsUnorderedPairs(options.metric);
  std::vector<PairMatch> out;
  for (const SearchMatch& m : matches) {
    if (m.set_id == r || (dedup && m.set_id < r)) continue;
    out.push_back(PairMatch{r, m.set_id, m.matching_score, m.relatedness});
  }
  return out;
}

}  // namespace

Report RunDiscover(const RunConfig& cfg) {
  const Params& p = cfg.params;
  Report report;
  Tracer tracer(cfg.trace);
  const size_t corpus_sets = static_cast<size_t>(p.Int("corpus_sets"));
  const int threads = static_cast<int>(p.Int("threads"));

  Options options;
  options.metric = Relatedness::kSimilarity;
  options.phi = SimilarityKind::kJaccard;
  options.delta = p.Num("delta");
  options.alpha = p.Num("alpha");
  options.num_threads = threads;

  // The corpus is fixed per workload (corpus_seed); the run seed shuffles
  // its set order (so set ids and the threads' reference chunks differ
  // from seed to seed) and drives every sample.
  RawSets raw = bench::GenerateCorpusRaw(
      bench::CorpusKind::kSchemaSets, corpus_sets,
      static_cast<uint64_t>(p.Int("corpus_seed")));
  {
    Rng shuffle(SubSeed(cfg.seed, "discover-order"));
    for (size_t i = raw.size(); i > 1; --i) {
      std::swap(raw[i - 1], raw[shuffle.NextBounded(i)]);
    }
  }

  // Cold set-up: tokenize + index build (single-threaded), fresh children. Half of the
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
  tracer.Add("index.Build", t1, Clock::now(), -1, 0);
  if (!engine.ok()) throw std::runtime_error(engine.error());
  const uint32_t n = static_cast<uint32_t>(corpus.NumSets());

  // Untimed warm-up: a leading slice of the self-join.
  engine.Discover(ReferenceBlock::SelfJoinRange(
      corpus, 0, static_cast<uint32_t>(p.Int("warmup_refs"))));

  // The timed window: whole self-join jobs back to back until it is over.
  // A traced run spans the jobs of the window's second half only; the two
  // halves give trace.overhead_pct.
  std::vector<double> job_ms, refs_per_s, untraced_ms, traced_ms;
  std::vector<PairMatch> first;
  SearchStats first_stats;
  double busy_pct = 0.0;
  Digest digest;
  const double window_ms = cfg.seconds * 1000.0;
  const Clock::time_point start = Clock::now();
  for (int job = 0; job == 0 || MsBetween(start, Clock::now()) < window_ms;
       ++job) {
    const bool spanned =
        cfg.trace && MsBetween(start, Clock::now()) >= window_ms / 2;
    SearchStats stats;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point a = Clock::now();
    std::vector<PairMatch> pairs = engine.DiscoverSelf(&stats);
    const Clock::time_point b = Clock::now();
    const double wall_ms = MsBetween(a, b);
    job_ms.push_back(wall_ms);
    refs_per_s.push_back(n / (wall_ms / 1000.0));
    if (spanned) {
      tracer.Add("core.DiscoverSelf", a, b, -1, job);
      busy_pct = 100.0 * (ProcessCpuSeconds() - cpu0) * 1000.0 /
                 (wall_ms * threads);
      traced_ms.push_back(wall_ms);
    } else {
      untraced_ms.push_back(wall_ms);
    }
    if (job == 0) {
      digest.Add(PairsText(pairs));
      first = std::move(pairs);
      first_stats = stats;
    } else if (pairs != first || !SameCounters(stats, first_stats)) {
      report.Mismatch("self-join job " + std::to_string(job) +
                      " differs from the first job");
    }
  }
  ColdSetups(cold_n - cold_n / 2, cold_setup, &setups);

  // Answers: a seeded sample of references against brute force.
  Rng sample_rng(SubSeed(cfg.seed, "discover-sample"));
  const BruteForce oracle(&corpus, options);
  const size_t brute = static_cast<size_t>(p.Int("brute_refs"));
  for (size_t c = 0; c < brute; ++c) {
    const uint32_t r = static_cast<uint32_t>(sample_rng.NextBounded(n));
    std::vector<PairMatch> want =
        SelfJoinPairs(r, oracle.Search(corpus.sets[r]), options);
    auto lo = std::lower_bound(first.begin(), first.end(), PairMatch{r, 0},
                               PairMatchIdLess);
    auto hi = std::lower_bound(first.begin(), first.end(),
                               PairMatch{r + 1, 0}, PairMatchIdLess);
    if (std::vector<PairMatch>(lo, hi) != want) {
      report.Mismatch("self-join pairs of reference " + std::to_string(r) +
                      " differ from brute force");
    }
  }
  report.attempted = job_ms.size() + brute;

  // The traced run replays the whole self-join single-threaded, stage by
  // stage; its pairs and counters must equal the first DiscoverSelf job's.
  if (cfg.trace) {
    SearchStats replay_stats;
    StageCounters split;
    std::vector<PairMatch> again;
    QueryScratch scratch;
    for (uint32_t r = 0; r < n; ++r) {
      const std::vector<SearchMatch> matches = ReplaySearchPass(
          corpus.sets[r], corpus, engine.index(), options, r, &replay_stats,
          &scratch, SetIdRange{}, 0, &tracer, -1, r, &split);
      const std::vector<PairMatch> pairs = SelfJoinPairs(r, matches, options);
      again.insert(again.end(), pairs.begin(), pairs.end());
    }
    if (again != first || !SameCounters(first_stats, replay_stats)) {
      report.Mismatch("replay of the self-join differs from DiscoverSelf");
    }
    report.attempted += 1;
    DeclareAllLayers(&report);
    // Stage times are per job, in thread-milliseconds; the entry call's
    // thread time is its wall time times the thread count.
    PutCounterLayers(replay_stats, split, &report);
    PutStageLayers(tracer, 1.0, Quantile(traced_ms, 0.5) * threads, 0.0,
                   &report);
    report.Layer("core.pairs", static_cast<double>(first.size()), "count", 1);
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
    report.Put("query_p50_ms", Quantile(job_ms, 0.5), "ms", job_ms.size());
    report.Put("query_p99_ms", Quantile(job_ms, 0.99), "ms", job_ms.size());
    report.Put("throughput_per_s", Quantile(refs_per_s, 0.5), "1/s",
               refs_per_s.size());
  }
  WriteTrace(tracer, cfg);
  report.health["digest"] = JsonString(digest.Hex());
  report.health["pairs"] = std::to_string(first.size());
  report.health["jobs_ms"] = JsonArray(job_ms);
  report.health["setup_samples_s"] = JsonArray(setups);
  report.health["brute_checked"] = std::to_string(brute);
  return report;
}

}  // namespace perfbench
