// SilkMoth's shard properties, on randomized corpora:
//
//  1. Parity: discovery (self-join and cross-collection) and search return
//     *identical* PairMatch/SearchMatch sets — ids and scores — at every
//     shard count, across metrics (similarity/containment), similarity
//     functions (Jaccard/Eds), shard counts, and thread counts. Every shard
//     count runs the same drivers, so each sweep also checks the 1-shard
//     engine against BruteForce (core/brute_force.h), which shares no code
//     with them. Identity is exact (operator==), not within-tolerance:
//     verification only ever sees the (reference, set) records, so scores
//     cannot depend on how the index was partitioned.
//  2. Shard layout: the shard ranges are contiguous, disjoint, ascending,
//     and cover exactly [0, num_sets) — including the shards > sets edge
//     case, where trailing shards are empty.
//  3. Stats: per-shard SearchStats record the passes against that shard
//     only; empty shards record nothing; Total() equals the slot-wise sum;
//     per-shard `results` sum to the unsharded pass results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "datagen/builders.h"
#include "datagen/dblp.h"

namespace silkmoth {
namespace {

struct ShardedCase {
  const char* name;
  Relatedness metric;
  SimilarityKind phi;
  double delta;
  double alpha;
};

Options MakeOptions(const ShardedCase& cfg) {
  Options opt;
  opt.metric = cfg.metric;
  opt.phi = cfg.phi;
  opt.delta = cfg.delta;
  opt.alpha = cfg.alpha;
  if (IsEditSimilarity(cfg.phi)) opt.q = MaxQForAlpha(cfg.alpha);
  return opt;
}

Collection MakeData(const ShardedCase& cfg, size_t sets, uint64_t seed) {
  DblpParams p;
  p.num_titles = sets;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = seed;
  const Options opt = MakeOptions(cfg);
  if (IsEditSimilarity(cfg.phi)) {
    return BuildCollection(GenerateDblpSets(p), TokenizerKind::kQGram,
                           opt.EffectiveQ());
  }
  return BuildCollection(GenerateDblpSets(p), TokenizerKind::kWord);
}

/// The sweep's per-shard-count engine options.
Options WithShards(Options opt, int shards, int threads) {
  opt.num_shards = shards;
  opt.num_threads = threads;
  return opt;
}

class ShardSweep : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardSweep, DiscoverSelfMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 40, /*seed=*/11);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.DiscoverSelf();
  ASSERT_FALSE(expected.empty()) << cfg.name
      << ": corpus produced no related pairs to compare";
  EXPECT_EQ(expected, BruteForce(&data, base).DiscoverSelf()) << cfg.name;

  for (int shards : {1, 2, 3, 7, 16}) {
    for (int threads : {1, 3}) {
      const SilkMoth engine(&data, WithShards(base, shards, threads));
      ASSERT_TRUE(engine.ok()) << engine.error();
      EXPECT_EQ(engine.DiscoverSelf(), expected)
          << cfg.name << ": shards=" << shards << " threads=" << threads;
    }
  }
}

TEST_P(ShardSweep, CrossCollectionDiscoverMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 32, /*seed=*/21);

  DblpParams p;
  p.num_titles = 12;
  p.vocabulary = 60;
  p.min_words = 2;
  p.max_words = 6;
  p.duplicate_rate = 0.35;
  p.typo_rate = 0.3;
  p.seed = 22;  // Overlapping vocabulary, fresh draws.
  const Collection refs =
      IsEditSimilarity(cfg.phi)
          ? BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kQGram,
                                    base.EffectiveQ(), data.dict)
          : BuildCollectionWithDict(GenerateDblpSets(p), TokenizerKind::kWord,
                                    0, data.dict);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const std::vector<PairMatch> expected = single.Discover(refs);
  EXPECT_EQ(expected, BruteForce(&data, base).Discover(refs)) << cfg.name;

  for (int shards : {2, 5}) {
    const SilkMoth engine(&data, WithShards(base, shards, 2));
    ASSERT_TRUE(engine.ok()) << engine.error();
    EXPECT_EQ(engine.Discover(refs), expected)
        << cfg.name << ": shards=" << shards;
  }
}

TEST_P(ShardSweep, SearchMatchesUnshardedExactly) {
  const ShardedCase cfg = GetParam();
  const Options base = MakeOptions(cfg);
  Collection data = MakeData(cfg, 30, /*seed=*/31);

  SilkMoth single(&data, base);
  ASSERT_TRUE(single.ok()) << single.error();
  const BruteForce oracle(&data, base);

  const SilkMoth engine(&data, WithShards(base, 4, 1));
  ASSERT_TRUE(engine.ok()) << engine.error();

  size_t matched = 0;
  for (const SetRecord& ref : data.sets) {
    const std::vector<SearchMatch> expected = single.Search(ref);
    EXPECT_EQ(expected, oracle.Search(ref)) << cfg.name;
    EXPECT_EQ(engine.Search(ref), expected) << cfg.name;
    matched += expected.size();
  }
  EXPECT_GT(matched, 0u) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ShardSweep,
    ::testing::Values(
        ShardedCase{"similarity_jaccard", Relatedness::kSimilarity,
                    SimilarityKind::kJaccard, 0.6, 0.4},
        ShardedCase{"containment_jaccard", Relatedness::kContainment,
                    SimilarityKind::kJaccard, 0.7, 0.0},
        ShardedCase{"similarity_eds", Relatedness::kSimilarity,
                    SimilarityKind::kEds, 0.5, 0.6}),
    [](const ::testing::TestParamInfo<ShardedCase>& info) {
      return info.param.name;
    });

// --- Shard layout edge cases -----------------------------------------------

TEST(ShardLayout, RangesPartitionTheCollection) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 23, /*seed=*/41);
  for (int shards : {1, 2, 5, 23, 64}) {
    const SilkMoth engine(&data, WithShards(MakeOptions(cfg), shards, 1));
    ASSERT_TRUE(engine.ok()) << engine.error();
    ASSERT_EQ(engine.shards().size(), static_cast<size_t>(shards));
    // index() is shard 0's index.
    EXPECT_EQ(&engine.index(), engine.shards()[0].index);

    uint32_t cursor = 0;
    size_t postings = 0;
    for (size_t s = 0; s < engine.shards().size(); ++s) {
      const ShardView& shard = engine.shards()[s];
      EXPECT_EQ(shard.range.begin, cursor)
          << "shards=" << shards << " s=" << s;
      EXPECT_LE(shard.range.begin, shard.range.end);
      cursor = shard.range.end;
      postings += shard.index->TotalPostings();
      // An empty shard must carry an empty index.
      if (shard.range.begin == shard.range.end) {
        EXPECT_EQ(shard.index->TotalPostings(), 0u);
      }
    }
    EXPECT_EQ(cursor, data.sets.size()) << "shards=" << shards;

    // The shard indexes together hold exactly the full index's postings.
    InvertedIndex full;
    full.Build(data);
    EXPECT_EQ(postings, full.TotalPostings()) << "shards=" << shards;
  }
}

TEST(ShardLayout, MoreShardsThanSetsStillExact) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.0};
  Collection data = MakeData(cfg, 10, /*seed=*/43);

  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());

  const SilkMoth engine(&data, WithShards(MakeOptions(cfg), 64, 2));
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_EQ(engine.DiscoverSelf(), single.DiscoverSelf());
  EXPECT_EQ(engine.DiscoverSelf(),
            BruteForce(&data, MakeOptions(cfg)).DiscoverSelf());
}

TEST(ShardLayout, EmptyCollection) {
  Collection data;
  Options opt;
  opt.num_shards = 4;
  const SilkMoth engine(&data, opt);
  ASSERT_TRUE(engine.ok()) << engine.error();
  EXPECT_TRUE(engine.DiscoverSelf().empty());
  ASSERT_EQ(engine.shards().size(), 4u);
  for (const ShardView& shard : engine.shards()) {
    EXPECT_EQ(shard.range.begin, shard.range.end);
  }
}

TEST(ShardLayout, InvalidShardCountRejected) {
  Collection data;
  Options opt;
  opt.num_shards = 0;
  const SilkMoth engine(&data, opt);
  EXPECT_FALSE(engine.ok());
  EXPECT_NE(engine.error().find("num_shards"), std::string::npos);
  EXPECT_TRUE(engine.DiscoverSelf().empty());
  EXPECT_TRUE(engine.shards().empty());
  EXPECT_EQ(engine.index().TotalPostings(), 0u);
}

// --- Per-shard stats aggregation -------------------------------------------

TEST(ShardStats, PerShardCountersAggregateToGlobal) {
  const ShardedCase cfg{"similarity_jaccard", Relatedness::kSimilarity,
                        SimilarityKind::kJaccard, 0.6, 0.4};
  Collection data = MakeData(cfg, 30, /*seed=*/51);

  const SilkMoth engine(&data, WithShards(MakeOptions(cfg), 4, 3));
  ASSERT_TRUE(engine.ok()) << engine.error();

  ShardedSearchStats stats;
  stats.Reset(engine.shards().size());
  DiscoverAcrossShards(ReferenceBlock::SelfJoin(data), data, engine.shards(),
                       engine.options(), &stats);
  ASSERT_EQ(stats.per_shard.size(), 4u);

  // Every non-empty shard sees every (non-empty) reference exactly once.
  size_t non_empty_refs = 0;
  for (const SetRecord& ref : data.sets) {
    if (!ref.Empty()) ++non_empty_refs;
  }
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const SetIdRange range = engine.shards()[s].range;
    if (range.begin == range.end) {
      EXPECT_EQ(stats.per_shard[s].references, 0u) << "empty shard " << s;
    } else {
      EXPECT_EQ(stats.per_shard[s].references, non_empty_refs)
          << "shard " << s;
    }
  }

  // Total() is the slot-wise sum.
  SearchStats manual;
  for (const SearchStats& s : stats.per_shard) manual.Merge(s);
  const SearchStats total = stats.Total();
  EXPECT_EQ(total.references, manual.references);
  EXPECT_EQ(total.verifications, manual.verifications);
  EXPECT_EQ(total.results, manual.results);
  EXPECT_EQ(total.initial_candidates, manual.initial_candidates);

  // The engine's own SearchStats overload reports exactly that sum.
  SearchStats folded;
  engine.DiscoverSelf(&folded);
  EXPECT_EQ(folded.references, total.references);
  EXPECT_EQ(folded.verifications, total.verifications);
  EXPECT_EQ(folded.results, total.results);

  // Shards never overlap, so result counts (pre-dedup search-pass results)
  // sum to exactly what the single-index engine's passes report.
  SilkMoth single(&data, MakeOptions(cfg));
  ASSERT_TRUE(single.ok());
  SearchStats single_stats;
  single.DiscoverSelf(&single_stats);
  EXPECT_EQ(total.results, single_stats.results);

  // The human-readable dump mentions each shard.
  const std::string dump = stats.ToString();
  EXPECT_NE(dump.find("per shard"), std::string::npos);
}

TEST(ShardStats, MergeIsSlotWise) {
  ShardedSearchStats a, b;
  a.Reset(2);
  b.Reset(2);
  a.per_shard[0].references = 3;
  a.per_shard[1].verifications = 5;
  b.per_shard[0].references = 4;
  b.per_shard[1].verifications = 7;
  a.Merge(b);
  EXPECT_EQ(a.per_shard[0].references, 7u);
  EXPECT_EQ(a.per_shard[1].verifications, 12u);
  EXPECT_EQ(a.Total().references, 7u);
  EXPECT_EQ(a.Total().verifications, 12u);

  // Merging into an empty instance adopts the other's shape.
  ShardedSearchStats c;
  c.Merge(a);
  ASSERT_EQ(c.per_shard.size(), 2u);
  EXPECT_EQ(c.per_shard[0].references, 7u);
}

}  // namespace
}  // namespace silkmoth
