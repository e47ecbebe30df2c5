// Workload registry (src/bench/workload.h) determinism contracts:
// every registered workload yields a byte-identical request stream across
// repeated generations, and RunWorkload's deterministic result fields are
// identical across worker counts {1, 4}.

#include "bench/workload.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/bench_json.h"
#include "bench/runner.h"

namespace silkmoth::bench {
namespace {

TEST(WorkloadRegistryTest, RegistryShape) {
  const auto& all = AllWorkloads();
  EXPECT_GE(all.size(), 6u) << "the CLI contract promises >= 6 workloads";
  std::set<std::string> names;
  for (const WorkloadSpec& spec : all) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.scenario.empty());
    EXPECT_TRUE(names.insert(spec.name).second)
        << "duplicate workload name: " << spec.name;
    EXPECT_GT(spec.requests, 0u) << spec.name;
    EXPECT_GT(spec.batch, 0u) << spec.name;
    EXPECT_GE(spec.workers, 1) << spec.name;
    EXPECT_EQ(spec.options.num_threads, 1)
        << spec.name << ": per-request serving must stay single-threaded; "
        << "concurrency belongs to `workers`";
    const WorkloadSpec* found = FindWorkload(spec.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->scenario, spec.scenario);
  }
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
}

TEST(WorkloadRegistryTest, EveryWorkloadStreamIsReproducible) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const auto a = GenerateRequestStream(spec, spec.corpus_sets);
    const auto b = GenerateRequestStream(spec, spec.corpus_sets);
    EXPECT_EQ(a.size(), spec.requests * spec.batch) << spec.name;
    EXPECT_EQ(SerializeRequestStream(a, spec.batch),
              SerializeRequestStream(b, spec.batch))
        << spec.name;
    EXPECT_EQ(HashRequestStream(a, spec.batch),
              HashRequestStream(b, spec.batch))
        << spec.name;
    for (uint32_t id : a) EXPECT_LT(id, spec.corpus_sets) << spec.name;
  }
}

TEST(WorkloadRegistryTest, ZipfianStreamsSkewTowardLowIds) {
  // The zipfian mix maps ranks directly onto set ids, so the head of the
  // stream's id distribution must sit in the low ids (the documented
  // hot-shard shape).
  const WorkloadSpec* spec = FindWorkload("schema-sim-zipf");
  ASSERT_NE(spec, nullptr);
  const auto stream = GenerateRequestStream(*spec, spec->corpus_sets);
  size_t low = 0;
  for (uint32_t id : stream) low += id < spec->corpus_sets / 10 ? 1 : 0;
  EXPECT_GT(low * 2, stream.size())
      << "zipf(0.99) should put most draws in the lowest decile";
}

/// Shrinks a registry spec to test scale, preserving its scenario shape.
WorkloadSpec Shrunken(const WorkloadSpec& spec) {
  WorkloadSpec s = spec;
  s.corpus_sets = 150;
  s.requests = 12;
  s.batch = 2;
  s.sustained_seconds = 0.05;
  return s;
}

/// The deterministic projection of a BenchResult: everything the JSON
/// contract keeps outside "timing".
std::string DeterministicFields(const BenchResult& r) {
  std::string out;
  out += "sets=" + std::to_string(r.corpus_sets);
  out += " elems=" + std::to_string(r.corpus_elements);
  out += " tokens=" + std::to_string(r.corpus_tokens);
  out += " hash=" + std::to_string(r.request_stream_hash);
  out += " oov=" + std::to_string(r.pool_oov_tokens);
  out += " pairs=" + std::to_string(r.pairs_per_round);
  out += " funnel=" + r.funnel.Total().CountersJson();
  for (const SearchStats& s : r.funnel.per_shard) {
    out += " shard=" + std::to_string(s.results);
  }
  return out;
}

TEST(WorkloadRegistryTest, RunWorkloadDeterministicAcrossWorkerCounts) {
  // Every registered scenario, shrunk to test scale, run at workers 1 and
  // 4: the deterministic projection must match exactly. This is the
  // closed-loop/sustained round-0 contract end to end — stream slicing,
  // per-worker stats, and the commutative merge.
  for (const WorkloadSpec& spec : AllWorkloads()) {
    WorkloadSpec one = Shrunken(spec);
    one.workers = 1;
    WorkloadSpec four = Shrunken(spec);
    four.workers = 4;

    BenchResult r1, r4;
    ASSERT_EQ(RunWorkload(one, &r1), "") << spec.name;
    ASSERT_EQ(RunWorkload(four, &r4), "") << spec.name;
    EXPECT_EQ(DeterministicFields(r1), DeterministicFields(r4)) << spec.name;
    EXPECT_GE(r1.completed_requests, one.requests) << spec.name;
    EXPECT_EQ(r1.latency.Count(), r1.completed_requests) << spec.name;
  }
}

TEST(WorkloadRegistryTest, TopKLaneAnswersAlikeAtEveryShardCount) {
  // The top-k lane runs at any shard count: each shard keeps its own k best
  // and the union is cut to k, so a round reports the same pairs. The
  // funnel grows one slot per shard, each stamped with the query sets.
  const WorkloadSpec* registered = FindWorkload("columns-cont-topk");
  ASSERT_NE(registered, nullptr);
  WorkloadSpec one = Shrunken(*registered);
  WorkloadSpec three = one;
  three.options.num_shards = 3;
  BenchResult r1, r3;
  ASSERT_EQ(RunWorkload(one, &r1), "");
  ASSERT_EQ(RunWorkload(three, &r3), "");
  EXPECT_GT(r1.pairs_per_round, 0u);
  EXPECT_EQ(r3.pairs_per_round, r1.pairs_per_round);
  ASSERT_EQ(r3.funnel.per_shard.size(), 3u);
  for (const SearchStats& s : r3.funnel.per_shard) {
    EXPECT_EQ(s.query_sets, r1.funnel.per_shard[0].query_sets);
  }
}

TEST(WorkloadRegistryTest, BenchJsonStripTimingIsReproducible) {
  // Two same-spec runs: the emitted JSON must be byte-identical outside the
  // "timing" object. Compared structurally by splicing the timing section
  // out of the raw text (it is a single top-level key, last in the object).
  const WorkloadSpec* registered = FindWorkload("columns-cont-uniform");
  ASSERT_NE(registered, nullptr);
  const WorkloadSpec spec = Shrunken(*registered);
  BenchResult a, b;
  ASSERT_EQ(RunWorkload(spec, &a), "");
  ASSERT_EQ(RunWorkload(spec, &b), "");
  std::string ja = BenchResultToJson(a);
  std::string jb = BenchResultToJson(b);
  const auto strip = [](std::string* s) {
    const size_t pos = s->find("\"timing\"");
    ASSERT_NE(pos, std::string::npos);
    s->erase(pos);
  };
  strip(&ja);
  strip(&jb);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"bench_schema_version\": 1"), std::string::npos);
}

}  // namespace
}  // namespace silkmoth::bench
