#include "core/engine.h"

#include "core/sharded_engine.h"

namespace silkmoth {

namespace {

/// Runs `pass` — a shard driver call taking a ShardedSearchStats* — and,
/// when the caller wants counters, folds the per-shard funnel into `stats`.
template <typename Pass>
auto WithShardTotal(size_t num_shards, SearchStats* stats, Pass pass) {
  if (stats == nullptr) return pass(nullptr);
  ShardedSearchStats sharded;
  sharded.Reset(num_shards);
  auto result = pass(&sharded);
  stats->Merge(sharded.Total());
  return result;
}

}  // namespace

SilkMoth::SilkMoth(const Collection* data, Options options)
    : data_(data), options_(options) {
  error_ = options_.Validate();
  if (!error_.empty()) return;
  // Validate() has already rejected num_shards < 1.
  const std::vector<SetIdRange> ranges = ComputeShardRanges(
      *data_, static_cast<uint32_t>(options_.num_shards));
  indexes_ = BuildShardIndexes(*data_, ranges, options_.num_threads);
  shards_.reserve(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    shards_.push_back(ShardView{ranges[s], &indexes_[s]});
  }
}

const InvertedIndex& SilkMoth::index() const {
  static const InvertedIndex kEmpty;
  return indexes_.empty() ? kEmpty : indexes_.front();
}

std::vector<SearchMatch> SilkMoth::Search(const SetRecord& ref,
                                          SearchStats* stats) const {
  if (!ok()) return {};
  return WithShardTotal(shards_.size(), stats, [&](ShardedSearchStats* st) {
    return SearchAcrossShards(ref, *data_, shards_, options_, st);
  });
}

std::vector<SearchMatch> SilkMoth::SearchTopK(const SetRecord& ref, size_t k,
                                              SearchStats* stats) const {
  if (!ok() || k == 0) return {};
  return WithShardTotal(shards_.size(), stats, [&](ShardedSearchStats* st) {
    return SearchAcrossShards(ref, *data_, shards_, options_, st, k);
  });
}

std::vector<PairMatch> SilkMoth::Discover(const Collection& refs,
                                          SearchStats* stats) const {
  return Discover(ReferenceBlock::External(refs), stats);
}

std::vector<PairMatch> SilkMoth::DiscoverSelf(SearchStats* stats) const {
  return Discover(ReferenceBlock::SelfJoin(*data_), stats);
}

std::vector<PairMatch> SilkMoth::Discover(const ReferenceBlock& block,
                                          SearchStats* stats) const {
  if (!ok()) return {};
  return WithShardTotal(shards_.size(), stats, [&](ShardedSearchStats* st) {
    return DiscoverAcrossShards(block, *data_, shards_, options_, st);
  });
}

}  // namespace silkmoth
