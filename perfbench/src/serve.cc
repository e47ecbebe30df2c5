// serve-titles-mixed: a resident ServeEngine over a 2-shard title snapshot,
// driven open-loop by one generator thread on a seeded Poisson schedule,
// with a live 8-title ingest about every half second. Phase 1 holds a fixed
// low base rate for latency; phase 2 bisects a fixed geometric rate grid for
// the highest rate that still meets the latency limit.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench/workload.h"
#include "core/sharded_engine.h"
#include "datagen/io.h"
#include "serve/server.h"
#include "snapshot/delta_shard.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workloads.h"

namespace perfbench {

using namespace silkmoth;

namespace {

struct ServeConfig {
  size_t corpus_sets = 0;
  uint32_t shards = 0;
  int workers = 0;
  double zipf_skew = 0.0;
  double oov_fraction = 0.0;
  size_t batch_sets = 0;
  double ingest_interval_ms = 0.0;
  double ping_interval_ms = 0.0;
  double base_rate = 0.0;
  double p99_limit_ms = 0.0;
  std::vector<double> grid;
};

/// One scheduled event of the open-loop sequence.
struct Event {
  enum Kind { kQuery, kIngest, kPing } kind = kQuery;
  double at_ms = 0.0;   ///< Offset from the phase start.
  size_t payload = 0;   ///< Query index into the payload table.
};

/// What the generator and the workers record about one query.
struct QueryRecord {
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point done;
  size_t acked_before = 0;  ///< Ingest batches acknowledged before sending.
  size_t started_after = 0; ///< Batches whose ingest had started (and so
                            ///< may have been published) when the response
                            ///< arrived: the newest state it could have seen.
  serve::FrameType type = serve::FrameType::kResult;
  std::string body;
  size_t payload = 0;
};

/// The query payload table: zipfian titles, a seeded quarter of them with
/// one word replaced by digits whose q-grams no title contains.
std::vector<RawSets> MakePayloads(const RawSets& corpus, size_t count,
                                  const ServeConfig& sc, uint64_t seed) {
  Rng rng(seed);
  const ZipfDistribution zipf(corpus.size(), sc.zipf_skew);
  std::vector<RawSets> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<std::string> title = corpus[zipf.Sample(&rng)];
    if (rng.NextDouble() < sc.oov_fraction && !title.empty()) {
      std::string word;
      const size_t len = 5 + rng.NextBounded(4);
      for (size_t c = 0; c < len; ++c) {
        word += static_cast<char>('0' + rng.NextBounded(10));
      }
      title[rng.NextBounded(title.size())] = word;
    }
    out.push_back(RawSets{std::move(title)});
  }
  return out;
}

/// The open-loop schedule of one phase: Poisson queries at `rate`, an
/// ingest every ingest interval and a queue-depth ping every ping interval.
/// With `fixed` empty the phase lasts `seconds` and draws payloads from the
/// whole table; otherwise it sends exactly the payloads in `fixed`, in that
/// order, and lasts until the last of them.
std::vector<Event> MakeSchedule(double rate, double seconds,
                                const ServeConfig& sc, uint64_t seed,
                                size_t payloads,
                                const std::vector<size_t>& fixed) {
  Rng rng(seed);
  std::vector<Event> ev;
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) * 1000.0 / rate;
    if (fixed.empty() ? t >= seconds * 1000.0 : i == fixed.size()) break;
    ev.push_back(Event{Event::kQuery, t,
                       fixed.empty() ? rng.NextBounded(payloads) : fixed[i]});
  }
  const double end_ms = fixed.empty() ? seconds * 1000.0 : t;
  for (double at = sc.ingest_interval_ms / 2; at < end_ms;
       at += sc.ingest_interval_ms) {
    ev.push_back(Event{Event::kIngest, at, 0});
  }
  for (double at = 0; at < end_ms; at += sc.ping_interval_ms) {
    ev.push_back(Event{Event::kPing, at, 0});
  }
  std::stable_sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    return a.at_ms < b.at_ms;
  });
  return ev;
}

std::string Encode(const RawSets& sets) {
  std::ostringstream out;
  WriteRawSets(sets, out);
  return out.str();
}

std::string PairLines(const std::vector<PairMatch>& pairs) {
  std::string out;
  char buf[96];
  for (const PairMatch& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%u\t%u\t%.6f\t%.6f\n", p.ref_id,
                  p.set_id, p.matching_score, p.relatedness);
    out += buf;
  }
  return out;
}

/// Drives one ServeEngine from the calling thread.
class Generator {
 public:
  Generator(serve::ServeEngine* engine, const std::vector<std::string>* bodies,
            const std::vector<std::string>* batches, Tracer* tracer)
      : engine_(engine), bodies_(bodies), batches_(batches), tracer_(tracer) {}

  struct PhaseResult {
    std::vector<QueryRecord> queries;
    std::vector<double> ingest_ms;
    std::vector<double> late_ms;
    std::vector<double> depth;
    size_t ingest_failures = 0;
    size_t outstanding_at_end = 0;  ///< Unanswered after the last send.
  };

  /// Runs `events` open-loop and waits until every query is answered.
  PhaseResult Run(const std::vector<Event>& events, bool spans) {
    PhaseResult res;
    size_t nq = 0;
    for (const Event& e : events) nq += e.kind == Event::kQuery;
    res.queries.resize(nq);
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_ = nq;
    }
    const Clock::time_point start = Clock::now();
    size_t qi = 0;
    for (const Event& e : events) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(e.at_ms));
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      res.late_ms.push_back(MsBetween(due, now));
      if (e.kind == Event::kQuery) {
        QueryRecord* rec = &res.queries[qi];
        rec->scheduled = due;
        rec->payload = e.payload;
        rec->acked_before = acked_.load();
        serve::Frame f;
        f.type = serve::FrameType::kQuery;
        f.request_id = next_id_++;
        f.body = (*bodies_)[e.payload];
        const uint64_t id = f.request_id;
        rec->sent = Clock::now();
        engine_->Submit(std::move(f), [this, rec, spans, id](serve::Frame resp) {
          rec->done = Clock::now();
          rec->started_after = started_.load();
          rec->type = resp.type;
          rec->body = std::move(resp.body);
          if (spans) tracer_->Add("serve.Submit", rec->sent, rec->done, -1, id);
          std::lock_guard<std::mutex> lk(mu_);
          if (--pending_ == 0) cv_.notify_all();
        });
        ++qi;
      } else if (e.kind == Event::kIngest) {
        const size_t batch = acked_.load();
        if (batch >= batches_->size()) continue;
        serve::Frame f;
        f.type = serve::FrameType::kIngest;
        f.request_id = next_id_++;
        f.body = (*batches_)[batch];
        bool ok = false;
        // Stored before Submit publishes the new generation, so a worker
        // that serves on it already sees the count.
        started_.store(batch + 1);
        const Clock::time_point a = Clock::now();
        engine_->Submit(std::move(f), [&ok](serve::Frame resp) {
          ok = resp.type == serve::FrameType::kIngested;
        });
        const Clock::time_point b = Clock::now();
        if (spans) tracer_->Add("serve.Ingest", a, b, -1, batch);
        res.ingest_ms.push_back(MsBetween(a, b));
        if (ok) {
          acked_.fetch_add(1);
        } else {
          started_.store(batch);
          ++res.ingest_failures;
        }
      } else {
        serve::Frame f;
        f.type = serve::FrameType::kPing;
        f.request_id = next_id_++;
        std::string body;
        engine_->Submit(std::move(f),
                        [&body](serve::Frame resp) { body = resp.body; });
        const size_t at = body.find("\"queue_depth\":");
        if (at != std::string::npos) {
          res.depth.push_back(std::strtod(body.c_str() + at + 14, nullptr));
        }
      }
    }
    std::unique_lock<std::mutex> lk(mu_);
    res.outstanding_at_end = pending_;
    cv_.wait(lk, [this] { return pending_ == 0; });
    return res;
  }

  size_t acked() const { return acked_.load(); }

 private:
  serve::ServeEngine* engine_;
  const std::vector<std::string>* bodies_;
  const std::vector<std::string>* batches_;
  Tracer* tracer_;
  uint64_t next_id_ = 1;
  std::atomic<size_t> acked_{0};
  std::atomic<size_t> started_{0};
  std::mutex mu_;  // Guards pending_.
  std::condition_variable cv_;
  size_t pending_ = 0;
};

std::vector<double> Latencies(const std::vector<QueryRecord>& qs) {
  std::vector<double> v;
  v.reserve(qs.size());
  for (const QueryRecord& q : qs) v.push_back(MsBetween(q.scheduled, q.done));
  return v;
}

/// The corpus state a request could have seen, rebuilt outside the engine:
/// an in-memory snapshot of the base plus the acknowledged batches, applied
/// in order through the same DeltaShard calls the daemon makes.
class ReferenceState {
 public:
  ReferenceState(const RawSets& corpus, const std::vector<RawSets>* batches,
                 const ServeConfig& sc, const Options& options)
      : batches_(batches), options_(options) {
    q_ = options.EffectiveQ();
    snap_ = BuildSnapshot(BuildCollection(corpus, TokenizerKind::kQGram, q_),
                          TokenizerKind::kQGram, q_, sc.shards);
    Publish();
  }

  /// Advances to `batches` acknowledged batches (never backwards).
  void AdvanceTo(size_t batches, Tracer* tracer) {
    while (applied_ < batches && applied_ < batches_->size()) {
      std::string err;
      const Clock::time_point a = Clock::now();
      if (delta_ == nullptr) {
        auto fresh = std::make_shared<DeltaShard>(&snap_.data,
                                                  TokenizerKind::kQGram, q_);
        err = fresh->Ingest((*batches_)[applied_]);
        delta_ = std::move(fresh);
      } else {
        delta_ = delta_->WithIngested((*batches_)[applied_], &err);
      }
      const Clock::time_point b = Clock::now();
      if (delta_ == nullptr || !err.empty()) {
        throw std::runtime_error("reference ingest failed: " + err);
      }
      ingest_ms_.push_back(MsBetween(a, b));
      tracer->Add("snapshot.WithIngested", a, b, -1, applied_);
      ++applied_;
      Publish();
    }
  }

  const Collection& corpus() const {
    return delta_ != nullptr ? delta_->combined() : snap_.data;
  }
  const std::vector<ShardView>& views() const { return views_; }
  size_t dict_size() const { return corpus().dict->size(); }
  int q() const { return q_; }
  const std::vector<double>& ingest_ms() const { return ingest_ms_; }

  /// The direct answer: the same pair lines a kResult body carries.
  std::string Answer(const RawSets& payload) const {
    Collection query;
    const ReferenceBlock block = BuildQueryBlock(payload, TokenizerKind::kQGram,
                                                 q_, corpus(), &query);
    ShardedSearchStats stats;
    stats.Reset(views_.size());
    return PairLines(
        DiscoverAcrossShards(block, corpus(), views_, options_, &stats));
  }

 private:
  void Publish() {
    views_.clear();
    for (const Snapshot::Shard& s : snap_.shards) {
      views_.push_back(ShardView{s.range, &s.index});
    }
    if (delta_ != nullptr && delta_->delta_sets() > 0) {
      views_.push_back(delta_->View());
    }
  }

  const std::vector<RawSets>* batches_;
  Options options_;
  int q_ = 0;
  Snapshot snap_;
  std::shared_ptr<const DeltaShard> delta_;
  std::vector<ShardView> views_;
  size_t applied_ = 0;
  std::vector<double> ingest_ms_;
};

std::string StagesJson(const std::vector<std::pair<double, bool>>& stages,
                       const std::vector<double>& p99s) {
  std::string out = "[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"rate_rps\":" + JsonNumber(stages[i].first) +
           ",\"p99_ms\":" + JsonNumber(p99s[i]) +
           ",\"pass\":" + (stages[i].second ? "true" : "false") + "}";
  }
  return out + "]";
}

}  // namespace

Report RunServe(const RunConfig& cfg) {
  const Params& p = cfg.params;
  Report report;
  Tracer tracer(cfg.trace);
  ServeConfig sc;
  sc.corpus_sets = static_cast<size_t>(p.Int("corpus_sets"));
  sc.shards = static_cast<uint32_t>(p.Int("shards"));
  sc.workers = static_cast<int>(p.Int("workers"));
  sc.zipf_skew = p.Num("zipf_skew");
  sc.oov_fraction = p.Num("oov_fraction");
  sc.batch_sets = static_cast<size_t>(p.Int("ingest_batch_sets"));
  sc.ingest_interval_ms = p.Num("ingest_interval_ms");
  sc.ping_interval_ms = p.Num("ping_interval_ms");
  sc.base_rate = p.Num("base_rate_rps");
  sc.p99_limit_ms = p.Num("p99_limit_ms");
  {
    const double lo = p.Num("grid_min_rps");
    const double step = p.Num("grid_step");
    const int points = static_cast<int>(p.Int("grid_points"));
    for (int i = 0; i < points; ++i) sc.grid.push_back(lo * std::pow(step, i));
  }
  const double warmup_s = p.Num("warmup_seconds");
  const double stage_s = p.Num("stage_seconds");

  Options options;
  options.metric = Relatedness::kSimilarity;
  options.phi = SimilarityKind::kEds;
  options.delta = p.Num("delta");
  options.alpha = p.Num("alpha");
  const int q = options.EffectiveQ();

  // Inputs: the corpus, held-out titles for ingest (enough batches for the
  // whole run) and the payload table are fixed per workload by corpus_seed.
  // The run seed draws the arrival times, the order of the base phase's
  // payloads, the payloads of the other phases and every sample. The base
  // phase always sends the same multiset of payloads (the table's first
  // entries), so its latency tail does not depend on which heavy titles a
  // seed happens to draw.
  const double run_ms = (warmup_s + 2 * cfg.seconds) * 1000.0;
  const size_t max_batches =
      static_cast<size_t>(run_ms / sc.ingest_interval_ms) + 2;
  RawSets raw = bench::GenerateCorpusRaw(
      bench::CorpusKind::kDblpTitles,
      sc.corpus_sets + max_batches * sc.batch_sets,
      static_cast<uint64_t>(p.Int("corpus_seed")));
  std::vector<RawSets> batches;
  std::vector<std::string> batch_bodies;
  for (size_t b = 0; b < max_batches; ++b) {
    const auto first = raw.begin() +
                       static_cast<long>(sc.corpus_sets + b * sc.batch_sets);
    batches.emplace_back(first, first + static_cast<long>(sc.batch_sets));
    batch_bodies.push_back(Encode(batches.back()));
  }
  raw.resize(sc.corpus_sets);
  const std::vector<RawSets> payloads =
      MakePayloads(raw, static_cast<size_t>(p.Int("payloads")), sc,
                   SubSeed(static_cast<uint64_t>(p.Int("corpus_seed")),
                           "serve-payloads"));
  // Bisection over the grid takes ceil(log2(points)) stages; the base
  // phase gets the rest of the window.
  const int stages_n = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(sc.grid.size()))));
  const double base_window_s = std::max(1.0, cfg.seconds - stages_n * stage_s);
  std::vector<size_t> base_order(
      static_cast<size_t>(std::lround(base_window_s * sc.base_rate)));
  {
    Rng order_rng(SubSeed(cfg.seed, "serve-base-order"));
    for (size_t i = 0; i < base_order.size(); ++i) base_order[i] = i;
    for (size_t i = base_order.size(); i > 1; --i) {
      std::swap(base_order[i - 1], base_order[order_rng.NextBounded(i)]);
    }
  }
  std::vector<std::string> bodies;
  for (const RawSets& pl : payloads) bodies.push_back(Encode(pl));

  serve::ServeOptions so;
  so.query = options;
  so.workers = sc.workers;
  const std::string dir = cfg.workdir;

  // Cold set-up in fresh children: tokenize, build the sharded snapshot,
  // save it, start an engine from the file (mmap load), stop it.
  auto setup = [&](const std::string& path) {
    Snapshot snap =
        BuildSnapshot(BuildCollection(raw, TokenizerKind::kQGram, q),
                      TokenizerKind::kQGram, q, sc.shards);
    std::string err = SaveSnapshot(snap, path);
    if (!err.empty()) throw std::runtime_error(err);
    serve::ServeOptions o = so;
    o.snapshot_path = path;
    serve::ServeEngine engine(o);
    err = engine.Start();
    if (!err.empty()) throw std::runtime_error(err);
    engine.Stop();
  };
  // Half of the children run before the timed window and half after it.
  const std::string cold_path =
      dir + "/cold-" + std::to_string(getpid()) + ".snap";
  auto cold_setup = [&] { setup(cold_path); };
  const int cold_n = static_cast<int>(p.Int("cold_setups"));
  std::vector<double> setups;
  ColdSetups(cold_n / 2, cold_setup, &setups);
  std::string err;

  // The measured engine, with set-up spans for the traced run.
  const std::string path = dir + "/serve-" + std::to_string(getpid()) + ".snap";
  Clock::time_point t0 = Clock::now();
  Collection corpus = BuildCollection(raw, TokenizerKind::kQGram, q);
  Clock::time_point t1 = Clock::now();
  tracer.Add("datagen.BuildCollection", t0, t1, -1, 0);
  if (cfg.trace) {
    const Clock::time_point a = Clock::now();
    BuildShardIndexes(corpus, ComputeShardRanges(corpus, sc.shards), 1);
    tracer.Add("index.BuildShardIndexes", a, Clock::now(), -1, 0);
  }
  t0 = Clock::now();
  {
    const Snapshot snap =
        BuildSnapshot(std::move(corpus), TokenizerKind::kQGram, q, sc.shards);
    err = SaveSnapshot(snap, path);
    if (!err.empty()) throw std::runtime_error(err);
  }
  t1 = Clock::now();
  tracer.Add("snapshot.BuildSave", t0, t1, -1, 0);
  if (cfg.trace) {
    Snapshot loaded;
    const Clock::time_point a = Clock::now();
    err = LoadSnapshot(path, &loaded);
    tracer.Add("snapshot.LoadSnapshot", a, Clock::now(), -1, 0);
    if (!err.empty()) throw std::runtime_error(err);
  }
  so.snapshot_path = path;
  serve::ServeEngine engine(so);
  err = engine.Start();
  std::remove(path.c_str());
  if (!err.empty()) throw std::runtime_error(err);

  Generator gen(&engine, &bodies, &batch_bodies, &tracer);
  uint64_t sched_seed = SubSeed(cfg.seed, "serve-schedule");
  gen.Run(MakeSchedule(sc.base_rate, warmup_s, sc, sched_seed ^ 1,
                       payloads.size(), {}),
          false);
  const size_t batches_before_base = gen.acked();

  // Phase 1: the fixed base rate. A traced run spends its first half
  // without spans and its second half with them.
  const std::vector<Event> base_events = MakeSchedule(
      sc.base_rate, 0.0, sc, sched_seed ^ 2, payloads.size(), base_order);
  const double half_ms = base_events.back().at_ms / 2;
  std::vector<Event> first_half, second_half;
  for (const Event& e : base_events) {
    (cfg.trace && e.at_ms >= half_ms ? second_half : first_half).push_back(e);
  }
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point base_start = Clock::now();
  Generator::PhaseResult base = gen.Run(first_half, false);
  Generator::PhaseResult traced;
  if (cfg.trace) {
    for (Event& e : second_half) e.at_ms -= half_ms;
    traced = gen.Run(second_half, true);
  }
  // Engine workers plus the generator, over the base phase.
  const double busy_pct =
      100.0 * (ProcessCpuSeconds() - cpu0) * 1000.0 /
      (MsBetween(base_start, Clock::now()) * (sc.workers + 1));

  // Phase 2 (untraced runs only): bisect the rate grid.
  std::vector<std::pair<double, bool>> stages;
  std::vector<double> stage_p99;
  int lo = -1, hi = static_cast<int>(sc.grid.size());
  while (!cfg.trace && hi - lo > 1 &&
         static_cast<int>(stages.size()) < stages_n) {
    const int mid = (lo + hi) / 2;
    const double rate = sc.grid[static_cast<size_t>(mid)];
    const Generator::PhaseResult st = gen.Run(
        MakeSchedule(rate, stage_s, sc, sched_seed ^ (100 + mid),
                     payloads.size(), {}),
        false);
    size_t bad = 0;
    for (const QueryRecord& r : st.queries) {
      bad += r.type != serve::FrameType::kResult;
    }
    const double p99 = Quantile(Latencies(st.queries), 0.99);
    const bool pass = p99 <= sc.p99_limit_ms && bad == 0 &&
                      st.ingest_failures == 0 &&
                      static_cast<double>(st.outstanding_at_end) <=
                          std::max(2.0 * sc.workers,
                                   rate * sc.p99_limit_ms / 1000.0);
    stages.emplace_back(rate, pass);
    stage_p99.push_back(p99);
    (pass ? lo : hi) = mid;
  }
  engine.Stop();
  ColdSetups(cold_n - cold_n / 2, cold_setup, &setups);
  std::remove(cold_path.c_str());

  // Failures at the base rate: refused, expired and errored queries,
  // failed ingests, and answers that differ from the direct answer.
  std::vector<QueryRecord> all = base.queries;
  all.insert(all.end(), traced.queries.begin(), traced.queries.end());
  size_t refused = 0, expired = 0, errors = 0;
  for (const QueryRecord& r : all) {
    if (r.type == serve::FrameType::kOverloaded) {
      ++refused;
    } else if (r.type == serve::FrameType::kDeadlineExceeded) {
      ++expired;
    } else if (r.type != serve::FrameType::kResult) {
      ++errors;
    }
  }
  report.attempted = all.size() + base.ingest_ms.size() + traced.ingest_ms.size();
  report.failed = refused + expired + errors + base.ingest_failures +
                  traced.ingest_failures;

  // Answer checks, outside the timed windows: walk the base phase in
  // schedule order over a reference state that follows the acknowledged
  // batches; a sampled response must equal the direct answer at some state
  // between the batches acknowledged before it was sent and those whose
  // ingest had started when it returned.
  const size_t check_n = static_cast<size_t>(p.Int("check_queries"));
  const size_t trace_n = static_cast<size_t>(p.Int("trace_queries"));
  std::vector<bool> checked(all.size(), false);
  Rng sample_rng(SubSeed(cfg.seed, "serve-sample"));
  for (size_t c = 0; c < check_n && !base.queries.empty(); ++c) {
    checked[sample_rng.NextBounded(base.queries.size())] = true;
  }
  // The traced run replays a fixed prefix of the traced half.
  const size_t replay_begin = base.queries.size();
  const size_t replay_end = std::min(all.size(), replay_begin + trace_n);
  ReferenceState ref(raw, &batches, sc, options);
  ref.AdvanceTo(batches_before_base, &tracer);
  SearchStats replay_total;
  StageCounters split;
  std::vector<double> block_us, request_ms;
  size_t checks_done = 0;
  size_t dict_growth = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const QueryRecord& r = all[i];
    const bool replay = cfg.trace && i >= replay_begin && i < replay_end;
    if (!checked[i] && !replay) continue;
    ref.AdvanceTo(r.acked_before, &tracer);
    const RawSets& payload = payloads[r.payload];
    if (checked[i] && r.type == serve::FrameType::kResult) {
      ++checks_done;
      bool match = ref.Answer(payload) == r.body;
      if (!match && r.started_after > r.acked_before) {
        // The request may have run on a later generation; check it against
        // the states published while it was in flight, on a copy.
        ReferenceState later(raw, &batches, sc, options);
        later.AdvanceTo(r.acked_before, &tracer);
        for (size_t b = r.acked_before + 1; b <= r.started_after && !match;
             ++b) {
          later.AdvanceTo(b, &tracer);
          match = later.Answer(payload) == r.body;
        }
      }
      if (!match) {
        report.Mismatch("serve query " + std::to_string(i) +
                        " differs from the direct answer");
      }
    }
    if (replay) {
      // Tokenize, then one stage replay per view; the entry call is the
      // direct DiscoverAcrossShards over the same state.
      const size_t dict0 = ref.dict_size();
      Collection query;
      const Clock::time_point a = Clock::now();
      const ReferenceBlock block = BuildQueryBlock(
          payload, TokenizerKind::kQGram, ref.q(), ref.corpus(), &query);
      const Clock::time_point b = Clock::now();
      tracer.Add("datagen.BuildQueryBlock", a, b, -1, i);
      block_us.push_back(MsBetween(a, b) * 1000.0);
      dict_growth += ref.dict_size() - dict0;
      const std::vector<ShardView>& views = ref.views();
      ShardedSearchStats entry;
      entry.Reset(views.size());
      const std::vector<PairMatch> want =
          DiscoverAcrossShards(block, ref.corpus(), views, options, &entry);
      std::vector<PairMatch> again;
      SearchStats replay_stats;
      QueryScratch scratch;
      for (const ShardView& v : views) {
        if (v.range.begin == v.range.end) continue;
        for (const SearchMatch& m : ReplaySearchPass(
                 query.sets[0], ref.corpus(), *v.index, options, kNoExclude,
                 &replay_stats, &scratch, v.range, 0, &tracer, -1, i,
                 &split)) {
          again.push_back(PairMatch{0, m.set_id, m.matching_score,
                                    m.relatedness});
        }
      }
      std::sort(again.begin(), again.end(), PairMatchIdLess);
      SearchStats entry_total = entry.Total();
      entry_total.query_sets = 0;
      entry_total.oov_tokens = 0;
      if (again != want || !SameCounters(entry_total, replay_stats)) {
        report.Mismatch("replay of serve query " + std::to_string(i) +
                        " differs from DiscoverAcrossShards");
      }
      replay_total.Merge(replay_stats);
      request_ms.push_back(MsBetween(r.sent, r.done));
    }
  }
  report.attempted += checks_done;

  Digest digest;
  for (const QueryRecord& r : all) digest.Add(r.body);
  const std::vector<double> base_lat = Latencies(base.queries);
  std::vector<double> ingest_ms = base.ingest_ms;
  ingest_ms.insert(ingest_ms.end(), traced.ingest_ms.begin(),
                   traced.ingest_ms.end());
  std::vector<double> late = base.late_ms;
  late.insert(late.end(), traced.late_ms.begin(), traced.late_ms.end());
  std::vector<double> depth = base.depth;
  depth.insert(depth.end(), traced.depth.begin(), traced.depth.end());
  double mean_depth = 0.0;
  for (double d : depth) mean_depth += d;
  if (!depth.empty()) mean_depth /= static_cast<double>(depth.size());
  const double max_rate = lo >= 0 ? sc.grid[static_cast<size_t>(lo)]
                                  : sc.grid.front() / p.Num("grid_step");

  if (cfg.trace) {
    DeclareAllLayers(&report);
    const size_t n = request_ms.size();
    PutCounterLayers(replay_total, split, &report);
    const double queue_wait_ms = mean_depth / (sc.base_rate / 1000.0);
    double mean_request = 0.0;
    for (double v : request_ms) mean_request += v;
    if (n > 0) mean_request /= static_cast<double>(n);
    double mean_block_ms = 0.0;
    for (double v : block_us) mean_block_ms += v / 1000.0;
    if (n > 0) mean_block_ms /= static_cast<double>(n);
    PutStageLayers(tracer, n > 0 ? 1.0 / static_cast<double>(n) : 0.0,
                   mean_request, queue_wait_ms + mean_block_ms, &report);
    report.Layer("serve.queue_wait_ms", queue_wait_ms, "ms", depth.size());
    report.Layer("serve.ingest_frame_ms", Quantile(traced.ingest_ms, 0.5),
                 "ms", traced.ingest_ms.size());
    report.Layer("serve.refused", static_cast<double>(refused), "count",
                 all.size());
    report.Layer("serve.expired", static_cast<double>(expired), "count",
                 all.size());
    report.Layer("serve.errors", static_cast<double>(errors), "count",
                 all.size());
    report.Layer("serve.generator_late_ms", Quantile(late, 0.99), "ms",
                 late.size());
    const auto agg = tracer.Aggregate();
    report.Layer("snapshot.build_ms", agg.at("snapshot.BuildSave").total_ms,
                 "ms", 1);
    report.Layer("snapshot.load_ms", agg.at("snapshot.LoadSnapshot").total_ms,
                 "ms", 1);
    report.Layer("snapshot.ingest_ms", Quantile(ref.ingest_ms(), 0.5), "ms",
                 ref.ingest_ms().size());
    report.Layer("snapshot.delta_sets",
                 static_cast<double>(gen.acked() * sc.batch_sets), "count", 1);
    report.Layer("datagen.build_collection_ms",
                 agg.at("datagen.BuildCollection").total_ms, "ms", 1);
    report.Layer("datagen.query_block_us", Quantile(block_us, 0.5), "us",
                 block_us.size());
    report.Layer("datagen.dict_growth_tokens", static_cast<double>(dict_growth),
                 "count", n);
    report.Layer("index.build_ms", agg.at("index.BuildShardIndexes").total_ms,
                 "ms", 1);
    size_t pairs = 0;
    for (size_t i = replay_begin; i < replay_end; ++i) {
      pairs += static_cast<size_t>(
          std::count(all[i].body.begin(), all[i].body.end(), '\n'));
    }
    report.Layer("core.pairs", static_cast<double>(pairs), "count", n);
    report.Layer("core.cpu_busy_pct", busy_pct, "%", 1);
    const double untraced = Quantile(Latencies(base.queries), 0.5);
    report.Layer("trace.overhead_pct",
                 untraced > 0 ? 100.0 * (Quantile(Latencies(traced.queries),
                                                  0.5) -
                                         untraced) /
                                    untraced
                              : 0.0,
                 "%", traced.queries.size());
  } else {
    report.Put("setup_s", Quantile(setups, 0.5), "s", setups.size());
    report.Put("query_p50_ms", Quantile(base_lat, 0.5), "ms", base_lat.size());
    report.Put("query_p99_ms", Quantile(base_lat, 0.99), "ms", base_lat.size());
    report.Put("throughput_per_s", max_rate, "1/s", stages.size());
  }
  WriteTrace(tracer, cfg);
  std::vector<double> sent_to_done;
  for (const QueryRecord& r : base.queries) {
    sent_to_done.push_back(MsBetween(r.sent, r.done));
  }
  report.health["base_sent_to_done_p50_ms"] =
      JsonNumber(Quantile(sent_to_done, 0.5));
  report.health["base_sent_to_done_p99_ms"] =
      JsonNumber(Quantile(sent_to_done, 0.99));
  report.health["ingest_p50_ms"] = JsonNumber(Quantile(ingest_ms, 0.5));
  report.health["ingest_samples"] = std::to_string(ingest_ms.size());
  report.health["digest"] = JsonString(digest.Hex());
  report.health["setup_samples_s"] = JsonArray(setups);
  report.health["grid_stages"] = StagesJson(stages, stage_p99);
  report.health["generator_late_ms_max"] =
      JsonNumber(late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  report.health["generator_late_ms_p99"] = JsonNumber(Quantile(late, 0.99));
  report.health["queue_depth_mean"] = JsonNumber(mean_depth);
  report.health["queue_depth_max"] = JsonNumber(
      depth.empty() ? 0.0 : *std::max_element(depth.begin(), depth.end()));
  report.health["queue_depth_samples"] = std::to_string(depth.size());
  report.health["refused"] = std::to_string(refused);
  report.health["expired"] = std::to_string(expired);
  report.health["errors"] = std::to_string(errors);
  report.health["checked"] = std::to_string(checks_done);
  report.health["batches_acked"] = std::to_string(gen.acked());
  return report;
}

}  // namespace perfbench
