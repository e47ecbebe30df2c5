// Per-layer bookkeeping shared by the workloads: the full metric list, the
// work counters, the stage self times and the span dump.
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

using namespace silkmoth;

uint64_t SubSeed(uint64_t seed, const char* purpose) {
  Digest d;
  d.Add(std::to_string(seed));
  d.Add(purpose);
  return d.h;
}

void DeclareAllLayers(Report* report) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"serve.queue_wait_ms", "ms"},
      {"serve.ingest_frame_ms", "ms"},
      {"serve.refused", "count"},
      {"serve.expired", "count"},
      {"serve.errors", "count"},
      {"serve.generator_late_ms", "ms"},
      {"snapshot.build_ms", "ms"},
      {"snapshot.load_ms", "ms"},
      {"snapshot.ingest_ms", "ms"},
      {"snapshot.delta_sets", "count"},
      {"datagen.build_collection_ms", "ms"},
      {"datagen.query_block_us", "us"},
      {"datagen.dict_growth_tokens", "count"},
      {"index.build_ms", "ms"},
      {"index.candidates_touched", "count"},
      {"sig.generate_ms", "ms"},
      {"sig.probe_tokens", "count"},
      {"sig.fallback_scans", "count"},
      {"filter.select_check_ms", "ms"},
      {"filter.nn_ms", "ms"},
      {"filter.after_size", "count"},
      {"filter.after_check", "count"},
      {"filter.after_nn", "count"},
      {"filter.check_pass_ratio", "ratio"},
      {"filter.nn_pass_ratio", "ratio"},
      {"filter.similarity_calls", "count"},
      {"matching.verify_ms", "ms"},
      {"matching.verifications", "count"},
      {"matching.similarity_calls", "count"},
      {"matching.bound_rejects", "count"},
      {"matching.bound_accepts", "count"},
      {"matching.tier2_accepts", "count"},
      {"matching.floor_rejects", "count"},
      {"matching.exact_solves", "count"},
      {"matching.reporting_solves", "count"},
      {"matching.accept_ratio", "ratio"},
      {"core.self_ms", "ms"},
      {"core.cpu_busy_pct", "%"},
      {"core.pairs", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.residual_ms", "ms"},
      {"trace.residual_pct", "%"},
  };
  for (const auto& [name, unit] : kLayers) report->Layer(name, 0.0, unit, 0);
}

void PutCounterLayers(const SearchStats& s, const StageCounters& split,
                      Report* report) {
  const size_t n = s.references;
  auto ratio = [](size_t num, size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  auto count = [&](const char* name, size_t v) {
    report->Layer(name, static_cast<double>(v), "count", n);
  };
  count("index.candidates_touched", s.initial_candidates);
  count("sig.probe_tokens", s.signature_tokens);
  count("sig.fallback_scans", s.fallback_scans);
  count("filter.after_size", s.after_size);
  count("filter.after_check", s.after_check);
  count("filter.after_nn", s.after_nn);
  report->Layer("filter.check_pass_ratio", ratio(s.after_check, s.after_size),
                "ratio", n);
  report->Layer("filter.nn_pass_ratio", ratio(s.after_nn, s.after_check),
                "ratio", n);
  count("filter.similarity_calls", split.filter_similarity_calls);
  count("matching.verifications", s.verifications);
  count("matching.similarity_calls", split.matching_similarity_calls);
  count("matching.bound_rejects", s.bound_rejects);
  count("matching.bound_accepts", s.bound_accepts);
  count("matching.tier2_accepts", s.tier2_accepts);
  count("matching.floor_rejects", s.heap_floor_rejects);
  count("matching.exact_solves", s.exact_solves);
  count("matching.reporting_solves", s.reporting_solves);
  report->Layer("matching.accept_ratio", ratio(s.results, s.verifications),
                "ratio", n);
}

void PutStageLayers(const Tracer& tracer, double scale, double entry_ms,
                    double other_ms, Report* report) {
  const std::map<std::string, Tracer::Totals> agg = tracer.Aggregate();
  auto self = [&](const char* span) {
    auto it = agg.find(span);
    return it == agg.end() ? 0.0 : it->second.self_ms * scale;
  };
  auto samples = [&](const char* span) {
    auto it = agg.find(span);
    return it == agg.end() ? size_t{0} : it->second.count;
  };
  const double sig = self("sig.GenerateSignature");
  const double check = self("filter.SelectAndCheckCandidates");
  const double nn = self("filter.NnFilterCandidates");
  const double verify = self("matching.ScoreDecision");
  const double core = self("core.pass");
  report->Layer("sig.generate_ms", sig, "ms", samples("sig.GenerateSignature"));
  report->Layer("filter.select_check_ms", check, "ms",
                samples("filter.SelectAndCheckCandidates"));
  report->Layer("filter.nn_ms", nn, "ms", samples("filter.NnFilterCandidates"));
  report->Layer("matching.verify_ms", verify, "ms",
                samples("matching.ScoreDecision"));
  report->Layer("core.self_ms", core, "ms", samples("core.pass"));
  const double residual = entry_ms - (sig + check + nn + verify + core + other_ms);
  report->Layer("trace.residual_ms", residual, "ms", samples("core.pass"));
  report->Layer("trace.residual_pct",
                entry_ms > 0.0 ? 100.0 * residual / entry_ms : 0.0, "%",
                samples("core.pass"));
}

void WriteTrace(const Tracer& tracer, const RunConfig& cfg) {
  if (!tracer.enabled()) return;
  const std::string path = cfg.workdir + "/trace-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  if (!tracer.Dump(path)) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
