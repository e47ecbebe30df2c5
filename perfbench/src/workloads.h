// The three workloads of the benchmark. Each generates its inputs from the
// seed, measures for the requested number of seconds, checks its answers
// outside the timed windows and fills a Report. perfbench/design.json holds
// every size, rate and limit they read.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/stats.h"
#include "datagen/builders.h"
#include "replay.h"
#include "text/dataset.h"
#include "text/tokenizer.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string workdir;  ///< Scratch directory for snapshot files and traces.
  Params params;
};

Report RunServe(const RunConfig& cfg);
Report RunSearch(const RunConfig& cfg);
Report RunDiscover(const RunConfig& cfg);

/// Derives an independent stream seed from the run seed and a purpose tag,
/// so the corpus, the request sequence and the samples never share draws.
uint64_t SubSeed(uint64_t seed, const char* purpose);

/// Sets every per-layer metric to 0 with its unit, so a traced run reports
/// the full list even for layers its workload never enters.
void DeclareAllLayers(Report* report);

/// Fills the per-layer work counters (sig, index, filter, matching) from
/// the funnel of the replayed passes.
void PutCounterLayers(const silkmoth::SearchStats& s,
                      const StageCounters& split, Report* report);

/// Fills the per-layer stage times from the traced spans: each stage's self
/// time per entry call (scaled by `scale`), core.pass self time, and the
/// residual of `entry_ms` (mean thread-time of one entry call) left after
/// the layer self times and `other_ms` (layer times measured elsewhere).
void PutStageLayers(const Tracer& tracer, double scale, double entry_ms,
                    double other_ms, Report* report);

/// Writes a traced run's spans to <workdir>/trace-<workload>-<seed>.jsonl.
void WriteTrace(const Tracer& tracer, const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
