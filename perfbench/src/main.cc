// silkmoth_perfbench: runs one benchmark workload and prints its report as
// one JSON line. perfbench/run.py builds this binary, passes the workload's
// parameters from perfbench/design.json and turns the report into the
// benchmark's result line.
//
//   silkmoth_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --workdir DIR [--param KEY=VALUE ...]
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else if (flag == "--param") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --param '%s'\n", value.c_str());
        return 2;
      }
      cfg.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || cfg.workload.empty() || cfg.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: silkmoth_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--param K=V ...]\n");
    return 2;
  }
  try {
    const double calibration_before = perfbench::CalibrationMs();
    perfbench::Report report;
    if (cfg.workload == "serve-titles-mixed") {
      report = perfbench::RunServe(cfg);
    } else if (cfg.workload == "search-columns-topk") {
      report = perfbench::RunSearch(cfg);
    } else if (cfg.workload == "discover-schema") {
      report = perfbench::RunDiscover(cfg);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
    if (!cfg.trace) {
      report.Put("peak_rss_mb", perfbench::PeakRssMb(), "MiB", 1);
    }
    report.health["calibration_ms"] = perfbench::JsonArray(
        {calibration_before, perfbench::CalibrationMs()});
    std::printf("%s\n", report.ToJson(cfg.workload).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
}
