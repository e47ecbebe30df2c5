#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double Params::Num(const std::string& key) const {
  return std::stod(Str(key));
}

int64_t Params::Int(const std::string& key) const {
  return std::stoll(Str(key));
}

const std::string& Params::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing workload parameter '" + key + "'");
  }
  return it->second;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CalibrationMs() {
  std::vector<uint64_t> buf(1 << 17);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = i * 0x9e3779b97f4a7c15ULL;
  const Clock::time_point t0 = Clock::now();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t v : buf) h = (h ^ v) * 0x100000001b3ULL;
  }
  const double ms = MsBetween(t0, Clock::now());
  // Keeps the loop from being folded away.
  if (h == 0) std::fprintf(stderr, "calibration hash is zero\n");
  return ms;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Digest::Add(const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void ColdSetups(int n, const std::function<void()>& setup,
                std::vector<double>* seconds) {
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      int code = 0;
      double elapsed = 0.0;
      try {
        const Clock::time_point t0 = Clock::now();
        setup();
        elapsed = MsBetween(t0, Clock::now()) / 1000.0;
      } catch (...) {
        code = 1;
      }
      if (write(fds[1], &elapsed, sizeof(elapsed)) != sizeof(elapsed)) code = 1;
      close(fds[1]);
      _exit(code);
    }
    close(fds[1]);
    double elapsed = 0.0;
    const ssize_t got = read(fds[0], &elapsed, sizeof(elapsed));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    if (got != sizeof(elapsed) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("cold set-up child failed");
    }
    seconds->push_back(elapsed);
  }
}

int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans_.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (size_t c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start, s.start),
                      std::min(spans_[c].end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_start{}, cur_end{};
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (!open || a > cur_end) {
        if (open) covered += MsBetween(cur_start, cur_end);
        cur_start = a;
        cur_end = b;
        open = true;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (open) covered += MsBetween(cur_start, cur_end);
    const double total = MsBetween(s.start, s.end);
    Totals& t = out[s.name];
    t.total_ms += total;
    t.self_ms += std::max(0.0, total - covered);
    ++t.count;
  }
  return out;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_ms\":" << JsonNumber(MsBetween(origin, s.start))
        << ",\"end_ms\":" << JsonNumber(MsBetween(origin, s.end))
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

namespace {

std::string MetricMapJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) +
           ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  return out + "}";
}

}  // namespace

std::string Report::ToJson(const std::string& workload) const {
  std::string out = "{\"workload\":" + JsonString(workload);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"mismatches\":[";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(mismatches[i]);
  }
  out += "],\"metrics\":" + MetricMapJson(metrics);
  out += ",\"layers\":" + MetricMapJson(layers);
  out += ",\"health\":{";
  bool first = true;
  for (const auto& [key, raw] : health) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + raw;
  }
  return out + "}}";
}

}  // namespace perfbench
