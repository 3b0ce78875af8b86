// Metric collection and the result line. The binary reports every metric
// it measured; BENCHMARK.json alone lists the gated and per-layer ones,
// and run.py selects them from this line.

#ifndef LKPBENCH_REPORT_H_
#define LKPBENCH_REPORT_H_

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace lkpbench {

/// Share of the traced wall time attributed to one span name.
inline std::string SelfFracName(int span_name) {
  return std::string("self_frac.") + InfoOf(span_name).name;
}

/// Serve paths in lkpdpp::ServePath order, as ServePathName names them.
inline const std::vector<std::string>& PathNames() {
  static const std::vector<std::string> kNames = {
      "primal", "dual_sample", "factor_diag_sample", "factor_map", "diag_map"};
  return kNames;
}

/// Collects one run's metrics and checks, prints them for people, and
/// prints the machine-readable result as the last line.
class Report {
 public:
  /// Records a metric; `samples` < 0 means "not a sampled statistic".
  void Set(const std::string& name, double value, const std::string& unit,
           long samples = -1) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = Entry{value, unit, samples};
  }

  /// Records p50 and p99 of a sample under `<prefix>_p50<suffix>` and
  /// `<prefix>_p99<suffix>`.
  void SetPercentiles(const std::string& prefix, const std::string& suffix,
                      const Distribution& dist, const std::string& unit) {
    Set(prefix + "_p50" + suffix, dist.Percentile(0.50), unit,
        static_cast<long>(dist.size()));
    Set(prefix + "_p99" + suffix, dist.Percentile(0.99), unit,
        static_cast<long>(dist.size()));
  }

  /// A failed check counts as a failed operation and fails the run.
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  void AddAttempted(long n) { attempted_ += n; }
  void AddFailed(long n) { failed_ops_ += n; }
  long failed() const {
    return failed_ops_ + static_cast<long>(failures_.size());
  }
  bool correct() const { return failed() == 0 && attempted_ > 0; }

  /// Human-readable block: every metric with its unit and sample count.
  /// A percentile is printed only when at least kMinSamplesBeyond samples
  /// lie beyond it; otherwise the line says so.
  void PrintHuman() const {
    std::printf("\n--- metrics ---\n");
    for (const std::string& name : order_) {
      const Entry& e = values_.at(name);
      const double q = QuantileOf(name);
      if (q > 0.0 && e.samples >= 0 &&
          !PercentileSupported(static_cast<size_t>(e.samples), q)) {
        std::printf("%-36s (unsupported: n=%ld leaves fewer than %zu "
                    "samples beyond p%g)\n",
                    name.c_str(), e.samples, kMinSamplesBeyond, q * 100);
        continue;
      }
      if (e.samples >= 0) {
        std::printf("%-36s %14.6g %-8s n=%ld\n", name.c_str(), e.value,
                    e.unit.c_str(), e.samples);
      } else {
        std::printf("%-36s %14.6g %s\n", name.c_str(), e.value,
                    e.unit.c_str());
      }
    }
    std::printf("attempted=%ld failed=%ld failed_frac=%.6g\n", attempted_,
                failed(),
                attempted_ > 0 ? static_cast<double>(failed()) / attempted_
                               : 1.0);
    for (const std::string& f : failures_) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
  }

  /// The last line of stdout: every metric measured (a non-finite value
  /// reads 0, which run.py refuses for a gated metric).
  void PrintResultLine() const {
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : order_) {
      const Entry& e = values_.at(name);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      if (!first) json += ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
              e.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    long samples = -1;
  };

  static double QuantileOf(const std::string& name) {
    if (name.find("_p50") != std::string::npos) return 0.50;
    if (name.find("_p99") != std::string::npos) return 0.99;
    return 0.0;
  }

  std::map<std::string, Entry> values_;
  std::vector<std::string> order_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ops_ = 0;
};

}  // namespace lkpbench

#endif  // LKPBENCH_REPORT_H_
