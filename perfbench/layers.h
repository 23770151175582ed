// Benchmark-side instruments for the per-layer (traced) mode: a CostSource
// timing decorator, deltas of the process metric registry, a span
// accumulator drained after every op, and the machine diagnostics
// (spin loop, load average, peak RSS). Nothing here changes what the
// measured layers compute; the decorators only forward and time.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/span.h"
#include "core/cost_source.h"

namespace perfbench {

/// Monotonic milliseconds (the library's own clock).
double NowMs();

/// Forwards every cost request to `inner` (not owned) and accumulates the
/// cells requested and the wall time spent below this point. Placed above
/// a cache it times the whole cost layer; placed between a cache and the
/// live what-if source it times only the optimizer. Single-threaded use
/// (the benchmark runs the selector on one thread).
class TimedCostSource final : public pdx::CostSource {
 public:
  explicit TimedCostSource(pdx::CostSource* inner) : inner_(inner) {}

  double Cost(pdx::QueryId q, pdx::ConfigId c) override;
  void CostMany(std::span<const pdx::QueryId> queries, pdx::ConfigId c,
                std::span<double> out) override;
  void CostAcross(pdx::QueryId q, std::span<const pdx::ConfigId> configs,
                  std::span<double> out) override;
  void CostUncertaintyMany(std::span<const pdx::QueryId> queries,
                           pdx::ConfigId c,
                           std::span<double> out) const override {
    inner_->CostUncertaintyMany(queries, c, out);
  }
  void CostUncertaintyAcross(pdx::QueryId q,
                             std::span<const pdx::ConfigId> configs,
                             std::span<double> out) const override {
    inner_->CostUncertaintyAcross(q, configs, out);
  }
  size_t num_queries() const override { return inner_->num_queries(); }
  size_t num_configs() const override { return inner_->num_configs(); }
  pdx::TemplateId TemplateOf(pdx::QueryId q) const override {
    return inner_->TemplateOf(q);
  }
  size_t num_templates() const override { return inner_->num_templates(); }
  double OptimizeOverhead(pdx::QueryId q) const override {
    return inner_->OptimizeOverhead(q);
  }
  double CostUncertainty(pdx::QueryId q, pdx::ConfigId c) const override {
    return inner_->CostUncertainty(q, c);
  }
  uint64_t num_calls() const override { return inner_->num_calls(); }
  void ResetCallCounter() override { inner_->ResetCallCounter(); }

  uint64_t cells() const { return cells_; }
  double ms() const { return static_cast<double>(ns_) / 1e6; }

 private:
  pdx::CostSource* inner_;
  uint64_t cells_ = 0;
  uint64_t ns_ = 0;
};

/// Every registry metric flattened to name -> value (histograms as
/// <name>_count and <name>_sum in ns), as obs::Registry::Samples gives it.
using RegistryReading = std::map<std::string, double>;
RegistryReading ReadRegistry();
/// b[name] - a[name], 0 for names missing from either side.
double Delta(const RegistryReading& a, const RegistryReading& b,
             const std::string& name);

/// Drains the span rings after every op, so no ring overflows however
/// long the run, and keeps the (category, name) rollup of everything
/// drained, with each phase's self time: its spans' durations minus the
/// part their direct child spans cover.
class SpanAccumulator {
 public:
  SpanAccumulator();
  /// Drains all closed spans into the rollup.
  void Drain();
  /// Spans dropped to full rings since construction.
  uint64_t dropped() const { return dropped_ - dropped_at_start_; }
  /// Total ms and count of one (category, name) phase.
  double TotalMs(const std::string& category, const std::string& name) const;
  double SelfMs(const std::string& category, const std::string& name) const;
  /// Self time summed over every phase of a category.
  double CategorySelfMs(const std::string& category) const;
  /// Rollup rows, largest total first.
  std::vector<pdx::obs::SpanRollupRow> Rows() const;

 private:
  std::map<std::pair<std::string, std::string>, pdx::obs::SpanRollupRow>
      rows_;
  std::map<std::pair<std::string, std::string>, uint64_t> self_ns_;
  uint64_t dropped_ = 0;
  uint64_t dropped_at_start_ = 0;
};

/// Wall ms of a fixed integer loop: a probe of machine speed, printed
/// beside every run so machine drift can be told from program drift.
/// Diagnostic only; never used to rescale a metric.
double SpinMs();

/// Wall ms of a fixed pointer chase over a 16 MB buffer: a probe of the
/// machine's memory latency, which drifts apart from the spin loop.
/// Diagnostic only; never used to rescale a metric.
double MemProbeMs();

/// Process CPU time in ms.
double CpuMs();

/// 1-minute load average, or -1 when unreadable.
double LoadAverage1();

/// Peak resident set (VmHWM) of a process in MB; pid 0 means this
/// process. -1 when unreadable.
double PeakRssMb(int pid = 0);

/// Online processors.
int NumProcessors();

}  // namespace perfbench
