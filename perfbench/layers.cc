#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>

#include "common/obs.h"

namespace perfbench {

double NowMs() { return static_cast<double>(pdx::obs::NowNs()) / 1e6; }

double TimedCostSource::Cost(pdx::QueryId q, pdx::ConfigId c) {
  const uint64_t t0 = pdx::obs::NowNs();
  const double v = inner_->Cost(q, c);
  ns_ += pdx::obs::NowNs() - t0;
  ++cells_;
  return v;
}

void TimedCostSource::CostMany(std::span<const pdx::QueryId> queries,
                               pdx::ConfigId c, std::span<double> out) {
  const uint64_t t0 = pdx::obs::NowNs();
  inner_->CostMany(queries, c, out);
  ns_ += pdx::obs::NowNs() - t0;
  cells_ += queries.size();
}

void TimedCostSource::CostAcross(pdx::QueryId q,
                                 std::span<const pdx::ConfigId> configs,
                                 std::span<double> out) {
  const uint64_t t0 = pdx::obs::NowNs();
  inner_->CostAcross(q, configs, out);
  ns_ += pdx::obs::NowNs() - t0;
  cells_ += configs.size();
}

RegistryReading ReadRegistry() {
  RegistryReading out;
  for (const auto& s : pdx::obs::Registry::Global().Samples()) {
    out[s.name] = s.value;
  }
  return out;
}

double Delta(const RegistryReading& a, const RegistryReading& b,
             const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  if (ib == b.end()) return 0.0;
  return ib->second - (ia == a.end() ? 0.0 : ia->second);
}

SpanAccumulator::SpanAccumulator() {
  pdx::obs::SpanSnapshot snap = pdx::obs::DrainSpans();
  dropped_ = dropped_at_start_ = snap.dropped;
}

void SpanAccumulator::Drain() {
  pdx::obs::SpanSnapshot snap = pdx::obs::DrainSpans();
  dropped_ = snap.dropped;
  // Parents close after their children, so a drain after each op holds
  // both ends of every parent link opened during that op.
  std::map<uint64_t, uint64_t> child_ns;
  for (const pdx::obs::SpanRecord& r : snap.records) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  for (const pdx::obs::SpanRecord& r : snap.records) {
    const uint64_t dur = r.end_ns - r.start_ns;
    auto it = child_ns.find(r.id);
    const uint64_t covered = it == child_ns.end() ? 0 : std::min(dur, it->second);
    self_ns_[{r.category, r.name}] += dur - covered;
  }
  for (const pdx::obs::SpanRollupRow& r : pdx::obs::RollupSpans(snap.records)) {
    pdx::obs::SpanRollupRow& acc = rows_[{r.category, r.name}];
    acc.category = r.category;
    acc.name = r.name;
    acc.count += r.count;
    acc.total_ns += r.total_ns;
    acc.counter_delta += r.counter_delta;
  }
}

double SpanAccumulator::TotalMs(const std::string& category,
                                const std::string& name) const {
  auto it = rows_.find({category, name});
  return it == rows_.end() ? 0.0
                           : static_cast<double>(it->second.total_ns) / 1e6;
}

double SpanAccumulator::SelfMs(const std::string& category,
                               const std::string& name) const {
  auto it = self_ns_.find({category, name});
  return it == self_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

double SpanAccumulator::CategorySelfMs(const std::string& category) const {
  uint64_t ns = 0;
  for (const auto& kv : self_ns_) {
    if (kv.first.first == category) ns += kv.second;
  }
  return static_cast<double>(ns) / 1e6;
}

std::vector<pdx::obs::SpanRollupRow> SpanAccumulator::Rows() const {
  std::vector<pdx::obs::SpanRollupRow> rows;
  for (const auto& kv : rows_) rows.push_back(kv.second);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.total_ns > b.total_ns;
  });
  return rows;
}

double SpinMs() {
  const double t0 = NowMs();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint32_t i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return NowMs() - t0;
}

double MemProbeMs() {
  // A single random cycle (Sattolo's shuffle), built once per process.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(uint32_t{1} << 22);
    std::iota(v.begin(), v.end(), 0u);
    uint64_t x = 0x2545F4914F6CDD1DULL;
    for (size_t i = v.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  const double t0 = NowMs();
  uint32_t j = 0;
  for (uint32_t i = 0; i < 1'000'000; ++i) j = next[j];
  volatile uint32_t sink = j;
  (void)sink;
  return NowMs() - t0;
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double LoadAverage1() {
  double avg[1];
  return getloadavg(avg, 1) == 1 ? avg[0] : -1.0;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

int NumProcessors() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace perfbench
