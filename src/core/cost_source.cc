#include "core/cost_source.h"

#include <algorithm>

#include "common/obs.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/selection_trace.h"

namespace pdx {

namespace {

// Interned metric handles for the what-if call path. Latency histograms
// are shared with the trace layer's whatif_latency summary (see
// core/selection_trace.h); recording is gated on obs::TimingEnabled(), so
// runs without --trace/--metrics never read the clock here.
struct CacheMetrics {
  obs::Counter* whatif_calls;
  obs::Counter* exact_cold;
  obs::Counter* exact_hit;
  obs::Counter* sig_cold;
  obs::Counter* sig_signature_hit;
  obs::Counter* sig_exact_hit;
  obs::Histogram* cold_ns;
  obs::Histogram* signature_hit_ns;
  obs::Histogram* exact_hit_ns;
};

CacheMetrics& CMetrics() {
  static CacheMetrics m = [] {
    obs::Registry& r = obs::Registry::Global();
    return CacheMetrics{r.GetCounter("pdx_whatif_calls_total"),
                        r.GetCounter("pdx_cache_exact_cold_total"),
                        r.GetCounter("pdx_cache_exact_hit_total"),
                        r.GetCounter("pdx_cache_sig_cold_total"),
                        r.GetCounter("pdx_cache_sig_signature_hit_total"),
                        r.GetCounter("pdx_cache_sig_exact_hit_total"),
                        r.GetHistogram(kWhatIfColdNsMetric),
                        r.GetHistogram(kWhatIfSignatureHitNsMetric),
                        r.GetHistogram(kWhatIfExactHitNsMetric)};
  }();
  return m;
}

}  // namespace

// Default batched sweeps: exactly the scalar loop, in index order, so any
// CostSource that only overrides Cost() inherits bit-identical batched
// behavior — same values, same accounting, same exception at the same cell.
void CostSource::CostMany(std::span<const QueryId> queries, ConfigId c,
                          std::span<double> out) {
  PDX_CHECK(queries.size() == out.size());
  for (size_t i = 0; i < queries.size(); ++i) out[i] = Cost(queries[i], c);
}

void CostSource::CostAcross(QueryId q, std::span<const ConfigId> configs,
                            std::span<double> out) {
  PDX_CHECK(configs.size() == out.size());
  for (size_t i = 0; i < configs.size(); ++i) out[i] = Cost(q, configs[i]);
}

void CostSource::CostUncertaintyMany(std::span<const QueryId> queries,
                                     ConfigId c, std::span<double> out) const {
  PDX_CHECK(queries.size() == out.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = CostUncertainty(queries[i], c);
  }
}

void CostSource::CostUncertaintyAcross(QueryId q,
                                       std::span<const ConfigId> configs,
                                       std::span<double> out) const {
  PDX_CHECK(configs.size() == out.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    out[i] = CostUncertainty(q, configs[i]);
  }
}

WhatIfCostSource::WhatIfCostSource(const WhatIfOptimizer& optimizer,
                                   const Workload& workload,
                                   std::vector<Configuration> configs)
    : workload_(workload),
      configs_(std::move(configs)),
      terms_(optimizer, workload_, configs_) {
  PDX_CHECK(!configs_.empty());
}

double WhatIfCostSource::Cost(QueryId q, ConfigId c) {
  PDX_CHECK(q < workload_.size());
  PDX_CHECK(c < configs_.size());
  // Every call through this tier is a cold optimizer invocation; the
  // caching tiers above attribute their own hit latencies. Over a warm
  // term row a call is a few dozen loads, close to the cost of the span's
  // two clock reads, so the span is decimated 1-in-64 like the selector's
  // round phases (the latency histogram still sees every call).
  const uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed);
  obs::SpanScope cold_span(obs::SampledSpanRound(n), "cold", "cost");
  CMetrics().whatif_calls->Add();
  const uint64_t t0 = obs::TimerStart();
  double cost = terms_.Cost(q, c);
  obs::TimerStop(t0, CMetrics().cold_ns);
  return cost;
}

void WhatIfCostSource::CostMany(std::span<const QueryId> queries, ConfigId c,
                                std::span<double> out) {
  PDX_CHECK(queries.size() == out.size());
  PDX_CHECK(c < configs_.size());
  obs::SpanScope cold_span("cold_batch", "cost");
  const uint64_t t0 = obs::TimerStart();
  for (size_t i = 0; i < queries.size(); ++i) {
    PDX_CHECK(queries[i] < workload_.size());
    out[i] = terms_.Cost(queries[i], c);
  }
  calls_.fetch_add(queries.size(), std::memory_order_relaxed);
  CMetrics().whatif_calls->Add(queries.size());
  obs::TimerStopBatch(t0, CMetrics().cold_ns, queries.size());
}

void WhatIfCostSource::CostAcross(QueryId q, std::span<const ConfigId> configs,
                                  std::span<double> out) {
  PDX_CHECK(configs.size() == out.size());
  PDX_CHECK(q < workload_.size());
  obs::SpanScope cold_span("cold_batch", "cost");
  const uint64_t t0 = obs::TimerStart();
  for (size_t i = 0; i < configs.size(); ++i) {
    PDX_CHECK(configs[i] < configs_.size());
    out[i] = terms_.Cost(q, configs[i]);
  }
  calls_.fetch_add(configs.size(), std::memory_order_relaxed);
  CMetrics().whatif_calls->Add(configs.size());
  obs::TimerStopBatch(t0, CMetrics().cold_ns, configs.size());
}

MatrixCostSource::MatrixCostSource(std::vector<std::vector<double>> costs,
                                   std::vector<TemplateId> templates,
                                   size_t num_configs)
    : templates_(std::move(templates)), num_queries_(costs.size()) {
  PDX_CHECK(costs.size() == templates_.size());
  size_t width = costs.empty() ? 0 : costs[0].size();
  for (const auto& row : costs) PDX_CHECK(row.size() == width);
  if (num_configs == kDeriveNumConfigs) {
    num_configs_ = width;
  } else {
    PDX_CHECK(costs.empty() || width == num_configs);
    num_configs_ = num_configs;
  }
  // Transpose the row-major input into the columnar layout: column c (all
  // queries of one configuration) lands contiguous at c * num_queries_.
  cells_.resize(num_queries_ * num_configs_);
  for (size_t q = 0; q < num_queries_; ++q) {
    const std::vector<double>& row = costs[q];
    for (size_t c = 0; c < num_configs_; ++c) {
      cells_[c * num_queries_ + q] = row[c];
    }
  }
  TemplateId max_t = 0;
  for (TemplateId t : templates_) max_t = std::max(max_t, t);
  num_templates_ = templates_.empty() ? 0 : static_cast<size_t>(max_t) + 1;
}

MatrixCostSource::MatrixCostSource(MatrixCostSource&& other) noexcept
    : cells_(std::move(other.cells_)),
      templates_(std::move(other.templates_)),
      num_queries_(other.num_queries_),
      num_configs_(other.num_configs_),
      num_templates_(other.num_templates_),
      calls_(other.calls_.load(std::memory_order_relaxed)) {}

MatrixCostSource& MatrixCostSource::operator=(
    MatrixCostSource&& other) noexcept {
  cells_ = std::move(other.cells_);
  templates_ = std::move(other.templates_);
  num_queries_ = other.num_queries_;
  num_configs_ = other.num_configs_;
  num_templates_ = other.num_templates_;
  calls_.store(other.calls_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  return *this;
}

MatrixCostSource MatrixCostSource::Precompute(
    const WhatIfOptimizer& optimizer, const Workload& workload,
    const std::vector<Configuration>& configs) {
  std::vector<std::vector<double>> costs(workload.size());
  std::vector<TemplateId> templates(workload.size());
  // Rows are independent and each cell is a deterministic function of
  // (query, configuration), so the fan-out is bit-identical to the serial
  // fill at any thread count.
  GlobalThreadPool().ParallelFor(
      0, workload.size(), /*chunk=*/0, [&](size_t row_begin, size_t row_end) {
        for (size_t q = row_begin; q < row_end; ++q) {
          costs[q].resize(configs.size());
          templates[q] = workload.query(q).template_id;
          for (ConfigId c = 0; c < configs.size(); ++c) {
            costs[q][c] = optimizer.Cost(workload.query(q), configs[c]);
          }
        }
      });
  return MatrixCostSource(std::move(costs), std::move(templates),
                          configs.size());
}

double MatrixCostSource::Cost(QueryId q, ConfigId c) {
  PDX_CHECK(q < num_queries_);
  PDX_CHECK(c < num_configs_);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return cells_[static_cast<size_t>(c) * num_queries_ + q];
}

void MatrixCostSource::CostMany(std::span<const QueryId> queries, ConfigId c,
                                std::span<double> out) {
  PDX_CHECK(queries.size() == out.size());
  PDX_CHECK(c < num_configs_);
  // One contiguous column gather, one counter add: the whole point of the
  // columnar layout. Values are the very doubles Cost() would return.
  const double* col = cells_.data() + static_cast<size_t>(c) * num_queries_;
  for (size_t i = 0; i < queries.size(); ++i) {
    PDX_CHECK(queries[i] < num_queries_);
    out[i] = col[queries[i]];
  }
  calls_.fetch_add(queries.size(), std::memory_order_relaxed);
}

void MatrixCostSource::CostAcross(QueryId q, std::span<const ConfigId> configs,
                                  std::span<double> out) {
  PDX_CHECK(configs.size() == out.size());
  PDX_CHECK(q < num_queries_);
  const double* base = cells_.data() + q;
  for (size_t i = 0; i < configs.size(); ++i) {
    PDX_CHECK(configs[i] < num_configs_);
    out[i] = base[static_cast<size_t>(configs[i]) * num_queries_];
  }
  calls_.fetch_add(configs.size(), std::memory_order_relaxed);
}

std::vector<double> MatrixCostSource::Column(ConfigId c) const {
  PDX_CHECK(c < num_configs_);
  const double* col = cells_.data() + static_cast<size_t>(c) * num_queries_;
  return std::vector<double>(col, col + num_queries_);
}

double MatrixCostSource::TotalCost(ConfigId c) const {
  PDX_CHECK(c < num_configs_);
  const double* col = cells_.data() + static_cast<size_t>(c) * num_queries_;
  double total = 0.0;
  for (size_t q = 0; q < num_queries_; ++q) total += col[q];
  return total;
}

CachingCostSource::CachingCostSource(CostSource* inner)
    : inner_(inner),
      num_queries_(inner->num_queries()),
      num_configs_(inner->num_configs()),
      rows_(std::make_unique<Row[]>(num_queries_)) {
  PDX_CHECK(inner_ != nullptr);
}

CachingCostSource::Cell* CachingCostSource::RowOf(QueryId q) {
  Row& row = rows_[q];
  std::call_once(row.allocated, [&] {
    row.cells = std::make_unique<Cell[]>(num_configs_);
  });
  return row.cells.get();
}

bool CachingCostSource::FillCell(QueryId q, ConfigId c, Cell& cell) {
  bool cold = false;
  std::call_once(cell.filled, [&] {
    cell.value = inner_->Cost(q, c);
    cold = true;
  });
  return cold;
}

double CachingCostSource::Cost(QueryId q, ConfigId c) {
  PDX_CHECK(q < num_queries_);
  PDX_CHECK(c < num_configs_);
  Cell& cell = RowOf(q)[c];
  const uint64_t t0 = obs::TimerStart();
  if (FillCell(q, c, cell)) {
    // Cold latency is recorded by the inner source (the actual what-if
    // call); recording it here too would double-count.
    misses_.fetch_add(1, std::memory_order_relaxed);
    CMetrics().exact_cold->Add();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    CMetrics().exact_hit->Add();
    obs::TimerStop(t0, CMetrics().exact_hit_ns);
  }
  return cell.value;
}

void CachingCostSource::CostMany(std::span<const QueryId> queries, ConfigId c,
                                 std::span<double> out) {
  PDX_CHECK(queries.size() == out.size());
  PDX_CHECK(c < num_configs_);
  obs::SpanScope batch_span("exact_batch", "cost");
  // Accounting is hoisted: tallies are batch-local and the atomics /
  // metric counters take one add per class. Hit latency is attributed at
  // the batch's per-cell mean (cold inner calls record their own latency),
  // which keeps the batch at one clock read instead of one per cell.
  CacheMetrics& m = CMetrics();
  const uint64_t t0 = obs::TimerStart();
  uint64_t cold = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryId q = queries[i];
    PDX_CHECK(q < num_queries_);
    Cell& cell = RowOf(q)[c];
    if (FillCell(q, c, cell)) ++cold;
    out[i] = cell.value;
  }
  const uint64_t n = queries.size();
  const uint64_t hits = n - cold;
  if (cold > 0) {
    misses_.fetch_add(cold, std::memory_order_relaxed);
    m.exact_cold->Add(cold);
  }
  if (hits > 0) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    m.exact_hit->Add(hits);
    if (t0 != 0) m.exact_hit_ns->RecordBatch(((obs::NowNs() - t0) / n) * hits,
                                             hits);
  }
}

void CachingCostSource::CostAcross(QueryId q, std::span<const ConfigId> configs,
                                   std::span<double> out) {
  PDX_CHECK(configs.size() == out.size());
  PDX_CHECK(q < num_queries_);
  obs::SpanScope batch_span("exact_batch", "cost");
  CacheMetrics& m = CMetrics();
  const uint64_t t0 = obs::TimerStart();
  uint64_t cold = 0;
  Cell* row = RowOf(q);
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigId c = configs[i];
    PDX_CHECK(c < num_configs_);
    if (FillCell(q, c, row[c])) ++cold;
    out[i] = row[c].value;
  }
  const uint64_t n = configs.size();
  const uint64_t hits = n - cold;
  if (cold > 0) {
    misses_.fetch_add(cold, std::memory_order_relaxed);
    m.exact_cold->Add(cold);
  }
  if (hits > 0) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    m.exact_hit->Add(hits);
    if (t0 != 0) m.exact_hit_ns->RecordBatch(((obs::NowNs() - t0) / n) * hits,
                                             hits);
  }
}

// ---------------------------------------------------------------------------
// SignatureCachingCostSource

const char* WhatIfCacheModeName(WhatIfCacheMode mode) {
  switch (mode) {
    case WhatIfCacheMode::kOff:
      return "off";
    case WhatIfCacheMode::kExact:
      return "exact";
    case WhatIfCacheMode::kSignature:
      return "signature";
  }
  return "?";
}

namespace {

struct SigKey {
  QueryId q = 0;
  std::vector<uint32_t> sig;

  bool operator==(const SigKey& o) const { return q == o.q && sig == o.sig; }
};

struct SigKeyHash {
  size_t operator()(const SigKey& k) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ k.q;
    for (uint32_t id : k.sig) {
      h ^= id + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

struct SignatureCachingCostSource::Cell {
  std::once_flag flag;
  double value = 0.0;
};

struct SignatureCachingCostSource::Shard {
  std::mutex mu;
  std::unordered_map<SigKey, std::shared_ptr<Cell>, SigKeyHash> map;
};

SignatureCachingCostSource::SignatureCachingCostSource(
    const WhatIfOptimizer& optimizer, const Workload& workload,
    std::vector<Configuration> configs, std::vector<QueryId> query_ids)
    : optimizer_(optimizer),
      configs_(std::move(configs)),
      num_templates_(workload.num_templates()) {
  PDX_CHECK(!configs_.empty());
  if (query_ids.empty()) {
    queries_.reserve(workload.size());
    for (QueryId q = 0; q < workload.size(); ++q) {
      queries_.push_back(&workload.query(q));
    }
  } else {
    queries_.reserve(query_ids.size());
    for (QueryId q : query_ids) queries_.push_back(&workload.query(q));
  }
  footprints_.reserve(queries_.size());
  for (const Query* q : queries_) footprints_.push_back(ComputeFootprint(*q));

  // Intern every structure of every configuration: equal structures share
  // one id across configurations, which is what makes signatures
  // comparable cross-config. In the signature alphabet indexes take even
  // ids and views odd ones. Each per-config list is sorted once: the
  // signature of (q, c) is its relevant subsequence, already in order.
  // Duplicate structures keep duplicate ids — the optimizer charges
  // duplicated maintenance, so configurations with and without the
  // duplicate must not share a signature.
  const InternedStructures structures = InternStructures(configs_);
  config_sorted_ids_.resize(configs_.size());
  for (ConfigId c = 0; c < configs_.size(); ++c) {
    std::vector<uint32_t>& ids = config_sorted_ids_[c];
    ids.reserve(configs_[c].NumStructures());
    for (uint32_t id : structures.config_index_ids[c]) ids.push_back(2 * id);
    for (uint32_t id : structures.config_view_ids[c]) {
      ids.push_back(2 * id + 1);
    }
    std::sort(ids.begin(), ids.end());
  }

  // Relevance is a property of (query, structure) alone — configurations
  // only select which structures are present — so it is precomputed once
  // per pair here and the per-lookup work drops to a byte test per
  // structure of the configuration. Rows are independent: fan out.
  relevant_stride_ =
      2 * std::max(structures.indexes.size(), structures.views.size());
  if (relevant_stride_ > 0 && !queries_.empty()) {
    relevant_.assign(queries_.size() * relevant_stride_, 0);
    GlobalThreadPool().ParallelFor(
        0, queries_.size(), /*chunk=*/0, [&](size_t begin, size_t end) {
          for (size_t q = begin; q < end; ++q) {
            uint8_t* row = relevant_.data() + q * relevant_stride_;
            const QueryFootprint& f = footprints_[q];
            for (size_t i = 0; i < structures.indexes.size(); ++i) {
              row[2 * i] = IndexRelevant(f, structures.indexes[i]) ? 1 : 0;
            }
            for (size_t v = 0; v < structures.views.size(); ++v) {
              row[2 * v + 1] = ViewRelevant(f, structures.views[v]) ? 1 : 0;
            }
          }
        });
  }

  shards_ = std::make_unique<Shard[]>(kNumShards);
  const size_t cells = queries_.size() * configs_.size();
  if (cells > 0) {
    cell_seen_ = std::make_unique<std::atomic<uint8_t>[]>(cells);
  }
}

SignatureCachingCostSource::~SignatureCachingCostSource() = default;

void SignatureCachingCostSource::BuildSignature(
    QueryId q, ConfigId c, std::vector<uint32_t>* sig) const {
  sig->clear();
  const uint8_t* row = relevant_.data() + q * relevant_stride_;
  for (uint32_t id : config_sorted_ids_[c]) {
    if (row[id]) sig->push_back(id);
  }
}

void SignatureCachingCostSource::SignatureOf(QueryId q, ConfigId c,
                                             std::vector<uint32_t>* out) const {
  PDX_CHECK(q < queries_.size());
  PDX_CHECK(c < configs_.size());
  BuildSignature(q, c, out);
}

double SignatureCachingCostSource::ResolveCell(QueryId q, ConfigId c,
                                               CellClass* cls) {
  // Scratch probe: signature computation must not allocate on the hot
  // path (the probe key's vector reuses its capacity), and each cell's
  // signature is computed exactly once — the batched paths call this once
  // per cell instead of paying BuildSignature again for classification.
  thread_local SigKey probe;
  probe.q = q;
  BuildSignature(q, c, &probe.sig);

  Shard& shard = shards_[SigKeyHash{}(probe) % kNumShards];
  std::shared_ptr<Cell> cell;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(probe);
    if (it == shard.map.end()) {
      it = shard.map.emplace(probe, std::make_shared<Cell>()).first;
    }
    cell = it->second;
  }
  bool cold = false;
  std::call_once(cell->flag, [&] {
    cell->value = optimizer_.Cost(*queries_[q], configs_[c]);
    cold = true;
  });
  const size_t dense = static_cast<size_t>(q) * configs_.size() + c;
  const bool first_touch =
      cell_seen_[dense].exchange(1, std::memory_order_relaxed) == 0;
  *cls = cold ? CellClass::kCold
              : (first_touch ? CellClass::kSignatureHit
                             : CellClass::kExactHit);
  if (!cold && debug_check_) {
    double direct = optimizer_.Cost(*queries_[q], configs_[c]);
    PDX_CHECK_MSG(direct == cell->value,
                  "signature cache cross-check mismatch: memoized cost "
                  "differs from direct what-if evaluation");
  }
  return cell->value;
}

double SignatureCachingCostSource::Cost(QueryId q, ConfigId c) {
  PDX_CHECK(q < queries_.size());
  PDX_CHECK(c < configs_.size());
  const uint64_t t0 = obs::TimerStart();
  CellClass cls;
  const double value = ResolveCell(q, c, &cls);
  switch (cls) {
    case CellClass::kCold:
      cold_.fetch_add(1, std::memory_order_relaxed);
      CMetrics().sig_cold->Add();
      CMetrics().whatif_calls->Add();
      obs::TimerStop(t0, CMetrics().cold_ns);
      break;
    case CellClass::kSignatureHit:
      signature_hits_.fetch_add(1, std::memory_order_relaxed);
      CMetrics().sig_signature_hit->Add();
      obs::TimerStop(t0, CMetrics().signature_hit_ns);
      break;
    case CellClass::kExactHit:
      exact_hits_.fetch_add(1, std::memory_order_relaxed);
      CMetrics().sig_exact_hit->Add();
      obs::TimerStop(t0, CMetrics().exact_hit_ns);
      break;
  }
  return value;
}

void SignatureCachingCostSource::FlushBatchAccounting(uint64_t t0, size_t n,
                                                      const uint64_t* tally) {
  CacheMetrics& m = CMetrics();
  const uint64_t cold = tally[static_cast<size_t>(CellClass::kCold)];
  const uint64_t sig = tally[static_cast<size_t>(CellClass::kSignatureHit)];
  const uint64_t exact = tally[static_cast<size_t>(CellClass::kExactHit)];
  if (cold > 0) {
    cold_.fetch_add(cold, std::memory_order_relaxed);
    m.sig_cold->Add(cold);
    m.whatif_calls->Add(cold);
  }
  if (sig > 0) {
    signature_hits_.fetch_add(sig, std::memory_order_relaxed);
    m.sig_signature_hit->Add(sig);
  }
  if (exact > 0) {
    exact_hits_.fetch_add(exact, std::memory_order_relaxed);
    m.sig_exact_hit->Add(exact);
  }
  // One clock read per batch; each class is charged the batch's per-cell
  // mean latency (counts stay exact). The scalar path's per-cell timers
  // remain available for single-cell calls.
  if (t0 != 0 && n > 0) {
    const uint64_t mean = (obs::NowNs() - t0) / n;
    if (cold > 0) m.cold_ns->RecordBatch(mean * cold, cold);
    if (sig > 0) m.signature_hit_ns->RecordBatch(mean * sig, sig);
    if (exact > 0) m.exact_hit_ns->RecordBatch(mean * exact, exact);
  }
}

void SignatureCachingCostSource::CostMany(std::span<const QueryId> queries,
                                          ConfigId c, std::span<double> out) {
  PDX_CHECK(queries.size() == out.size());
  PDX_CHECK(c < configs_.size());
  obs::SpanScope batch_span("sig_batch", "cost");
  const uint64_t t0 = obs::TimerStart();
  uint64_t tally[3] = {0, 0, 0};
  for (size_t i = 0; i < queries.size(); ++i) {
    PDX_CHECK(queries[i] < queries_.size());
    CellClass cls;
    out[i] = ResolveCell(queries[i], c, &cls);
    ++tally[static_cast<size_t>(cls)];
  }
  FlushBatchAccounting(t0, queries.size(), tally);
}

void SignatureCachingCostSource::CostAcross(QueryId q,
                                            std::span<const ConfigId> configs,
                                            std::span<double> out) {
  PDX_CHECK(configs.size() == out.size());
  PDX_CHECK(q < queries_.size());
  obs::SpanScope batch_span("sig_batch", "cost");
  const uint64_t t0 = obs::TimerStart();
  uint64_t tally[3] = {0, 0, 0};
  for (size_t i = 0; i < configs.size(); ++i) {
    PDX_CHECK(configs[i] < configs_.size());
    CellClass cls;
    out[i] = ResolveCell(q, configs[i], &cls);
    ++tally[static_cast<size_t>(cls)];
  }
  FlushBatchAccounting(t0, configs.size(), tally);
}

uint64_t SignatureCachingCostSource::num_distinct_signatures() const {
  uint64_t n = 0;
  for (size_t s = 0; s < kNumShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    n += shards_[s].map.size();
  }
  return n;
}

}  // namespace pdx
