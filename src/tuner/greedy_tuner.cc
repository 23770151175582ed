#include "tuner/greedy_tuner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/obs.h"
#include "common/span.h"
#include "optimizer/relevance.h"

namespace pdx {

namespace {

struct TunerMetrics {
  obs::Counter* rounds;
  obs::Counter* structures_added;
  obs::Histogram* round_ns;
};

TunerMetrics& TMetrics() {
  static TunerMetrics m = [] {
    obs::Registry& r = obs::Registry::Global();
    return TunerMetrics{r.GetCounter("pdx_tuner_rounds_total"),
                        r.GetCounter("pdx_tuner_structures_added_total"),
                        r.GetHistogram("pdx_tuner_round_ns")};
  }();
  return m;
}

// CostSource over a workload subset and a per-round configuration set.
class SubsetCostSource : public CostSource {
 public:
  SubsetCostSource(const WhatIfOptimizer& optimizer, const Workload& workload,
                   const std::vector<QueryId>& ids,
                   const std::vector<Configuration>& configs)
      : optimizer_(optimizer),
        workload_(workload),
        ids_(ids),
        configs_(configs) {}

  double Cost(QueryId q, ConfigId c) override {
    PDX_CHECK(q < ids_.size());
    PDX_CHECK(c < configs_.size());
    calls_ += 1;
    return optimizer_.Cost(workload_.query(ids_[q]), configs_[c]);
  }
  size_t num_queries() const override { return ids_.size(); }
  size_t num_configs() const override { return configs_.size(); }
  TemplateId TemplateOf(QueryId q) const override {
    return workload_.query(ids_[q]).template_id;
  }
  size_t num_templates() const override { return workload_.num_templates(); }
  double OptimizeOverhead(QueryId q) const override {
    return workload_.query(ids_[q]).optimize_overhead;
  }
  uint64_t num_calls() const override { return calls_; }
  void ResetCallCounter() override { calls_ = 0; }

 private:
  const WhatIfOptimizer& optimizer_;
  const Workload& workload_;
  const std::vector<QueryId>& ids_;
  const std::vector<Configuration>& configs_;
  uint64_t calls_ = 0;
};

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void AddStructure(Configuration* config, const ScoredStructure& s) {
  if (s.is_view) {
    config->AddView(s.view);
  } else {
    config->AddIndex(s.index);
  }
}

// Which queries of a query set each candidate structure can touch: those
// whose applicability tests accept it (optimizer/relevance.h). Every
// other query costs the same with or without the structure, to the bit.
class RelevanceIndex {
 public:
  RelevanceIndex(const Workload& workload, const std::vector<QueryId>& ids)
      : by_table_(workload.schema().num_tables()) {
    footprints_.reserve(ids.size());
    std::vector<TableId> tables;
    for (uint32_t p = 0; p < ids.size(); ++p) {
      footprints_.push_back(ComputeFootprint(workload.query(ids[p])));
      const QueryFootprint& f = footprints_.back();
      tables.clear();
      for (const AccessFootprint& a : f.accesses) tables.push_back(a.table);
      if (f.has_update) tables.push_back(f.update_table);
      SortUnique(&tables);
      for (TableId t : tables) by_table_[t].push_back(p);
    }
  }

  // Positions (into the query set) of the queries s can touch, ascending.
  std::vector<uint32_t> Touched(const ScoredStructure& s) const {
    std::vector<uint32_t> out;
    if (!s.is_view) {
      for (uint32_t p : by_table_[s.index.table]) {
        if (IndexRelevant(footprints_[p], s.index)) out.push_back(p);
      }
      return out;
    }
    // A matching query reads every view table; a maintaining one writes
    // one of them.
    for (TableId t : s.view.tables) {
      for (uint32_t p : by_table_[t]) {
        if (ViewRelevant(footprints_[p], s.view)) out.push_back(p);
      }
    }
    SortUnique(&out);
    return out;
  }

 private:
  std::vector<QueryFootprint> footprints_;
  // table -> positions of the queries that read or write it, ascending.
  std::vector<std::vector<uint32_t>> by_table_;
};

// Per-query costs of a query set under a configuration that grows one
// structure at a time. Pricing `config + s` re-costs only the queries s
// can touch; every other query keeps its current cost. Totals sum
// w * cost in query order, so each equals WeightedCost bit for bit.
class ExtensionPricer {
 public:
  ExtensionPricer(const WhatIfOptimizer& optimizer, const Workload& workload,
                  const std::vector<QueryId>& ids,
                  const std::vector<double>& weights, Configuration config)
      : optimizer_(optimizer),
        workload_(workload),
        ids_(ids),
        weights_(weights),
        config_(std::move(config)) {
    PDX_CHECK(weights.empty() || weights.size() == ids.size());
    costs_.reserve(ids.size());
    for (QueryId q : ids) {
      costs_.push_back(optimizer.Cost(workload.query(q), config_));
    }
    total_ = Sum(costs_);
  }

  const Configuration& config() const { return config_; }
  double total() const { return total_; }

  // Weighted total under config + s, given the positions s can touch;
  // `costs` receives the per-query costs. A structure already in the
  // configuration costs no call.
  double Price(const ScoredStructure& s, const std::vector<uint32_t>& touched,
               std::vector<double>* costs) const {
    *costs = costs_;
    if (s.is_view ? config_.ContainsView(s.view)
                  : config_.ContainsIndex(s.index)) {
      return total_;
    }
    Configuration ext = config_;
    AddStructure(&ext, s);
    for (uint32_t p : touched) {
      (*costs)[p] = optimizer_.Cost(workload_.query(ids_[p]), ext);
    }
    return Sum(*costs);
  }

  // Adds s, taking `costs` from Price(s) on the current configuration.
  void Add(const ScoredStructure& s, std::vector<double>* costs) {
    PDX_CHECK(costs->size() == costs_.size());
    AddStructure(&config_, s);
    costs_.swap(*costs);
    total_ = Sum(costs_);
  }

 private:
  double Sum(const std::vector<double>& costs) const {
    double total = 0.0;
    for (size_t i = 0; i < costs.size(); ++i) {
      double w = weights_.empty() ? 1.0 : weights_[i];
      total += w * costs[i];
    }
    return total;
  }

  const WhatIfOptimizer& optimizer_;
  const Workload& workload_;
  const std::vector<QueryId>& ids_;
  const std::vector<double>& weights_;
  Configuration config_;
  std::vector<double> costs_;
  double total_ = 0.0;
};

}  // namespace

double WeightedCost(const WhatIfOptimizer& optimizer, const Workload& workload,
                    const std::vector<QueryId>& query_ids,
                    const std::vector<double>& weights,
                    const Configuration& config) {
  PDX_CHECK(weights.empty() || weights.size() == query_ids.size());
  double total = 0.0;
  for (size_t i = 0; i < query_ids.size(); ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    total += w * optimizer.Cost(workload.query(query_ids[i]), config);
  }
  return total;
}

TuneResult GreedyTune(const WhatIfOptimizer& optimizer,
                      const Workload& workload,
                      const std::vector<QueryId>& query_ids,
                      const std::vector<double>& weights,
                      const TunerOptions& options, Rng* rng) {
  PDX_CHECK(rng != nullptr);
  PDX_CHECK(!query_ids.empty());
  const Schema& schema = workload.schema();
  const uint64_t budget = options.storage_budget_bytes > 0
                              ? options.storage_budget_bytes
                              : schema.TotalHeapBytes() * 2 / 5;
  const uint64_t calls_before = optimizer.num_calls();

  TuneResult result;
  std::optional<ExtensionPricer> pricer;
  std::vector<ScoredStructure> pool;
  // Per pool structure: positions of the query_ids it can touch.
  std::vector<std::vector<uint32_t>> touched;
  std::vector<double> costs;
  {
    obs::SpanScope score_span("score", "tuner");
    Configuration start = options.base_config;
    start.set_name("tuned");
    pricer.emplace(optimizer, workload, query_ids, weights, std::move(start));
    result.initial_cost = pricer->total();
    const RelevanceIndex relevance(workload, query_ids);

    // Candidate pool: per-query candidates of the subset, deduplicated and
    // pre-scored by standalone benefit on the subset (beam pruning).
    CandidateGenerator gen(schema, options.candidates);
    std::unordered_set<uint64_t> seen;
    for (QueryId qid : query_ids) {
      QueryCandidates qc = gen.ForQuery(workload.query(qid));
      for (Index& idx : qc.indexes) {
        if (!seen.insert(idx.Hash()).second) continue;
        ScoredStructure s;
        s.index = std::move(idx);
        s.storage_bytes = s.index.StorageBytes(schema);
        pool.push_back(std::move(s));
      }
      for (MaterializedView& v : qc.views) {
        if (!seen.insert(v.Hash()).second) continue;
        ScoredStructure s;
        s.is_view = true;
        s.view = std::move(v);
        s.storage_bytes = s.view.StorageBytes(schema);
        pool.push_back(std::move(s));
      }
    }
    // Standalone benefit on top of the deployed base configuration, on
    // the full tuning set (whose base costs the pricer already holds) or
    // on a uniform subsample of it.
    auto score = [&](const ExtensionPricer& scorer,
                     const RelevanceIndex& scoring_relevance) {
      for (ScoredStructure& s : pool) {
        s.benefit = scorer.total() -
                    scorer.Price(s, scoring_relevance.Touched(s), &costs);
      }
    };
    if (options.scoring_sample_size > 0 &&
        options.scoring_sample_size < query_ids.size()) {
      std::vector<QueryId> scoring_ids;
      std::vector<double> scoring_weights;
      for (uint32_t i : rng->SampleWithoutReplacement(
               query_ids.size(), options.scoring_sample_size)) {
        scoring_ids.push_back(query_ids[i]);
        if (!weights.empty()) scoring_weights.push_back(weights[i]);
      }
      score(ExtensionPricer(optimizer, workload, scoring_ids, scoring_weights,
                            pricer->config()),
            RelevanceIndex(workload, scoring_ids));
    } else {
      score(*pricer, relevance);
    }
    std::sort(pool.begin(), pool.end(),
              [](const ScoredStructure& a, const ScoredStructure& b) {
                return a.benefit > b.benefit;
              });
    if (pool.size() > options.beam_width) pool.resize(options.beam_width);
    for (const ScoredStructure& s : pool) {
      touched.push_back(relevance.Touched(s));
    }
  }

  // §6.1 interval source for fault degradation AND for dynamic budget
  // refinement: one deriver per tune. base must be contained in every
  // compared configuration and rich must contain every structure any of
  // them may use; the greedy rounds only ever add pool structures on top
  // of base, so base/base+pool brackets all of them.
  std::unique_ptr<CostBoundsDeriver> bounds_deriver;
  const bool dynamic_budget =
      options.selector.budget_policy == BudgetPolicy::kDynamic;
  if (options.use_comparison_primitive &&
      (options.faults.enabled() || dynamic_budget)) {
    Configuration rich = options.base_config;
    for (const ScoredStructure& s : pool) AddStructure(&rich, s);
    bounds_deriver = std::make_unique<CostBoundsDeriver>(
        optimizer, workload, options.base_config, std::move(rich));
  }

  std::vector<bool> used(pool.size(), false);
  uint64_t used_bytes = 0;
  std::vector<double> winner_costs;

  for (uint32_t round = 0; round < options.max_structures; ++round) {
    TMetrics().rounds->Add();
    obs::ScopedTimer round_timer(TMetrics().round_ns);
    obs::SpanScope round_span("round", "tuner");
    // Collect feasible extensions.
    std::vector<size_t> feasible;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!used[i] && used_bytes + pool[i].storage_bytes <= budget) {
        feasible.push_back(i);
      }
    }
    if (feasible.empty()) break;

    int64_t winner = -1;
    double winner_cost = pricer->total();
    if (options.use_comparison_primitive) {
      PDX_CHECK_MSG(weights.empty(),
                    "comparison-primitive tuning requires unit weights");
      // Configs: current (index 0) plus each extension; the primitive
      // picks the best with probabilistic guarantees.
      std::vector<Configuration> round_configs;
      round_configs.push_back(pricer->config());
      for (size_t i : feasible) {
        round_configs.push_back(pricer->config());
        AddStructure(&round_configs.back(), pool[i]);
      }
      // The round's extensions differ from the current configuration by
      // one structure each: signature caching collapses the per-round
      // what-if matrix down to the queries each structure can touch.
      // Costs are bit-identical across tiers, so the selection (driven by
      // the shared rng) is too — only the call count changes.
      std::unique_ptr<SubsetCostSource> subset;
      std::unique_ptr<CachingCostSource> exact;
      std::unique_ptr<SignatureCachingCostSource> sig;
      CostSource* source = nullptr;
      if (options.cache == WhatIfCacheMode::kSignature) {
        sig = std::make_unique<SignatureCachingCostSource>(
            optimizer, workload, round_configs, query_ids);
        source = sig.get();
      } else {
        subset = std::make_unique<SubsetCostSource>(optimizer, workload,
                                                    query_ids, round_configs);
        if (options.cache == WhatIfCacheMode::kExact) {
          exact = std::make_unique<CachingCostSource>(subset.get());
          source = exact.get();
        } else {
          source = subset.get();
        }
      }
      std::unique_ptr<FaultInjectingCostSource> injector;
      std::unique_ptr<WorkloadBoundsCache> bounds_cache;
      SelectorOptions sel_opts = options.selector;
      if (options.faults.enabled()) {
        // Mix the round index into the seed so each round's schedule is an
        // independent draw while the whole tune stays reproducible.
        FaultSpec spec = options.faults;
        spec.seed ^= 0x9E3779B97F4A7C15ULL * (round + 1);
        injector = std::make_unique<FaultInjectingCostSource>(source, spec);
        injector->set_deadline_ms(sel_opts.exec.retry.deadline_ms);
        source = injector.get();
        sel_opts.exec.enabled = true;
        sel_opts.exec.seed ^= spec.seed;
      }
      if (bounds_deriver != nullptr) {
        // Shared by fault degradation and budget refinement; the lazy
        // sharded cache fills each piece at most once per round.
        bounds_cache = std::make_unique<WorkloadBoundsCache>(
            bounds_deriver.get(), &round_configs, query_ids);
        sel_opts.bounds = bounds_cache.get();
      }
      ConfigurationSelector selector(source, sel_opts);
      SelectionResult sel = selector.Run(rng);
      result.whatif_retries += sel.whatif_retries;
      result.whatif_timeouts += sel.whatif_timeouts;
      result.whatif_failures += sel.whatif_failures;
      result.degraded_cells += sel.degraded_cells;
      result.bound_refinement_calls += sel.bound_refinement_calls;
      result.dominance_eliminations += sel.dominance_eliminations;
      result.refined_queries += sel.refined_queries;
      if (sel.best == 0) break;  // keeping the current configuration wins
      winner = static_cast<int64_t>(feasible[sel.best - 1]);
      winner_cost =
          pricer->Price(pool[winner], touched[winner], &winner_costs);
    } else {
      for (size_t i : feasible) {
        double c = pricer->Price(pool[i], touched[i], &costs);
        if (c < winner_cost) {
          winner_cost = c;
          winner = static_cast<int64_t>(i);
          winner_costs.swap(costs);
        }
      }
    }

    if (winner < 0 || winner_cost >= pricer->total()) break;
    size_t w = static_cast<size_t>(winner);
    pricer->Add(pool[w], &winner_costs);
    used[w] = true;
    used_bytes += pool[w].storage_bytes;
    TMetrics().structures_added->Add();
  }

  result.config = pricer->config();
  result.final_cost = pricer->total();
  result.optimizer_calls = optimizer.num_calls() - calls_before;
  return result;
}

}  // namespace pdx
