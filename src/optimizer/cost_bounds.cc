#include "optimizer/cost_bounds.h"

#include <algorithm>

namespace pdx {

CostBoundsDeriver::CostBoundsDeriver(const WhatIfOptimizer& optimizer,
                                     const Workload& workload,
                                     Configuration base, Configuration rich)
    : optimizer_(optimizer),
      workload_(workload),
      base_(std::move(base)),
      rich_(std::move(rich)) {
  template_extremes_.resize(workload.num_templates());
  for (TemplateId t = 0; t < workload.num_templates(); ++t) {
    TemplateExtremes& ex = template_extremes_[t];
    double min_sel = 2.0;
    double max_sel = -1.0;
    for (QueryId qid : workload.QueriesOfTemplate(t)) {
      const Query& q = workload.query(qid);
      if (!q.update.has_value()) continue;
      ex.has_dml = true;
      if (q.update->selectivity < min_sel) {
        min_sel = q.update->selectivity;
        ex.min_sel_query = qid;
      }
      if (q.update->selectivity > max_sel) {
        max_sel = q.update->selectivity;
        ex.max_sel_query = qid;
      }
    }
  }
}

CostInterval CostBoundsDeriver::SelectBounds(const Query& query) const {
  // The SELECT part alone (CostParts splits DML into its two halves).
  const CostSplit base_parts = optimizer_.CostParts(query, base_);
  const CostSplit rich_parts = optimizer_.CostParts(query, rich_);
  // The validating constructor normalizes model round-off inversions; the
  // monotonicity property itself is asserted by tests.
  return CostInterval(rich_parts.select, base_parts.select);
}

CostInterval CostBoundsDeriver::UpdateBounds(TemplateId t,
                                             const Configuration& config) const {
  const TemplateExtremes& ex = template_extremes_[t];
  if (!ex.has_dml) return CostInterval(0.0, 0.0);
  const CostSplit lo =
      optimizer_.CostParts(workload_.query(ex.min_sel_query), config);
  const CostSplit hi =
      optimizer_.CostParts(workload_.query(ex.max_sel_query), config);
  return CostInterval(lo.update, hi.update);
}

std::vector<CostInterval> CostBoundsDeriver::WorkloadBounds(
    const Configuration& config) const {
  // Per-template update-part bounds in `config`: 2 calls per DML template.
  std::vector<CostInterval> update_bounds(workload_.num_templates());
  for (TemplateId t = 0; t < workload_.num_templates(); ++t) {
    update_bounds[t] = UpdateBounds(t, config);
  }

  std::vector<CostInterval> out(workload_.size());
  for (QueryId qid = 0; qid < workload_.size(); ++qid) {
    const Query& q = workload_.query(qid);
    CostInterval iv{0.0, 0.0};
    if (!q.select.accesses.empty()) {
      iv = SelectBounds(q);
    }
    if (q.update.has_value()) {
      const CostInterval& ub = update_bounds[q.template_id];
      iv.low += ub.low;
      iv.high += ub.high;
    }
    out[qid] = iv;
  }
  return out;
}

std::vector<CostInterval> CostBoundsDeriver::DeltaBounds(
    const Configuration& c1, const Configuration& c2) const {
  std::vector<CostInterval> b1 = WorkloadBounds(c1);
  std::vector<CostInterval> b2 = WorkloadBounds(c2);
  std::vector<CostInterval> out(b1.size());
  for (size_t i = 0; i < b1.size(); ++i) {
    out[i] = CostInterval(b1[i].low - b2[i].high, b1[i].high - b2[i].low);
  }
  return out;
}

}  // namespace pdx
