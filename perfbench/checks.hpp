// Output checks for one campaign, computed from the per-job records
// (SimConfig::record_jobs) and the trace, apart from the simulator's own
// bookkeeping.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dc/metrics.hpp"
#include "env/environment.hpp"
#include "trace/job.hpp"

namespace perfbench {

class CampaignChecker {
 public:
  /// `caps` are the simulator's region_capacities(); `tol` its delay
  /// tolerance.  `jobs` and `env` must outlive the checker.
  CampaignChecker(const std::vector<ww::trace::Job>& jobs,
                  const ww::env::Environment& env, std::vector<int> caps,
                  double tol);

  /// Every property the campaign breaks, empty when it passes:
  ///  - every trace job is placed exactly once;
  ///  - per-region concurrency never exceeds the region's capacity;
  ///  - no job starts before submit time plus its transfer latency;
  ///  - delay violations recounted from the records equal the result's.
  [[nodiscard]] std::vector<std::string> check(
      const ww::dc::CampaignResult& result) const;

 private:
  const std::vector<ww::trace::Job>* jobs_;
  const ww::env::Environment* env_;
  std::vector<int> caps_;
  double tol_;
  /// (job id, trace index), sorted by id.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id_;
};

/// True when two campaigns report bit-identical headline totals (jobs,
/// carbon, water, cost, violations, service-time mean).
[[nodiscard]] bool same_totals(const ww::dc::CampaignResult& a,
                               const ww::dc::CampaignResult& b);

}  // namespace perfbench
