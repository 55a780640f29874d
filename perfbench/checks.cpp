#include "checks.hpp"

#include <algorithm>

namespace perfbench {

CampaignChecker::CampaignChecker(const std::vector<ww::trace::Job>& jobs,
                                 const ww::env::Environment& env,
                                 std::vector<int> caps, double tol)
    : jobs_(&jobs), env_(&env), caps_(std::move(caps)), tol_(tol) {
  by_id_.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    by_id_.emplace_back(jobs[i].id, i);
  std::sort(by_id_.begin(), by_id_.end());
}

std::vector<std::string> CampaignChecker::check(
    const ww::dc::CampaignResult& result) const {
  std::vector<std::string> failures;
  const auto fail = [&](std::string what) {
    failures.push_back(std::move(what));
  };

  if (result.num_jobs != static_cast<long>(jobs_->size()) ||
      result.jobs.size() != jobs_->size())
    fail("placed " + std::to_string(result.jobs.size()) + " of " +
         std::to_string(jobs_->size()) + " jobs (num_jobs " +
         std::to_string(result.num_jobs) + ")");

  const std::size_t regions = caps_.size();
  std::vector<char> placed(jobs_->size(), 0);
  // (time, +1 start / -1 finish) per region for the concurrency sweep.
  std::vector<std::vector<std::pair<double, int>>> edges(regions);
  long violations = 0;
  long bad_records = 0;
  long early_starts = 0;
  for (const ww::dc::JobOutcome& o : result.jobs) {
    const auto it = std::lower_bound(
        by_id_.begin(), by_id_.end(), std::make_pair(o.job_id, std::size_t{0}));
    if (it == by_id_.end() || it->first != o.job_id || placed[it->second] ||
        o.exec_region < 0 || static_cast<std::size_t>(o.exec_region) >= regions) {
      ++bad_records;
      continue;
    }
    placed[it->second] = 1;
    const ww::trace::Job& job = (*jobs_)[it->second];
    const double earliest =
        job.submit_time + env_->transfer_latency_seconds(
                              job.home_region, o.exec_region, job.package_bytes);
    if (o.start_time < earliest - 1e-6) ++early_starts;
    const double service = o.finish_time - job.submit_time;
    if (service > (1.0 + tol_) * job.exec_seconds * (1.0 + 1e-9)) ++violations;
    auto& region_edges = edges[static_cast<std::size_t>(o.exec_region)];
    region_edges.emplace_back(o.start_time, +1);
    region_edges.emplace_back(o.finish_time, -1);
  }
  if (bad_records > 0)
    fail(std::to_string(bad_records) +
         " record(s) with an unknown, repeated or out-of-range job");
  if (early_starts > 0)
    fail(std::to_string(early_starts) +
         " job(s) start before submit time plus transfer latency");
  if (violations != result.violations)
    fail("recounted " + std::to_string(violations) +
         " delay violations, result says " + std::to_string(result.violations));

  for (std::size_t r = 0; r < regions; ++r) {
    // Runs occupy [start, finish): at equal times finishes sort first.
    std::sort(edges[r].begin(), edges[r].end());
    int running = 0;
    int peak = 0;
    for (const auto& [t, delta] : edges[r]) {
      running += delta;
      peak = std::max(peak, running);
    }
    if (peak > caps_[r])
      fail("region " + std::to_string(r) + " runs " + std::to_string(peak) +
           " jobs at once, capacity " + std::to_string(caps_[r]));
  }
  return failures;
}

bool same_totals(const ww::dc::CampaignResult& a,
                 const ww::dc::CampaignResult& b) {
  return a.num_jobs == b.num_jobs && a.total_carbon_g == b.total_carbon_g &&
         a.total_water_l == b.total_water_l &&
         a.total_cost_usd == b.total_cost_usd &&
         a.violations == b.violations &&
         a.service_norm.mean() == b.service_norm.mean();
}

}  // namespace perfbench
