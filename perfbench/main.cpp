// Campaign benchmark: fixed-seed WaterWise campaigns on the Borg- and
// Alibaba-rate traces, timed from outside the library and checked against
// properties computed apart from the simulator.  See perfbench/README.md.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run does its set-up (trace generation, environment and footprint
// construction), one untimed Baseline campaign (the reference for the
// paper's headline check), one untimed warm-up campaign, and then timed
// campaigns until --seconds have passed (at least kMinRounds).  Each timing
// is taken from the best of the timed campaigns (see best_round()).
// With --trace 1 the run then takes the first 1/kPrefixShare of the trace,
// runs kTracedRounds campaigns on it with obs::Trace spans on (each next to
// an untraced one) and, on the Borg workload, the Fig. 8 lambda sweep on
// the campaign runner, and prints the per-layer metrics instead of the
// end-to-end ones.  The last stdout line is the result JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "checks.hpp"
#include "core/waterwise.hpp"
#include "dc/campaign_runner.hpp"
#include "dc/simulator.hpp"
#include "footprint/footprint.hpp"
#include "obs/trace.hpp"
#include "sched/basic.hpp"
#include "span_rollup.hpp"
#include "trace/generator.hpp"
#include "util/work_steal.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::AllocCounts;
using perfbench::thread_allocs;
namespace dc = ww::dc;

// Taken during static initialization, before main(): set-up time counts
// from the start of the process, not from the start of main's work.
const Clock::time_point g_process_start = Clock::now();

constexpr int kMinRounds = 4;
constexpr int kTracedRounds = 3;
constexpr int kSweepRounds = 3;
/// The traced campaigns and the sweep run on the first 1/kPrefixShare of
/// the trace: a whole campaign's spans would overflow obs::Trace's
/// per-thread cap of 2^20 events (16 events per window), and the sweep runs
/// six campaigns at once.
constexpr std::size_t kPrefixShare = 4;
constexpr double kTol = 0.5;
constexpr double kLambdaCo2 = 0.5;
/// Fig. 8 sweep points.  kSweepLambdas[kHeadlineIndex] is kLambdaCo2.
const std::vector<double> kSweepLambdas = {0.1, 0.3, 0.5, 0.7, 0.9};
constexpr std::size_t kHeadlineIndex = 2;
/// Spans rolled up in the traced rounds.
const std::vector<const char*> kSpans = {
    "sim.window",   "sim.apply",  "sched.window",  "sched.chunk_solve",
    "sched.commit", "milp.solve", "milp.presolve", "milp.lp"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- command line -----------------------------------------------------------

struct Workload {
  const char* name;
  bool alibaba;      ///< Alibaba-rate trace instead of Borg-rate.
  std::size_t jobs;  ///< The run keeps the first `jobs` arrivals ...
  double days;       ///< ... of a trace generated over this many days.
  bool sweep;        ///< The traced run adds the lambda sweep.
};

// A fixed job count, not a fixed horizon: the bursty arrival process makes
// the job count of a fixed horizon vary by +-15% from seed to seed, and
// every total (carbon, water, wall time) with it.  The counts are large
// because the seed is the main source of spread between runs: at a quarter
// of them the IQR of decision p99 over seeds 1-9 was 28% of the median.
// The horizons hold at least 1.3x the job count.  See README "Workloads".
constexpr Workload kWorkloads[] = {
    {"borg-waterwise", false, 176000, 11.0, true},
    {"alibaba-waterwise", true, 380000, 3.0, false},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) args.workload = &w;
      if (args.workload == nullptr)
        throw std::invalid_argument("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      args.seed = std::stoull(value, &used);
      have_seed = used == value.size() && value[0] != '-';
    } else if (key == "--seconds") {
      args.seconds = std::stod(value, &used);
      have_seconds = used == value.size() && args.seconds > 0.0 &&
                     args.seconds <= 3600.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument '" + key + "'");
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: campaign_bench --workload <borg-waterwise|alibaba-waterwise> "
        "--seed <n> --seconds <s in (0, 3600]> --trace <0|1>");
  return args;
}

// --- set-up -----------------------------------------------------------------

struct Setup {
  std::vector<ww::trace::Job> jobs;
  std::shared_ptr<const ww::env::Environment> env;
  std::shared_ptr<const ww::footprint::FootprintModel> footprint;
  dc::SimConfig sim;
  double trace_s = 0.0;  ///< trace::generate_trace
  double env_s = 0.0;    ///< Environment::builtin + FootprintModel
  double setup_s = 0.0;  ///< Process start to the end of set-up.
};

Setup make_setup(const Args& args) {
  Setup s;
  const Workload& w = *args.workload;
  const Clock::time_point t0 = Clock::now();
  s.jobs = ww::trace::generate_trace(
      w.alibaba ? ww::trace::alibaba_config(args.seed, w.days)
                : ww::trace::borg_config(args.seed, w.days));
  if (s.jobs.size() < w.jobs)
    throw std::runtime_error("seed " + std::to_string(args.seed) + " gives " +
                             std::to_string(s.jobs.size()) + " jobs over " +
                             std::to_string(w.days) + " days, fewer than " +
                             std::to_string(w.jobs));
  s.jobs.resize(w.jobs);
  const Clock::time_point t1 = Clock::now();
  s.env = std::make_shared<const ww::env::Environment>(
      ww::env::Environment::builtin());
  s.footprint = std::make_shared<const ww::footprint::FootprintModel>(*s.env);
  const Clock::time_point t2 = Clock::now();
  s.trace_s = seconds_between(t0, t1);
  s.env_s = seconds_between(t1, t2);
  s.setup_s = seconds_between(g_process_start, t2);
  s.sim.tol = kTol;
  s.sim.record_jobs = true;  // the output checks read the per-job records
  return s;
}

// --- one campaign -----------------------------------------------------------

/// dc::Scheduler wrapper that times every schedule() and on_job_finished()
/// call around the wrapped scheduler and counts the allocations the wrapped
/// scheduler makes on the calling thread.
class TimedScheduler final : public dc::Scheduler {
 public:
  TimedScheduler(dc::Scheduler& inner, std::size_t expected_windows)
      : inner_(inner) {
    latency_us_.reserve(expected_windows);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override {
    const AllocCounts a0 = thread_allocs();
    const Clock::time_point t0 = Clock::now();
    std::vector<dc::Decision> decisions = inner_.schedule(batch, ctx);
    const Clock::time_point t1 = Clock::now();
    allocs_ += thread_allocs() - a0;
    latency_us_.push_back(1e6 * seconds_between(t0, t1));
    schedule_s_ += seconds_between(t0, t1);
    batch_jobs_ += static_cast<long>(batch.size());
    decisions_ += static_cast<long>(decisions.size());
    return decisions;
  }

  void on_job_finished(const ww::trace::Job& job) override {
    const AllocCounts a0 = thread_allocs();
    const Clock::time_point t0 = Clock::now();
    inner_.on_job_finished(job);
    finished_s_ += seconds_between(t0, Clock::now());
    allocs_ += thread_allocs() - a0;
  }

  std::vector<double> latency_us_;  ///< One sample per schedule() call.
  double schedule_s_ = 0.0;
  double finished_s_ = 0.0;
  long batch_jobs_ = 0;  ///< Pending jobs summed over windows.
  long decisions_ = 0;   ///< Decisions returned (admitted or not).
  AllocCounts allocs_;   ///< Inside the wrapped scheduler.

 private:
  dc::Scheduler& inner_;
};

/// What one campaign measured.  `result.jobs` is dropped once checked.
struct Campaign {
  dc::CampaignResult result;
  bool waterwise = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Thread CPU time of Simulator::run.
  double schedule_s = 0.0;
  double finished_s = 0.0;
  std::vector<double> latency_us;
  long windows = 0;
  long batch_jobs = 0;
  long decisions = 0;
  AllocCounts sched_allocs;
  AllocCounts run_allocs;  ///< Everything inside Simulator::run.
  ww::core::SchedulerStats stats;
};

Campaign run_campaign(const Setup& s, dc::Scheduler& scheduler,
                      bool waterwise) {
  dc::Simulator sim(*s.env, *s.footprint, s.sim);
  TimedScheduler timed(scheduler, 2 * s.jobs.size() + 16);
  Campaign c;
  c.waterwise = waterwise;
  const AllocCounts a0 = thread_allocs();
  const double cpu0 = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  c.result = sim.run(s.jobs, timed);
  c.wall_s = seconds_between(t0, Clock::now());
  c.cpu_s = thread_cpu_seconds() - cpu0;
  c.run_allocs = thread_allocs() - a0;
  c.schedule_s = timed.schedule_s_;
  c.finished_s = timed.finished_s_;
  c.latency_us = std::move(timed.latency_us_);
  c.windows = static_cast<long>(c.latency_us.size());
  c.batch_jobs = timed.batch_jobs_;
  c.decisions = timed.decisions_;
  c.sched_allocs = timed.allocs_;
  return c;
}

Campaign run_waterwise(const Setup& s, double lambda_co2) {
  ww::core::WaterWiseConfig cfg;
  cfg.lambda_co2 = lambda_co2;
  cfg.lambda_h2o = 1.0 - lambda_co2;
  cfg.solver_threads = 1;
  ww::core::WaterWiseScheduler scheduler(cfg);
  Campaign c = run_campaign(s, scheduler, true);
  c.stats = scheduler.stats();
  return c;
}

Campaign run_baseline(const Setup& s) {
  ww::sched::BaselineScheduler scheduler;
  return run_campaign(s, scheduler, false);
}

// --- one round --------------------------------------------------------------

/// One operation set: a single WaterWise campaign at kLambdaCo2, or one
/// sweep of Baseline plus every kSweepLambdas point on the campaign runner.
struct Round {
  std::vector<Campaign> campaigns;
  bool sweep = false;
  double wall_s = 0.0;
  std::uint64_t tasks_stolen = 0;
};

Round run_serial(const Setup& s) {
  const ww::util::WorkStealingPool& pool = ww::util::WorkStealingPool::global();
  const std::uint64_t stolen0 = pool.tasks_stolen();
  Round round;
  round.campaigns.push_back(run_waterwise(s, kLambdaCo2));
  round.wall_s = round.campaigns.back().wall_s;
  round.tasks_stolen = pool.tasks_stolen() - stolen0;
  return round;
}

Round run_sweep(const Setup& s, std::uint64_t seed) {
  Round round;
  round.sweep = true;
  dc::CampaignConfig cfg;
  cfg.jobs = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  cfg.seed = seed;
  dc::CampaignRunner runner(cfg);
  round.campaigns.resize(1 + kSweepLambdas.size());
  // The result moves through the runner's outcome and back, so the per-job
  // records are never copied.
  runner.add_baseline("", "Baseline", [&](dc::ScenarioContext& ctx) {
    round.campaigns[ctx.index] = run_baseline(s);
    return std::move(round.campaigns[ctx.index].result);
  });
  for (const double lambda : kSweepLambdas)
    runner.add("lambda_CO2", [&, lambda](dc::ScenarioContext& ctx) {
      round.campaigns[ctx.index] = run_waterwise(s, lambda);
      return std::move(round.campaigns[ctx.index].result);
    });
  const ww::util::WorkStealingPool& pool = ww::util::WorkStealingPool::global();
  const std::uint64_t stolen0 = pool.tasks_stolen();
  const Clock::time_point t0 = Clock::now();
  std::vector<dc::ScenarioOutcome> outcomes = runner.run_all();
  round.wall_s = seconds_between(t0, Clock::now());
  round.tasks_stolen = pool.tasks_stolen() - stolen0;
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    round.campaigns[i].result = std::move(outcomes[i].result);
  return round;
}

/// The WaterWise campaign at kLambdaCo2: the only campaign of a serial
/// round, the sweep's kHeadlineIndex point (after its Baseline).
const Campaign& headline(const Round& r) {
  return r.campaigns[r.sweep ? 1 + kHeadlineIndex : 0];
}

// --- checks -----------------------------------------------------------------

/// Checks every campaign of `round` and drops its per-job records.  Every
/// campaign must pass the record checks; the kLambdaCo2 campaign must beat
/// `baseline` on carbon and water and reproduce `reference`'s totals
/// exactly; a sweep must trade water for carbon from its lowest to its
/// highest lambda.  Returns the number of campaigns that failed; failures
/// are described on stderr.
int check_round(Round& round, const perfbench::CampaignChecker& checker,
                const dc::CampaignResult& baseline,
                const dc::CampaignResult& reference) {
  int failed = 0;
  for (std::size_t i = 0; i < round.campaigns.size(); ++i) {
    Campaign& c = round.campaigns[i];
    std::vector<std::string> why = checker.check(c.result);
    if (&c == &headline(round)) {
      if (!(c.result.total_carbon_g < baseline.total_carbon_g &&
            c.result.total_water_l < baseline.total_water_l))
        why.push_back("WaterWise at lambda_CO2 0.5 does not beat Baseline on "
                      "both carbon and water");
      if (!perfbench::same_totals(c.result, reference))
        why.push_back("totals differ from the warm-up campaign's");
    }
    if (round.sweep && i == round.campaigns.size() - 1) {
      const dc::CampaignResult& lo = round.campaigns[1].result;
      if (!(c.result.total_carbon_g < lo.total_carbon_g &&
            c.result.total_water_l > lo.total_water_l))
        why.push_back("lambda_CO2 0.9 does not trade water for carbon "
                      "against 0.1");
    }
    if (!why.empty()) ++failed;
    for (const std::string& msg : why)
      std::cerr << "check failed: campaign " << i << " ("
                << c.result.scheduler_name << "): " << msg << "\n";
    c.result.jobs.clear();
    c.result.jobs.shrink_to_fit();
  }
  return failed;
}

// --- metrics ----------------------------------------------------------------

/// Nearest-rank quantile of sorted samples.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Per-round figures, summed over the round's WaterWise campaigns unless
/// noted.
struct RoundFigures {
  double wall_s = 0.0;
  double jobs_per_s = 0.0;  ///< All campaigns' jobs over the round's wall.
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  long latency_samples = 0;
  double carbon_kg = 0.0, water_kl = 0.0, service_norm = 0.0;
  double sim_self_s = 0.0, schedule_s = 0.0, model_s = 0.0;
  double solve_s = 0.0, presolve_s = 0.0;
  double parallelism = 0.0;  ///< All campaigns' CPU time over the wall.
  double scenario_wall_max_s = 0.0;
  double tasks_stolen = 0.0;
};

RoundFigures figures(const Round& r) {
  RoundFigures f;
  std::vector<double> samples;
  long all_jobs = 0, ww_jobs = 0;
  double norm_sum = 0.0, cpu_s = 0.0;
  for (const Campaign& c : r.campaigns) {
    all_jobs += c.result.num_jobs;
    cpu_s += c.cpu_s;
    f.scenario_wall_max_s = std::max(f.scenario_wall_max_s, c.wall_s);
    if (!c.waterwise) continue;
    samples.insert(samples.end(), c.latency_us.begin(), c.latency_us.end());
    ww_jobs += c.result.num_jobs;
    norm_sum += c.result.service_norm.mean() *
                static_cast<double>(c.result.num_jobs);
    f.carbon_kg += c.result.total_carbon_g / 1e3;
    f.water_kl += c.result.total_water_l / 1e3;
    f.sim_self_s += c.wall_s - c.schedule_s - c.finished_s;
    f.schedule_s += c.schedule_s;
    f.solve_s += c.stats.solve_seconds;
    f.presolve_s += c.stats.presolve_seconds;
  }
  std::sort(samples.begin(), samples.end());
  f.p50_us = nearest_rank(samples, 0.50);
  f.p99_us = nearest_rank(samples, 0.99);
  f.p999_us = nearest_rank(samples, 0.999);
  f.latency_samples = static_cast<long>(samples.size());
  f.wall_s = r.wall_s;
  f.jobs_per_s = static_cast<double>(all_jobs) / r.wall_s;
  f.service_norm = norm_sum / static_cast<double>(std::max(ww_jobs, 1L));
  f.model_s = f.schedule_s - f.solve_s;
  f.parallelism = cpu_s / r.wall_s;
  f.tasks_stolen = static_cast<double>(r.tasks_stolen);
  return f;
}

/// Quantile `q` over rounds of one RoundFigures field.
template <typename Field>
double over_rounds(const std::vector<RoundFigures>& rounds, Field field,
                   double q) {
  std::vector<double> v;
  v.reserve(rounds.size());
  for (const RoundFigures& f : rounds) v.push_back(f.*field);
  std::sort(v.begin(), v.end());
  return nearest_rank(v, q);
}

/// A timing over rounds, reported from the best round: the least time, the
/// highest rate.  Other tenants of the shared host slow stretches of a run
/// by up to 60% (README "Why the best round"); they only ever add time, so
/// the best round tracks the program's own speed while the median moves
/// with how much of the run they covered.
template <typename Field>
double best_round(const std::vector<RoundFigures>& rounds, Field field,
                  bool higher_is_better = false) {
  return over_rounds(rounds, field, higher_is_better ? 1.0 : 0.0);
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << (body_.empty() ? "" : ", ") << '"' << name << "\": {\"value\": "
        << value << ", \"unit\": \"" << unit << "\"}";
    body_ += out.str();
    std::cerr << "  " << name << " = " << value << " " << unit << "\n";
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counts operations (campaigns) and the ones that failed a check or threw.
class Ledger {
 public:
  /// Runs `body`, which returns how many of its `ops` campaigns failed.
  /// Returns true when none did.
  template <typename Body>
  bool attempt(std::size_t ops, Body&& body) {
    attempted_ += static_cast<long>(ops);
    try {
      const int bad = body();
      failed_ += bad;
      return bad == 0;
    } catch (const std::exception& e) {
      std::cerr << "campaign threw: " << e.what() << "\n";
      failed_ += static_cast<long>(ops);
      return false;
    }
  }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

/// A trace with its checker and its two untimed reference campaigns: the
/// Baseline, and a warm-up WaterWise campaign at kLambdaCo2 whose totals
/// every later campaign at kLambdaCo2 must reproduce.
struct Stage {
  Stage(const Setup& setup, Ledger& ledger)
      : s(setup),
        checker(s.jobs, *s.env,
                dc::Simulator(*s.env, *s.footprint, s.sim).region_capacities(),
                s.sim.tol) {
    ledger.attempt(1, [&] {
      Campaign b = run_baseline(s);
      const std::vector<std::string> why = checker.check(b.result);
      for (const std::string& msg : why)
        std::cerr << "check failed: Baseline: " << msg << "\n";
      b.result.jobs.clear();
      baseline = std::move(b.result);
      return why.empty() ? 0 : 1;
    });
    ledger.attempt(1, [&] {
      Round warmup = run_serial(s);
      dc::CampaignResult own = warmup.campaigns.front().result;
      const int bad = check_round(warmup, checker, baseline, own);
      reference = std::move(warmup.campaigns.front());
      return bad;
    });
    if (reference.windows == 0)
      throw std::runtime_error("the warm-up campaign did not run");
  }

  /// One checked serial round; `ok` tells whether it passed.
  Round serial(Ledger& ledger, bool& ok) const {
    Round r;
    ok = ledger.attempt(1, [&] {
      r = run_serial(s);
      return check_round(r, checker, baseline, reference.result);
    });
    return r;
  }

  const Setup& s;
  perfbench::CampaignChecker checker;
  dc::CampaignResult baseline;
  Campaign reference;  ///< The warm-up, its per-job records dropped.
};

/// The per-layer metrics of the timed rounds.  Counters come from the
/// first timed round (they repeat exactly), times are best rounds.
void add_layer_metrics(MetricsJson& m, const Setup& s, const Round& first,
                       const std::vector<RoundFigures>& timed) {
  const Campaign& c = first.campaigns.front();
  const ww::core::SchedulerStats& st = c.stats;
  const auto per = [](double a, long b) {
    return a / static_cast<double>(std::max(b, 1L));
  };
  const double jobs = static_cast<double>(c.result.num_jobs);
  m.add("trace.generate_s", s.trace_s, "s");
  m.add("env.build_s", s.env_s, "s");
  m.add("dc.sim_self_s", best_round(timed, &RoundFigures::sim_self_s), "s");
  m.add("dc.allocs_per_job",
        static_cast<double>((c.run_allocs - c.sched_allocs).count) / jobs,
        "count");
  m.add("core.schedule_s", best_round(timed, &RoundFigures::schedule_s), "s");
  m.add("core.windows", static_cast<double>(c.windows), "count");
  m.add("core.jobs_per_window",
        per(static_cast<double>(c.batch_jobs), c.windows), "jobs");
  m.add("core.decisions_per_job", static_cast<double>(c.decisions) / jobs,
        "ratio");
  m.add("core.model_s", best_round(timed, &RoundFigures::model_s), "s");
  m.add("core.allocs_per_window",
        per(static_cast<double>(c.sched_allocs.count), c.windows), "count");
  m.add("core.alloc_bytes_per_window",
        per(static_cast<double>(c.sched_allocs.bytes), c.windows), "B");
  m.add("milp.solve_s", best_round(timed, &RoundFigures::solve_s), "s");
  m.add("milp.presolve_s", best_round(timed, &RoundFigures::presolve_s), "s");
  m.add("milp.solves", static_cast<double>(st.milp_solves), "count");
  m.add("milp.soft_fallback_ratio",
        per(static_cast<double>(st.soft_fallbacks), st.milp_solves), "ratio");
  m.add("milp.nodes", static_cast<double>(st.nodes_explored), "count");
  m.add("milp.simplex_iterations", static_cast<double>(st.simplex_iterations),
        "count");
  m.add("milp.refactorizations", static_cast<double>(st.refactorizations),
        "count");
  m.add("milp.ft_updates", static_cast<double>(st.ft_updates), "count");
}

/// Traced rounds on the prefix stage: the program's own spans, rolled up
/// to self time per span name, each traced campaign next to an untraced
/// one for the overhead.  A traced campaign must reproduce the untraced
/// totals, have one sim.window span per window and one milp.solve span per
/// solve, and drop no events.
void add_span_metrics(MetricsJson& m, Ledger& ledger, const Stage& prefix) {
  ww::obs::Trace& trace = ww::obs::Trace::instance();
  const Campaign& ref = prefix.reference;
  std::vector<RoundFigures> traced, untraced;
  std::map<std::string, std::vector<double>> self_s;
  std::map<std::string, long> counts;
  std::size_t dropped = 0;
  for (int i = 0; i < kTracedRounds; ++i) {
    bool ok = false;
    const Round plain = prefix.serial(ledger, ok);
    if (ok) untraced.push_back(figures(plain));
    trace.clear();
    trace.set_enabled(true);
    Round r;
    ok = ledger.attempt(1, [&] {
      r = run_serial(prefix.s);
      trace.set_enabled(false);
      int bad = check_round(r, prefix.checker, prefix.baseline, ref.result);
      const auto spans = perfbench::rollup_spans(trace);
      const auto count_of = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0L : it->second.count;
      };
      dropped += trace.dropped_events();
      if (trace.dropped_events() != 0 ||
          count_of("milp.solve") != ref.stats.milp_solves ||
          count_of("sim.window") != ref.windows) {
        std::cerr << "check failed: traced campaign dropped "
                  << trace.dropped_events() << " event(s), has "
                  << count_of("milp.solve") << " milp.solve spans for "
                  << ref.stats.milp_solves << " solves and "
                  << count_of("sim.window") << " sim.window spans for "
                  << ref.windows << " windows\n";
        bad = 1;
      }
      for (const char* name : kSpans) {
        const auto it = spans.find(name);
        self_s[name].push_back(it == spans.end() ? 0.0 : it->second.self_s);
        counts[name] = count_of(name);
      }
      return bad;
    });
    trace.set_enabled(false);
    trace.clear();
    if (ok) traced.push_back(figures(r));
  }
  for (const char* name : kSpans) {
    std::vector<double>& v = self_s[name];
    std::sort(v.begin(), v.end());
    m.add(std::string("span.") + name + ".self_s", nearest_rank(v, 0.0), "s");
    m.add(std::string("span.") + name + ".count",
          static_cast<double>(counts[name]), "count");
  }
  const double untraced_wall = best_round(untraced, &RoundFigures::wall_s);
  m.add("obs.trace_overhead_pct",
        100.0 * (best_round(traced, &RoundFigures::wall_s) - untraced_wall) /
            untraced_wall,
        "%");
  m.add("obs.dropped_events", static_cast<double>(dropped), "count");
}

/// The fan-out layer.  A sweep workload runs one untimed warm-up sweep and
/// kSweepRounds timed sweeps on the prefix stage, each checked against its
/// own Baseline, and its kLambdaCo2 point against the prefix's serial
/// campaign.  The other workloads report the same figures for their own
/// (serial) timed rounds.
void add_fanout_metrics(MetricsJson& m, Ledger& ledger, const Args& args,
                        const Stage& prefix,
                        std::vector<RoundFigures> rounds) {
  if (args.workload->sweep) {
    rounds.clear();
    for (int i = 0; i <= kSweepRounds; ++i) {
      Round r;
      if (ledger.attempt(1 + kSweepLambdas.size(), [&] {
            r = run_sweep(prefix.s, args.seed);
            const dc::CampaignResult base = r.campaigns.front().result;
            return check_round(r, prefix.checker, base,
                               prefix.reference.result);
          }) &&
          i > 0)
        rounds.push_back(figures(r));
    }
  }
  m.add("dc.sweep_parallelism",
        best_round(rounds, &RoundFigures::parallelism, true), "ratio");
  m.add("dc.scenario_wall_max_s",
        best_round(rounds, &RoundFigures::scenario_wall_max_s), "s");
  m.add("util.pool_tasks_stolen",
        over_rounds(rounds, &RoundFigures::tasks_stolen, 0.5), "count");
}

// --- main -------------------------------------------------------------------

int run(const Args& args) {
  const Workload& w = *args.workload;
  const Setup s = make_setup(args);
  Ledger ledger;
  const Stage full(s, ledger);

  std::vector<RoundFigures> timed;
  Round first;  // for the per-layer counters
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       i < kMinRounds || seconds_between(start, Clock::now()) < args.seconds;
       ++i) {
    bool ok = false;
    Round r = full.serial(ledger, ok);
    if (!ok) continue;
    timed.push_back(figures(r));
    const RoundFigures& f = timed.back();
    std::cerr << "  round " << timed.size() << ": wall " << f.wall_s
              << " s, p50 " << f.p50_us << " us, p99 " << f.p99_us << " us\n";
    if (first.campaigns.empty()) first = std::move(r);
  }
  if (timed.empty()) throw std::runtime_error("every timed campaign failed");
  std::cerr << w.name << ": seed " << args.seed << ", " << s.jobs.size()
            << " jobs, " << timed.size() << " timed campaign(s) in "
            << seconds_between(start, Clock::now()) << " s, "
            << timed.front().latency_samples << " decisions each\n";

  MetricsJson m;
  const RoundFigures& totals = timed.front();  // identical in every round
  if (!args.trace) {
    m.add("jobs_per_s", best_round(timed, &RoundFigures::jobs_per_s, true),
          "jobs/s");
    m.add("decision_p50_us", best_round(timed, &RoundFigures::p50_us), "us");
    m.add("decision_p99_us", best_round(timed, &RoundFigures::p99_us), "us");
    m.add("setup_s", s.setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("carbon_kg", totals.carbon_kg, "kg");
    m.add("water_kl", totals.water_kl, "kL");
    m.add("service_norm", totals.service_norm, "ratio");
    std::cerr << "  (decision p99.9 "
              << best_round(timed, &RoundFigures::p999_us) << " us)\n";
  } else {
    add_layer_metrics(m, s, first, timed);
    Setup head = s;
    head.jobs.resize(s.jobs.size() / kPrefixShare);
    const Stage prefix(head, ledger);
    add_span_metrics(m, ledger, prefix);
    add_fanout_metrics(m, ledger, args, prefix, timed);
  }

  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": {"
            << m.body() << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the library's process-wide knobs to their defaults so the figures
  // describe one configuration whatever the caller's environment holds.
  for (const char* knob : {"WW_PRESOLVE", "WW_REFACTOR_EVERY_PIVOT",
                           "WW_SCHED_THREADS", "WW_FAULT_SOLVES", "WW_TRACE"})
    unsetenv(knob);
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 1;
  }
}
