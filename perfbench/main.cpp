// End-to-end benchmark program: `trident eval` of a pinned spec with the
// native object cache and the result store cold and warm, plus the model
// sweep that predicts without fault injection. run.py builds and invokes
// it; NOTES.md documents the workloads, metrics and checks.
//
//   perfbench_eval --root DIR --workload W --seed N --seconds S --trace 0|1
//
// Every workload is a closed loop with one caller: the next job starts
// only after the previous one returned. The last stdout line is the
// result object {correct, attempted, failed, metrics}.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "baselines/epvf.h"
#include "baselines/pvf.h"
#include "bench.h"
#include "core/trident.h"
#include "eval/report.h"
#include "eval/store.h"
#include "interp/native.h"
#include "obs/metrics.h"
#include "profiler/profiler.h"
#include "support/json.h"
#include "support/str.h"
#include "support/thread_pool.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace json = support::json;

double now() { return obs::now_seconds(); }

// ---- Eval jobs -------------------------------------------------------------

const char* const kArtifacts[] = {"report.csv", "per_instruction.csv",
                                  "report.json", "report.md"};

using Artifacts = std::vector<std::string>;

Artifacts read_artifacts(const std::string& dir) {
  Artifacts a;
  for (const char* name : kArtifacts) a.push_back(read_file(dir + "/" + name));
  return a;
}

void compare_artifacts(const Artifacts& got, const Artifacts& want,
                       const std::string& what,
                       std::vector<std::string>& errors) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      errors.push_back(std::string(kArtifacts[i]) + " differs from " + what);
    }
  }
}

enum class Expect { Computed, Cached };

/// Cell accounting of one eval job: every planned cell computed with
/// every planned trial (empty store), or every cell a store hit with no
/// trial (complete store). 187 cells and 22,000 trials for paper_small.
void check_accounting(const eval::EvalResults& r, Expect expect,
                      std::vector<std::string>& errors) {
  uint64_t cells = 0, trials = 0;
  const uint64_t seeds = r.spec.seeds.size();
  for (const auto& w : r.workloads) {
    cells += seeds * (1 + w.insts.size()) + r.spec.models.size();
    trials += seeds * (r.spec.fi.trials + w.insts.size() * r.spec.per_inst.trials);
  }
  const bool ok =
      r.cells_total == cells && r.cells_deduped == 0 &&
      (expect == Expect::Computed
           ? r.cells_computed == cells && r.cells_cached == 0 &&
                 r.fi_trials_run == trials
           : r.cells_cached == cells && r.cells_computed == 0 &&
                 r.fi_trials_run == 0);
  if (!ok) {
    errors.push_back(
        "cell accounting: total " + std::to_string(r.cells_total) +
        " computed " + std::to_string(r.cells_computed) + " cached " +
        std::to_string(r.cells_cached) + " trials " +
        std::to_string(r.fi_trials_run) + "; expected " +
        std::to_string(cells) + " cells " +
        (expect == Expect::Computed ? "computed with " + std::to_string(trials)
                                    : std::string("cached with 0")) +
        " trials");
  }
}

/// What the traced run derives from one job.
struct JobFacts {
  uint64_t cc_runs = 0;
  double cc_s = 0;
  std::vector<double> cells;  // cell span seconds
  double cell_phase_s = 0;
  double steal_ratio = 0;
  uint64_t snapshot_count = 0, snapshot_bytes = 0, resumed_trials = 0;
  uint64_t trials_run = 0;
};

struct Job {
  double seconds = 0;
  std::vector<std::string> errors;
  eval::EvalResults results;
  obs::Registry registry;
};

/// Wraps every cell of run_spec in a span (the traced run only).
class TracingScheduler final : public eval::CellScheduler {
 public:
  TracingScheduler(Tracer& tracer, uint32_t threads, uint64_t job,
                   std::vector<std::string> names)
      : tracer_(tracer), threads_(threads), job_(job),
        names_(std::move(names)) {}

  void run_cells(uint64_t n,
                 const std::function<void(uint64_t)>& body) override {
    Span phase(&tracer_, "eval.cells", job_);
    const uint64_t parent = phase.id();
    std::vector<double> seconds(n, 0.0);
    support::ThreadPool::global().parallel_for(
        n,
        [&](uint64_t i) {
          Span cell(&tracer_, i < names_.size() ? names_[i] : "cell", job_,
                    parent);
          body(i);
          seconds[i] = cell.elapsed();
        },
        threads_, /*grain=*/1);
    cells = std::move(seconds);
    phase_s = phase.elapsed();
  }

  std::vector<double> cells;
  double phase_s = 0;

 private:
  Tracer& tracer_;
  uint32_t threads_;
  uint64_t job_;
  std::vector<std::string> names_;
};

/// One eval job: run_spec + write_reports + the cell-accounting check.
/// The byte checks of its outputs follow, untimed (check_outputs).
void run_eval_job(const Bench& b, const std::string& out_dir,
                  const std::string& store_dir, Expect expect, Job& job,
                  eval::CellScheduler* scheduler = nullptr,
                  Tracer* tracer = nullptr, uint64_t job_id = 0) {
  eval::RunOptions o;
  o.out_dir = out_dir;
  o.store_dir = store_dir;
  o.threads = b.threads;
  o.engine = interp::EngineKind::Native;
  o.metrics = &job.registry;
  o.scheduler = scheduler;
  const double t0 = now();
  try {
    Span span(tracer, "job", job_id);
    {
      Span s(tracer, "eval::run_spec", job_id);
      job.results = eval::run_spec(b.spec, o);
    }
    {
      Span s(tracer, "eval::write_reports", job_id);
      eval::write_reports(job.results, out_dir);
    }
    check_accounting(job.results, expect, job.errors);
  } catch (const std::exception& e) {
    job.errors.push_back(e.what());
  }
  job.seconds = now() - t0;
}

/// Fails unless every module compiles to native code: otherwise an eval
/// with --engine native silently times the threaded fallback.
void check_native_available(const Inputs& in,
                            std::vector<std::string>& errors) {
  for (size_t w = 0; w < in.modules.size(); ++w) {
    const auto prog = interp::NativeProgram::build(in.modules[w]);
    if (!prog->available()) {
      errors.push_back("native engine unavailable for " + in.metas[w]->name +
                       ": " + prog->error());
    }
  }
}

/// run_eval_job as a traced run's traced job: every cell in a span, and
/// the job's per-layer facts kept in `facts`.
void run_traced_eval_job(const Bench& b, const Inputs& in,
                         const std::string& out_dir,
                         const std::string& store_dir, Expect expect, Job& job,
                         Tracer& tracer, JobFacts& facts) {
  std::vector<std::string> names;  // run_spec's owned cells, in plan order
  for (const auto& cell : plan_cells(b.spec, in)) names.push_back(cell.key.slug);
  TracingScheduler sched(tracer, b.threads, 1, std::move(names));
  const auto& pool = support::ThreadPool::global();
  const uint64_t run0 = pool.tasks_run(), stolen0 = pool.tasks_stolen();
  run_eval_job(b, out_dir, store_dir, expect, job, &sched, &tracer, 1);
  const uint64_t ran = pool.tasks_run() - run0;
  facts.steal_ratio =
      ran > 0 ? static_cast<double>(pool.tasks_stolen() - stolen0) / ran : 0;
  facts.cells = sched.cells;
  facts.cell_phase_s = sched.phase_s;
  // Additive per-campaign counters only. engine.native.compile_ms,
  // engine.native / engine.threaded and fi.trials_per_sec are not read:
  // summed per cell they lose their meaning (NOTES.md).
  facts.snapshot_count = job.registry.counter("fi.snapshot_count");
  facts.snapshot_bytes = job.registry.counter("fi.snapshot_bytes");
  facts.resumed_trials = job.registry.counter("fi.snapshot_resumed_trials");
  facts.trials_run = job.results.fi_trials_run;
}

// ---- Cold jobs: one fresh process each -------------------------------------

json::Value facts_json(const JobFacts& f) {
  json::Value v = json::Value::object();
  json::Value cells = json::Value::array();
  for (const double s : f.cells) cells.push_back(json::Value(s));
  v.set("cells", std::move(cells));
  v.set("cell_phase_s", json::Value(f.cell_phase_s));
  v.set("steal_ratio", json::Value(f.steal_ratio));
  v.set("snapshot_count", json::Value(f.snapshot_count));
  v.set("snapshot_bytes", json::Value(f.snapshot_bytes));
  v.set("resumed_trials", json::Value(f.resumed_trials));
  v.set("trials_run", json::Value(f.trials_run));
  return v;
}

JobFacts facts_from_json(const json::Value& v) {
  JobFacts f;
  if (const json::Value* cells = v.find("cells")) {
    for (const auto& c : cells->items()) f.cells.push_back(c.as_double());
  }
  f.cell_phase_s = v.get_double("cell_phase_s", 0);
  f.steal_ratio = v.get_double("steal_ratio", 0);
  f.snapshot_count = v.get_uint("snapshot_count", 0);
  f.snapshot_bytes = v.get_uint("snapshot_bytes", 0);
  f.resumed_trials = v.get_uint("resumed_trials", 0);
  f.trials_run = v.get_uint("trials_run", 0);
  return f;
}

/// Child side of a cold job: run it, check what only this process can
/// see, and leave the outcome in <job_dir>/result.json for the parent.
int cold_job_main(const Bench& b, const std::string& job_dir,
                  bool ready_only) {
  const double ready = now();
  if (ready_only) {
    json::Value out = json::Value::object();
    out.set("ready", json::Value(ready));
    std::ofstream(job_dir + "/result.json") << out.write() << "\n";
    return 0;
  }
  Tracer tracer(getpid());
  Job job;
  JobFacts facts;
  if (b.trace) {
    run_traced_eval_job(b, build_inputs(b.spec, b.threads), job_dir + "/out",
                        "", Expect::Computed, job, tracer, facts);
  } else {
    run_eval_job(b, job_dir + "/out", "", Expect::Computed, job);
  }
  std::vector<std::string> errors = job.errors;
  check_native_available(build_inputs(b.spec, b.threads), errors);

  json::Value out = json::Value::object();
  out.set("ready", json::Value(ready));
  out.set("seconds", json::Value(job.seconds));
  out.set("rss_mb", json::Value(peak_rss_mb()));
  json::Value errs = json::Value::array();
  for (const auto& e : errors) errs.push_back(json::Value(e));
  out.set("errors", std::move(errs));
  out.set("facts", facts_json(facts));
  json::Value spans = json::Value::array();
  for (const auto& s : tracer.spans()) {
    json::Value span = json::Value::object();
    span.set("name", json::Value(s.name));
    span.set("id", json::Value(s.id));
    span.set("parent", json::Value(s.parent));
    span.set("start", json::Value(s.start));
    span.set("end", json::Value(s.end));
    span.set("tid", json::Value(static_cast<uint64_t>(s.tid)));
    span.set("job", json::Value(s.job));
    spans.push_back(std::move(span));
  }
  out.set("spans", std::move(spans));
  std::ofstream(job_dir + "/result.json") << out.write() << "\n";
  return 0;
}

struct ColdJob {
  double setup_s = 0;  // spawn until the child is ready to run the job
  double seconds = 0;
  double rss_mb = 0;
  std::vector<std::string> errors;
  JobFacts facts;
  std::vector<SpanRecord> spans;
};

/// Spawns a cold-job child and waits for it. `ready_only` children exit
/// once ready, which samples the set-up alone.
ColdJob spawn_cold_job(const Bench& b, const std::string& job_dir,
                       bool ready_only = false) {
  ColdJob c;
  fresh_dir(job_dir + "/nc");
  set_env("TRIDENT_NATIVE_CACHE", job_dir + "/nc");
  set_env("PERFBENCH_CC_LOG", job_dir + "/cc.log");
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> args = {exe,        "--cold-job", job_dir,
                                   "--root",   b.root,       "--seed",
                                   std::to_string(b.seed),   "--workload",
                                   b.workload, "--trace",    b.trace ? "1" : "0"};
  if (ready_only) args.insert(args.end(), {"--ready-only", "1"});
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const double spawned = now();
  pid_t pid = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0) {
    c.errors.push_back("posix_spawn failed");
    return c;
  }
  // Bounded wait: a hung child is killed and counted as a failed job.
  int status = 0;
  const double deadline = spawned + 150;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      c.errors.push_back("cold job timed out");
      return c;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    c.errors.push_back("cold job process failed");
    return c;
  }
  json::ParseError perr;
  const auto doc = json::parse(read_file(job_dir + "/result.json"), &perr);
  if (!doc) {
    c.errors.push_back("cold job left no readable result");
    return c;
  }
  c.setup_s = doc->get_double("ready", 0) - spawned;
  if (ready_only) return c;
  c.seconds = doc->get_double("seconds", 0);
  c.rss_mb = doc->get_double("rss_mb", 0);
  for (const auto& e : doc->find("errors")->items()) {
    c.errors.push_back(e.as_string());
  }
  c.facts = facts_from_json(*doc->find("facts"));
  for (const auto& s : doc->find("spans")->items()) {
    SpanRecord r;
    r.name = s.get_string("name", "");
    r.id = s.get_uint("id", 0);
    r.parent = s.get_uint("parent", 0);
    r.start = s.get_double("start", 0);
    r.end = s.get_double("end", 0);
    r.tid = static_cast<uint32_t>(s.get_uint("tid", 0));
    r.job = s.get_uint("job", 0);
    r.pid = pid;
    c.spans.push_back(std::move(r));
  }
  const CcLog cc = read_cc_log(job_dir + "/cc.log");
  c.facts.cc_runs = cc.runs;
  c.facts.cc_s = cc.seconds;
  return c;
}

// ---- Model sweep -------------------------------------------------------------

struct Sweep {
  std::vector<double> values;  // overall + per-instruction, fixed order
};

/// One model_sweep job over every registered workload: build, profile,
/// then every TRIDENT configuration and both baselines over every
/// injectable instruction.
Sweep run_sweep(uint32_t threads, Tracer* tracer = nullptr,
                uint64_t job = 0) {
  Sweep out;
  Span root(tracer, "job", job);
  for (const auto& meta : workloads::all_workloads()) {
    Span w(tracer, "sweep." + meta.name, job);
    ir::Module module;
    {
      Span s(tracer, "Workload::build", job);
      module = meta.build();
    }
    prof::Profile profile;
    {
      Span s(tracer, "prof::collect_profile", job);
      profile = prof::collect_profile(module);
    }
    std::vector<ir::InstRef> refs;
    for (const char* name : kSweepConfigs) {
      Span s(tracer, std::string("core::Trident/") + name, job);
      const core::Trident model(module, profile,
                                *core::model_config_from_name(name));
      out.values.push_back(model.overall_sdc_exact());
      for (const auto& p : model.predict_all(threads)) {
        out.values.push_back(p.sdc);
      }
      if (refs.empty()) refs = model.injectable_instructions();
    }
    {
      Span s(tracer, "baselines::PvfModel", job);
      const baselines::PvfModel pvf(module, profile);
      out.values.push_back(pvf.overall());
      for (const auto ref : refs) out.values.push_back(pvf.pvf(ref));
    }
    {
      Span s(tracer, "baselines::EpvfModel", job);
      const baselines::EpvfModel epvf(module, profile);
      out.values.push_back(epvf.overall());
      for (const auto ref : refs) out.values.push_back(epvf.epvf(ref));
    }
  }
  return out;
}

void check_sweep(const Sweep& got, const Sweep* reference,
                 const std::string& what, std::vector<std::string>& errors) {
  for (const double v : got.values) {
    if (!std::isfinite(v) || v < 0 || v > 1) {
      errors.push_back("prediction outside [0,1]: " + std::to_string(v));
      return;
    }
  }
  if (reference != nullptr && got.values != reference->values) {
    errors.push_back("predictions differ from " + what);
  }
}

// ---- Spot check against the reference interpreter ---------------------------

/// Recomputes a seed-drawn sample of stored FI cells (one overall, three
/// per-instruction) on the reference interpreter and requires identical
/// tallies. Every job's report carries every FI cell's tallies and is
/// byte-compared with the first job's, so the sample covers every job.
void spot_check(const Bench& b, const std::string& store_dir,
                std::vector<std::string>& errors) {
  const Inputs in = build_inputs(b.spec, b.threads);
  std::vector<PlannedCell> overall, inst;
  for (auto& cell : plan_cells(b.spec, in)) {
    if (cell.kind == PlannedCell::Kind::FiOverall) overall.push_back(cell);
    if (cell.kind == PlannedCell::Kind::FiInst) inst.push_back(cell);
  }
  std::mt19937_64 rng(b.seed);
  std::vector<PlannedCell> sample = {overall[rng() % overall.size()]};
  for (int k = 0; k < 3 && !inst.empty(); ++k) {
    const size_t i = rng() % inst.size();
    sample.push_back(inst[i]);
    inst.erase(inst.begin() + static_cast<long>(i));
  }
  const eval::ResultStore store(store_dir);
  for (const auto& cell : sample) {
    const auto stored = store.load(cell.key);
    if (!stored) {
      errors.push_back("spot check: " + cell.key.slug + " missing from store");
      continue;
    }
    const auto options = campaign_options(b.spec, in, cell,
                                          interp::EngineKind::Interp,
                                          b.threads);
    const ir::Module& m = in.modules[cell.workload];
    const prof::Profile& p = in.profiles[cell.workload];
    const fi::CampaignResult r =
        cell.kind == PlannedCell::Kind::FiOverall
            ? fi::run_overall_campaign(m, p, options)
            : fi::run_instruction_campaign(m, p, cell.target, options);
    const bool same = stored->get_uint("trials", 0) == r.total() &&
                      stored->get_uint("sdc", 0) == r.sdc &&
                      stored->get_uint("benign", 0) == r.benign &&
                      stored->get_uint("crash", 0) == r.crash &&
                      stored->get_uint("hang", 0) == r.hang &&
                      stored->get_uint("detected", 0) == r.detected &&
                      stored->get_uint("fuel_exhausted", 0) ==
                          r.fuel_exhausted;
    if (!same) {
      errors.push_back("spot check: " + cell.key.slug +
                       " differs from the reference interpreter");
    }
  }
}

// ---- Workloads ---------------------------------------------------------------

struct Outcome {
  std::vector<double> jobs;    // seconds of each timed job
  std::vector<double> setups;  // seconds of each set-up repetition
  double rss_mb = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first failure messages
  // Failures that taint every job (set-up, spot check, thread-count
  // dependence of the model sweep).
  std::vector<std::string> setup_errors;
  // Traced run only:
  std::vector<double> untraced;
  double traced_s = 0;
  JobFacts facts;
};

void record(Outcome& out, double seconds, const std::vector<std::string>& errors) {
  out.jobs.push_back(seconds);
  if (errors.empty()) return;
  ++out.failed;
  for (const auto& e : errors) {
    if (out.errors.size() < 8) out.errors.push_back(e);
  }
}

/// Runs `job` in a closed loop for the run's seconds (at least once), or,
/// in the traced run, `untraced` times followed by one traced call.
void loop(const Bench& b, Outcome& out, size_t untraced,
          const std::function<void(bool traced)>& job) {
  if (b.trace) {
    for (size_t i = 0; i < untraced; ++i) job(false);
    out.untraced = out.jobs;
    job(true);
    out.traced_s = out.jobs.back();
    return;
  }
  const double start = now();
  do {
    job(false);
  } while (now() - start < b.seconds);
}

/// Cross-run byte identity: the first report of a seed is kept per
/// benchmark binary, and every later run of any eval workload must match.
void check_cross_run(const Bench& b, const Artifacts& first,
                     std::vector<std::string>& errors) {
  const std::string binary = read_file("/proc/self/exe");
  const std::string dir = b.root + "/.bench_run/ref/" +
                          support::fnv1a64_hex(binary) + "-seed" +
                          std::to_string(b.seed);
  if (fs::exists(dir + "/report.json")) {
    compare_artifacts(first, read_artifacts(dir), "another workload's", errors);
    return;
  }
  fs::create_directories(dir);
  for (size_t i = 0; i < first.size(); ++i) {
    std::ofstream(dir + "/" + kArtifacts[i], std::ios::binary) << first[i];
  }
}

/// Parallel build_uncached of every module into an empty object cache.
void fill_object_cache(const Bench& b, const std::string& dir,
                       std::vector<std::string>& errors) {
  fresh_dir(dir);
  set_env("TRIDENT_NATIVE_CACHE", dir);
  Inputs in;
  for (const auto& name : b.spec.expanded_workloads()) {
    in.metas.push_back(workloads::lookup_workload(name));
  }
  in.modules.resize(in.metas.size());
  std::vector<std::shared_ptr<const interp::NativeProgram>> progs(
      in.metas.size());
  support::ThreadPool::global().parallel_for(
      in.metas.size(),
      [&](uint64_t i) {
        in.modules[i] = in.metas[i]->build();
        progs[i] = interp::NativeProgram::build_uncached(in.modules[i]);
      },
      b.threads, /*grain=*/1);
  for (size_t i = 0; i < progs.size(); ++i) {
    if (!progs[i]->available()) {
      errors.push_back("native engine unavailable for " + in.metas[i]->name +
                       ": " + progs[i]->error());
    }
  }
}

// Set-up is repeated and the median reported: three times before the
// loop where it takes about a second (eval_hot, eval_warm). Where it takes
// milliseconds (eval_cold, model_sweep) it is sampled ten times before the
// loop and again between jobs: host load drifts over tens of seconds, and
// a median taken in one instant would swing more than the jobs' does.
constexpr int kSetupReps = 3;
constexpr int kCheapSetupReps = 10;

/// Byte checks of one finished eval job's reports in `dir`: the first
/// job's reports become the reference, every later job must match them.
void check_outputs(const Bench& b, const std::string& dir, Artifacts& ref,
                   std::vector<std::string>& errors) {
  try {
    const Artifacts got = read_artifacts(dir);
    if (ref.empty()) {
      ref = got;
      check_cross_run(b, got, errors);
      return;
    }
    compare_artifacts(got, ref, "the first job's", errors);
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
}

Outcome run_eval_cold(const Bench& b, Tracer& tracer) {
  Outcome out;
  const std::string job_dir = b.work_dir + "/cold";
  const size_t modules = b.spec.expanded_workloads().size();
  // Set-up: a fresh process until it is ready to run the job.
  const auto setup = [&] {
    fresh_dir(job_dir);
    for (int k = 0; k < kCheapSetupReps; ++k) {
      const ColdJob c = spawn_cold_job(b, job_dir, /*ready_only=*/true);
      out.setups.push_back(c.setup_s);
      for (const auto& e : c.errors) out.setup_errors.push_back(e);
    }
  };
  setup();
  Artifacts ref;
  loop(b, out, 1, [&](bool traced) {
    setup();
    Bench jb = b;
    jb.trace = traced;
    fresh_dir(job_dir);
    ColdJob c = spawn_cold_job(jb, job_dir);
    out.rss_mb = std::max(out.rss_mb, c.rss_mb);
    if (c.errors.empty()) {
      // Cold means the host compiler ran for every module.
      if (c.facts.cc_runs < modules) {
        c.errors.push_back("cold job ran the host compiler " +
                           std::to_string(c.facts.cc_runs) + " times for " +
                           std::to_string(modules) + " modules");
      }
      const bool first = ref.empty();
      check_outputs(b, job_dir + "/out", ref, c.errors);
      if (first) fs::rename(job_dir + "/out", b.work_dir + "/keep");
    }
    record(out, c.seconds, c.errors);
    if (traced) {
      out.facts = c.facts;
      tracer.merge(std::move(c.spans));
    }
  });
  return out;
}

Outcome run_eval_hot(const Bench& b, Tracer& tracer) {
  Outcome out;
  const std::string cc_log = b.work_dir + "/cc.log";
  set_env("PERFBENCH_CC_LOG", cc_log);
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now();
    fill_object_cache(b, b.work_dir + "/nc", out.setup_errors);
    out.setups.push_back(now() - t0);
  }
  const Inputs in = build_inputs(b.spec, b.threads);
  const std::string dir = b.work_dir + "/job";
  Artifacts ref;
  loop(b, out, 3, [&](bool traced) {
    remove_dir(dir);
    const CcLog before = read_cc_log(cc_log);
    Job job;
    if (traced) {
      run_traced_eval_job(b, in, dir, "", Expect::Computed, job, tracer,
                          out.facts);
    } else {
      run_eval_job(b, dir, "", Expect::Computed, job);
    }
    const CcLog after = read_cc_log(cc_log);
    out.facts.cc_runs = after.runs - before.runs;
    out.facts.cc_s = after.seconds - before.seconds;
    if (out.facts.cc_runs != 0) {
      job.errors.push_back("hot job ran the host compiler");
    }
    check_native_available(in, job.errors);
    if (job.errors.empty()) {
      const bool first = ref.empty();
      check_outputs(b, dir, ref, job.errors);
      if (first) fs::rename(dir, b.work_dir + "/keep");
    }
    record(out, job.seconds, job.errors);
  });
  remove_dir(dir);
  return out;
}

Outcome run_eval_warm(const Bench& b, Tracer& tracer) {
  Outcome out;
  const std::string keep = b.work_dir + "/keep";
  Artifacts ref;
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now();
    fill_object_cache(b, b.work_dir + "/nc", out.setup_errors);
    remove_dir(keep);
    Job fill;
    run_eval_job(b, keep, "", Expect::Computed, fill);
    out.setups.push_back(now() - t0);
    if (fill.errors.empty()) check_outputs(b, keep, ref, fill.errors);
    for (const auto& e : fill.errors) out.setup_errors.push_back(e);
  }
  const Inputs in = build_inputs(b.spec, b.threads);
  loop(b, out, 10, [&](bool traced) {
    Job job;
    if (traced) {
      run_traced_eval_job(b, in, keep, "", Expect::Cached, job, tracer,
                          out.facts);
    } else {
      run_eval_job(b, keep, "", Expect::Cached, job);
    }
    if (job.errors.empty()) check_outputs(b, keep, ref, job.errors);
    record(out, job.seconds, job.errors);
  });
  return out;
}

Outcome run_model_sweep(const Bench& b, Tracer& tracer) {
  Outcome out;
  const auto setup = [&] {
    const double t0 = now();
    for (const auto& meta : workloads::all_workloads()) {
      const ir::Module module = meta.build();
      if (module.functions.empty()) {
        out.setup_errors.push_back(meta.name + " built an empty module");
      }
    }
    out.setups.push_back(now() - t0);
  };
  for (int k = 0; k < kCheapSetupReps; ++k) setup();
  Sweep ref;
  loop(b, out, 5, [&](bool traced) {
    setup();
    std::vector<std::string> errors;
    const double t0 = now();
    const Sweep sweep = run_sweep(b.threads, traced ? &tracer : nullptr, 1);
    check_sweep(sweep, ref.values.empty() ? nullptr : &ref, "the first job's",
                errors);
    const double seconds = now() - t0;
    if (ref.values.empty() && errors.empty()) ref = sweep;
    record(out, seconds, errors);
  });
  // Thread-count independence: the same sweep at 1 thread, untimed.
  check_sweep(run_sweep(1), &ref, "the 1-thread sweep", out.setup_errors);
  return out;
}

// ---- Output ------------------------------------------------------------------

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Bench& b, const Outcome& out,
                  const std::vector<Metric>& metrics) {
  const uint64_t attempted = out.jobs.size();
  std::printf("perfbench %s seed=%llu threads=%u jobs=%llu failed=%llu\n",
              b.workload.c_str(), static_cast<unsigned long long>(b.seed),
              b.threads, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto& m : metrics) {
    std::printf("  %-28s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const auto& e : out.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    if (!m.in_result) continue;
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::vector<Metric> end_to_end(const Outcome& out) {
  const size_t n = out.jobs.size();
  std::vector<Metric> m;
  m.push_back({"job_p50_s", median(out.jobs), "s",
               "median of " + std::to_string(n) + " jobs"});
  m.push_back({"setup_s", median(out.setups), "s",
               "median of " + std::to_string(out.setups.size()) + " set-ups"});
  m.push_back({"peak_rss_mb", out.rss_mb, "MB", ""});
  // Reported for reading only: p90 needs 100 jobs for ten samples beyond
  // it, and the failure rate is the result's failed / attempted.
  m.push_back({"job_p90_s", percentile(out.jobs, 0.9), "s",
               n >= 100 ? "" : "fewer than 100 jobs", false});
  m.push_back({"fail_rate", n > 0 ? static_cast<double>(out.failed) / n : 0,
               "ratio", "failed / attempted", false});
  return m;
}

std::vector<Metric> per_layer(const Bench& b, const Outcome& out,
                              std::vector<Metric> probes) {
  const JobFacts& f = out.facts;
  const double cell_phase = f.cell_phase_s * b.threads;
  double busy = 0;
  for (const double s : f.cells) busy += s;
  std::vector<Metric> job = {
      {"interp.cc_runs", static_cast<double>(f.cc_runs), "count", "traced job"},
      {"interp.cc_s", f.cc_s, "s", "traced job"},
      {"fi.snapshot_count", static_cast<double>(f.snapshot_count), "count",
       "traced job"},
      {"fi.snapshot_bytes", static_cast<double>(f.snapshot_bytes), "bytes",
       "traced job"},
      {"fi.resumed_ratio",
       f.trials_run > 0 ? static_cast<double>(f.resumed_trials) / f.trials_run
                        : 0,
       "ratio", "traced job"},
      {"fi.trials_run", static_cast<double>(f.trials_run), "count",
       "traced job"},
      {"eval.cell_p50_s", median(f.cells), "s",
       "traced job, " + std::to_string(f.cells.size()) + " cells"},
      {"eval.cell_max_s",
       f.cells.empty() ? 0 : *std::max_element(f.cells.begin(), f.cells.end()),
       "s", "traced job"},
      {"pool.busy_ratio", cell_phase > 0 ? busy / cell_phase : 0, "ratio",
       "traced job"},
      {"pool.steal_ratio", f.steal_ratio, "ratio", "traced job"},
      {"trace.overhead_s", out.traced_s - median(out.untraced), "s",
       "traced job - median of " + std::to_string(out.untraced.size()) +
           " untraced"},
  };
  probes.insert(probes.end(), job.begin(), job.end());
  return probes;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_eval --root DIR --workload "
               "eval_cold|eval_hot|eval_warm|model_sweep --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Bench b;
  std::string cold_job;
  bool ready_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--root") b.root = value;
    else if (flag == "--workload") b.workload = value;
    else if (flag == "--seed") b.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") b.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") b.trace = value == "1";
    else if (flag == "--cold-job") cold_job = value;
    else if (flag == "--ready-only") ready_only = value == "1";
    else return usage();
  }
  if (argc % 2 != 1 || b.root.empty() || b.seconds <= 0) return usage();
  using Runner = Outcome (*)(const Bench&, Tracer&);
  const std::map<std::string, Runner> runners = {
      {"eval_cold", run_eval_cold},
      {"eval_hot", run_eval_hot},
      {"eval_warm", run_eval_warm},
      {"model_sweep", run_model_sweep}};
  const auto runner = runners.find(b.workload);
  if (runner == runners.end()) return usage();

  // The pinned spec; the workload seed replaces its campaign seeds, so
  // seed 1 reproduces examples/specs/paper_small.json.
  std::string error;
  if (!eval::load_spec_file(b.root + "/perfbench/paper_small.json", &b.spec,
                            &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  b.spec.seeds = {b.seed};
  b.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  b.work_dir = b.root + "/.bench_run/work";
  b.wrapper = b.root + "/perfbench/cc_wrapper.sh";
  if (!cold_job.empty()) return cold_job_main(b, cold_job, ready_only);

  try {
    fresh_dir(b.work_dir + "/tmp");
    // Everything the program and the host compiler write stays in the
    // checkout; every host-compiler run goes through the counting wrapper.
    set_env("TMPDIR", b.work_dir + "/tmp");
    set_env("TRIDENT_CC", "sh '" + b.wrapper + "'");
    Tracer tracer(getpid());
    const double epoch = obs::now_seconds();
    Outcome out = runner->second(b, tracer);
    if (b.workload != "eval_cold") out.rss_mb = peak_rss_mb();
    if (b.workload != "model_sweep") {
      spot_check(b, b.work_dir + "/keep/store", out.setup_errors);
    }
    // A set-up or cross-job failure (no native compiler, a spot-check
    // mismatch, thread-count dependence) taints every job's output.
    if (!out.setup_errors.empty()) {
      out.failed = out.jobs.size();
      for (const auto& e : out.setup_errors) out.errors.push_back(e);
    }
    if (!b.trace) {
      print_result(b, out, end_to_end(out));
      return 0;
    }
    std::vector<Metric> layers = per_layer(b, out, run_probes(b, tracer, 2));
    const std::string trace_dir = b.root + "/.bench_run/traces";
    fs::create_directories(trace_dir);
    const std::string trace_path =
        trace_dir + "/" + b.workload + "-seed" + std::to_string(b.seed) + ".json";
    std::ofstream(trace_path) << chrome_trace_json(tracer.spans(), epoch);
    std::printf("trace: %s\n", trace_path.c_str());
    print_result(b, out, layers);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

