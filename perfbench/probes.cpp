// Per-layer probes of the traced run: direct, timed calls to each layer's
// public functions on the spec's inputs, the same set on every workload.
// A public call that also does another layer's work is not split from
// inside: the inner layer is timed with its own public call on the same
// arguments, and the outer layer's self time is reported as the
// difference, labelled derived (fi.trial_us).

#include "analysis/bit_facts.h"
#include "baselines/epvf.h"
#include "baselines/pvf.h"
#include "bench.h"
#include "core/trident.h"
#include "eval/report.h"
#include "eval/store.h"
#include "fi/trial_runner.h"
#include "interp/native.h"
#include "interp/threaded.h"
#include "profiler/profiler.h"

namespace perfbench {

namespace {

template <typename F>
double timed(Tracer& tracer, const std::string& name, uint64_t job, F&& fn) {
  Span span(&tracer, name, job);
  fn();
  return span.elapsed();
}

}  // namespace

std::vector<Metric> run_probes(const Bench& b, Tracer& tracer, uint64_t job) {
  Span root(&tracer, "probes", job);
  const eval::ExperimentSpec& spec = b.spec;
  const Inputs in = build_inputs(spec, b.threads);
  const size_t n = in.modules.size();
  const uint64_t seeds = spec.seeds.size();
  std::vector<Metric> m;

  // profiler
  double collect_s = 0;
  uint64_t dyn_insts = 0;
  for (size_t w = 0; w < n; ++w) {
    collect_s += timed(tracer, "prof::collect_profile", job, [&] {
      dyn_insts += prof::collect_profile(in.modules[w]).total_dynamic;
    });
  }
  m.push_back({"profiler.collect_s", collect_s, "s", "sum over modules"});
  m.push_back({"profiler.dyn_insts", static_cast<double>(dyn_insts), "count",
               "work size"});

  // interp: lowering, then host compile into an empty object cache, then
  // loads from the now-warm cache.
  double lower_s = 0, compile_s = 0, load_s = 0;
  uint64_t code_bytes = 0;
  for (size_t w = 0; w < n; ++w) {
    lower_s += timed(tracer, "LoweredProgram::lower", job, [&] {
      interp::LoweredProgram::lower(in.modules[w]);
    });
  }
  const std::string cache = b.work_dir + "/probe-nc";
  fresh_dir(cache);
  set_env("TRIDENT_NATIVE_CACHE", cache);
  set_env("PERFBENCH_CC_LOG", b.work_dir + "/probe-cc.log");
  for (size_t w = 0; w < n; ++w) {
    compile_s += timed(tracer, "NativeProgram::build_uncached/cold", job, [&] {
      code_bytes +=
          interp::NativeProgram::build_uncached(in.modules[w])->stats().code_bytes;
    });
  }
  for (size_t w = 0; w < n; ++w) {
    load_s += timed(tracer, "NativeProgram::build_uncached/warm", job, [&] {
      interp::NativeProgram::build_uncached(in.modules[w]);
    });
  }
  m.push_back({"interp.lower_s", lower_s, "s", "sum over modules"});
  m.push_back({"interp.native_compile_s", compile_s, "s",
               "empty object cache, sum over modules"});
  m.push_back({"interp.native_load_s", load_s, "s",
               "warm object cache, sum over modules"});
  m.push_back({"interp.native_code_bytes", static_cast<double>(code_bytes),
               "bytes", "sum over modules"});

  // fi: per workload, one cell of each shape (overall, per-instruction) at
  // 1 thread, scaled by the job's cell count of that shape.
  double plan_s = 0, campaign_s = 0, self_s = 0;
  uint64_t self_trials = 0;
  const auto cells = plan_cells(spec, in);
  for (size_t w = 0; w < n; ++w) {
    const ir::Module& module = in.modules[w];
    const prof::Profile& profile = in.profiles[w];
    fi::make_engine_context(module, interp::EngineKind::Native);  // warm
    fi::EngineContext ctx;
    const double context_s = timed(tracer, "fi::make_engine_context", job, [&] {
      ctx = fi::make_engine_context(module, interp::EngineKind::Native);
    });
    const uint64_t fuel = fi::campaign_fuel(profile, spec.fi.fuel_multiplier);
    // The first overall and the first per-instruction cell of the workload.
    std::vector<const PlannedCell*> shapes;
    for (const auto kind :
         {PlannedCell::Kind::FiOverall, PlannedCell::Kind::FiInst}) {
      for (const auto& cell : cells) {
        if (cell.workload == w && cell.kind == kind) {
          shapes.push_back(&cell);
          break;
        }
      }
    }
    for (const PlannedCell* cell : shapes) {
      const bool overall = cell->kind == PlannedCell::Kind::FiOverall;
      const fi::CampaignOptions options = campaign_options(
          spec, in, *cell, interp::EngineKind::Native, /*threads=*/1);
      const double plan = timed(tracer, "fi::build_snapshot_plan", job, [&] {
        fi::build_snapshot_plan(module, profile.total_results, fuel,
                                options.entry, options.max_snapshots,
                                options.snapshot_bytes_budget,
                                overall ? ir::InstRef{} : cell->target, ctx);
      });
      const double campaign = timed(
          tracer,
          overall ? "fi::run_overall_campaign" : "fi::run_instruction_campaign",
          job, [&] {
            if (overall) {
              fi::run_overall_campaign(module, profile, options);
            } else {
              fi::run_instruction_campaign(module, profile, cell->target,
                                           options);
            }
          });
      const double count =
          static_cast<double>(seeds) *
          (overall ? 1.0 : static_cast<double>(in.hot[w].size()));
      plan_s += plan * count;
      campaign_s += campaign * count;
      self_s += campaign - context_s - plan;
      self_trials += options.trials;
    }
  }
  m.push_back({"fi.snapshot_plan_s", plan_s, "s",
               "per cell shape x cell count"});
  m.push_back({"fi.campaign_s", campaign_s, "s",
               "1 thread, per cell shape x cell count"});
  m.push_back({"fi.trial_us",
               self_trials > 0 ? self_s / static_cast<double>(self_trials) * 1e6
                               : 0,
               "us", "derived: (campaign - context - plan) / trials"});

  // core, analysis, baselines: the model sweep's calls.
  double model_s = 0, bits_s = 0, pvf_s = 0, epvf_s = 0;
  uint64_t predictions = 0;
  obs::Registry memo;
  for (size_t w = 0; w < n; ++w) {
    const ir::Module& module = in.modules[w];
    const prof::Profile& profile = in.profiles[w];
    std::vector<ir::InstRef> refs;
    for (const char* name : kSweepConfigs) {
      model_s += timed(tracer, std::string("core::Trident/") + name, job, [&] {
        const core::Trident model(module, profile,
                                  *core::model_config_from_name(name));
        model.overall_sdc_exact();
        predictions += model.predict_all(b.threads).size();
        model.export_metrics(memo);
        if (refs.empty()) refs = model.injectable_instructions();
      });
    }
    bits_s += timed(tracer, "analysis::BitFacts", job, [&] {
      analysis::BitFacts facts(module, b.threads);
    });
    pvf_s += timed(tracer, "baselines::PvfModel", job, [&] {
      const baselines::PvfModel pvf(module, profile);
      pvf.overall();
      for (const auto ref : refs) pvf.pvf(ref);
    });
    epvf_s += timed(tracer, "baselines::EpvfModel", job, [&] {
      const baselines::EpvfModel epvf(module, profile);
      epvf.overall();
      for (const auto ref : refs) epvf.epvf(ref);
    });
  }
  const uint64_t lookups = memo.counter("trident.memo.lookups");
  m.push_back({"core.model_s", model_s, "s",
               "Trident + overall_sdc_exact + predict_all, 5 configs"});
  m.push_back({"core.predictions", static_cast<double>(predictions), "count",
               "predict_all results, 5 configs"});
  m.push_back({"core.memo_hit_ratio",
               lookups > 0 ? static_cast<double>(memo.counter("trident.memo.hits")) /
                                 static_cast<double>(lookups)
                           : 0,
               "ratio", "trident.memo hits / lookups"});
  m.push_back({"analysis.bit_facts_s", bits_s, "s", "sum over modules"});
  m.push_back({"baselines.pvf_s", pvf_s, "s", ""});
  m.push_back({"baselines.epvf_s", epvf_s, "s", ""});

  // eval: a complete store for the spec, then its loads, saves and report.
  eval::RunOptions o;
  o.out_dir = b.work_dir + "/probe-eval";
  o.threads = b.threads;
  o.engine = interp::EngineKind::Native;
  remove_dir(o.out_dir);
  const eval::EvalResults results = eval::run_spec(spec, o);
  for (size_t w = 0; w < n; ++w) {
    const auto& rows = results.workloads[w].insts;
    bool same = rows.size() == in.hot[w].size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = rows[i].ref.func == in.hot[w][i].func &&
             rows[i].ref.inst == in.hot[w][i].inst;
    }
    if (!same) {
      throw std::runtime_error(
          "benchmark's hottest-instruction rule disagrees with run_spec");
    }
  }
  const eval::ResultStore store(o.out_dir + "/store");
  std::vector<support::json::Value> payloads;
  const double store_load_s = timed(tracer, "ResultStore::load", job, [&] {
    for (const auto& cell : cells) {
      if (auto hit = store.load(cell.key)) payloads.push_back(std::move(*hit));
    }
  });
  if (payloads.size() != cells.size()) {
    throw std::runtime_error("probe store is missing cells");
  }
  const std::string save_dir = b.work_dir + "/probe-save";
  remove_dir(save_dir);
  const eval::ResultStore save_store(save_dir);
  const double store_save_s = timed(tracer, "ResultStore::save", job, [&] {
    for (size_t i = 0; i < cells.size(); ++i) {
      save_store.save(cells[i].key, payloads[i]);
    }
  });
  const double report_s = timed(tracer, "eval::write_reports", job, [&] {
    eval::write_reports(results, b.work_dir + "/probe-report");
  });
  m.push_back({"eval.store.load_s", store_load_s, "s",
               std::to_string(cells.size()) + " cells"});
  m.push_back({"eval.store.save_s", store_save_s, "s",
               std::to_string(cells.size()) + " cells"});
  m.push_back({"eval.store.bytes",
               static_cast<double>(dir_bytes(o.out_dir + "/store")), "bytes",
               "complete store"});
  m.push_back({"eval.report_s", report_s, "s", ""});
  return m;
}

}  // namespace perfbench
