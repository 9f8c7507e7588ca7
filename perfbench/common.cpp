#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bench.h"
#include "profiler/profiler.h"
#include "support/json.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace fs = std::filesystem;

Inputs build_inputs(const eval::ExperimentSpec& spec, uint32_t threads) {
  const auto names = spec.expanded_workloads();
  Inputs in;
  in.metas.resize(names.size());
  in.modules.resize(names.size());
  in.profiles.resize(names.size());
  in.hot.resize(names.size());
  support::ThreadPool::global().parallel_for(
      names.size(),
      [&](uint64_t i) {
        in.metas[i] = workloads::lookup_workload(names[i]);
        in.modules[i] = in.metas[i]->build();
        in.profiles[i] = prof::collect_profile(in.modules[i]);
      },
      threads, /*grain=*/1);
  // The runner's rule (eval/runner.cpp, hottest_instructions): executed
  // result producers by execution count descending, ties by (func, inst).
  for (size_t w = 0; w < names.size(); ++w) {
    const ir::Module& m = in.modules[w];
    const prof::Profile& p = in.profiles[w];
    auto& refs = in.hot[w];
    for (uint32_t f = 0; f < m.functions.size(); ++f) {
      for (uint32_t i = 0; i < m.functions[f].insts.size(); ++i) {
        if (m.functions[f].insts[i].has_result() && p.exec({f, i}) > 0) {
          refs.push_back({f, i});
        }
      }
    }
    std::sort(refs.begin(), refs.end(),
              [&](const ir::InstRef& a, const ir::InstRef& b) {
                const uint64_t ea = p.exec(a), eb = p.exec(b);
                if (ea != eb) return ea > eb;
                return std::tie(a.func, a.inst) < std::tie(b.func, b.inst);
              });
    if (refs.size() > spec.per_inst.top_n) refs.resize(spec.per_inst.top_n);
  }
  return in;
}

std::vector<PlannedCell> plan_cells(const eval::ExperimentSpec& spec,
                                    const Inputs& inputs) {
  std::vector<PlannedCell> cells;
  for (size_t w = 0; w < inputs.metas.size(); ++w) {
    const workloads::Workload& meta = *inputs.metas[w];
    for (const uint64_t seed : spec.seeds) {
      PlannedCell overall;
      overall.kind = PlannedCell::Kind::FiOverall;
      overall.workload = w;
      overall.seed = seed;
      overall.key = eval::fi_overall_key(spec, meta, seed);
      cells.push_back(overall);
      for (const ir::InstRef ref : inputs.hot[w]) {
        PlannedCell inst;
        inst.kind = PlannedCell::Kind::FiInst;
        inst.workload = w;
        inst.seed = seed;
        inst.target = ref;
        inst.key = eval::fi_inst_key(spec, meta, ref, seed);
        cells.push_back(inst);
      }
    }
    for (const auto& model : spec.models) {
      PlannedCell cell;
      cell.kind = PlannedCell::Kind::Model;
      cell.workload = w;
      cell.model = model;
      cell.key = eval::model_key(spec, meta, model);
      cells.push_back(cell);
    }
  }
  return cells;
}

fi::CampaignOptions campaign_options(const eval::ExperimentSpec& spec,
                                     const Inputs& inputs,
                                     const PlannedCell& cell,
                                     interp::EngineKind engine,
                                     uint32_t threads) {
  fi::CampaignOptions o;
  o.threads = threads;
  o.engine = engine;
  o.fuel_multiplier = spec.fi.fuel_multiplier;
  o.hang_escalation = spec.fi.hang_escalation;
  o.num_bits = spec.fi.num_bits;
  if (cell.kind == PlannedCell::Kind::FiOverall) {
    o.trials = spec.fi.trials;
    o.seed = cell.seed;
  } else {
    // The runner's per-target decorrelation (eval/runner.cpp).
    o.trials = spec.per_inst.trials;
    o.seed = cell.seed ^
             support::fnv1a64("inst:" + inputs.metas[cell.workload]->name +
                              ":f" + std::to_string(cell.target.func) + "i" +
                              std::to_string(cell.target.inst));
  }
  return o;
}

CcLog read_cc_log(const std::string& path) {
  CcLog log;
  std::ifstream in(path);
  uint64_t ns = 0;
  while (in >> ns) {
    ++log.runs;
    log.seconds += static_cast<double>(ns) * 1e-9;
  }
  return log;
}

void set_env(const char* name, const std::string& value) {
  if (setenv(name, value.c_str(), 1) != 0) {
    throw std::runtime_error(std::string("setenv failed for ") + name);
  }
}

void fresh_dir(const std::string& path) {
  remove_dir(path);
  fs::create_directories(path);
}

void remove_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t dir_bytes(const std::string& path) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(path)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              double epoch) {
  namespace json = support::json;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    json::append_quoted(out, s.name);
    out += ",\"cat\":\"perfbench\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - epoch) * 1e6, (s.end - s.start) * 1e6);
    out += buf;
    out += ",\"pid\":" + std::to_string(s.pid) +
           ",\"tid\":" + std::to_string(s.tid) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"job\":" + std::to_string(s.job) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
