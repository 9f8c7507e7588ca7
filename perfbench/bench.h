// Shared pieces of the end-to-end benchmark program (see NOTES.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "eval/spec.h"
#include "fi/campaign.h"
#include "ir/module.h"
#include "profiler/profile.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace trident;

/// One run of the benchmark, as parsed from the command line.
struct Bench {
  std::string root;      // checkout root
  std::string work_dir;  // <root>/.bench_run/work, emptied per run
  std::string wrapper;   // counting $TRIDENT_CC wrapper script
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint32_t threads = 4;  // min(4, nproc)
  eval::ExperimentSpec spec;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;     // printed in the human-readable lines only
  bool in_result = true;  // false: human-readable lines only
};

/// The spec's modules, golden profiles, and the runner's hottest-
/// instruction set per workload.
struct Inputs {
  std::vector<const workloads::Workload*> metas;
  std::vector<ir::Module> modules;
  std::vector<prof::Profile> profiles;
  std::vector<std::vector<ir::InstRef>> hot;
};
Inputs build_inputs(const eval::ExperimentSpec& spec, uint32_t threads);

/// One eval cell as eval::run_spec plans it, in plan order.
struct PlannedCell {
  enum class Kind { FiOverall, FiInst, Model };
  Kind kind = Kind::Model;
  size_t workload = 0;
  uint64_t seed = 0;
  ir::InstRef target;
  std::string model;
  eval::CellKey key;
};
std::vector<PlannedCell> plan_cells(const eval::ExperimentSpec& spec,
                                    const Inputs& inputs);

/// The campaign options run_spec uses for an FI cell.
fi::CampaignOptions campaign_options(const eval::ExperimentSpec& spec,
                                     const Inputs& inputs,
                                     const PlannedCell& cell,
                                     interp::EngineKind engine,
                                     uint32_t threads);

/// Host-compiler runs logged by the counting wrapper: one line per run,
/// holding its wall time in nanoseconds.
struct CcLog {
  uint64_t runs = 0;
  double seconds = 0;
};
CcLog read_cc_log(const std::string& path);

void set_env(const char* name, const std::string& value);
void fresh_dir(const std::string& path);  // removed, then created empty
void remove_dir(const std::string& path);
std::string read_file(const std::string& path);
uint64_t dir_bytes(const std::string& path);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
double peak_rss_mb();

/// The TRIDENT configurations of the model sweep.
inline constexpr const char* kSweepConfigs[] = {"full", "fs_fc", "fs",
                                                "trident_bits", "paper"};

/// Per-layer metrics from direct calls into each layer's public functions
/// on the spec's inputs (the same set on every workload).
std::vector<Metric> run_probes(const Bench& bench, Tracer& tracer,
                               uint64_t job);

}  // namespace perfbench
