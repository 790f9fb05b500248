// spinner_e2e: the end-to-end benchmark driver. perfbench/run.py builds
// it, runs it, and turns its record into the benchmark's result line.
//
//   spinner_e2e --workload=batch_inproc|batch_dist|stream_ingest
//               --seed=N --seconds=S --trace=0|1 [--tiny] [--workdir=DIR]
//
// The last line of standard output is one JSON object: the run's metrics
// with units, host and input context, and the attempted/failed tally of
// lifecycle calls, submitted events and output checks.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

/// Accepts --name=value and --name value.
bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tiny") {
      o->tiny = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o->trace = value != "0";
    } else if (arg == "--workdir") {
      o->workdir = value;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::cerr << "bad number for " << arg << ": " << value << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  perfbench::Report report;
  if (options.workload == "batch_inproc") {
    perfbench::RunBatchInproc(options, &report);
  } else if (options.workload == "batch_dist") {
    perfbench::RunBatchDist(options, &report);
  } else if (options.workload == "stream_ingest") {
    perfbench::RunStreamIngest(options, &report);
  } else {
    std::cerr << "unknown workload '" << options.workload
              << "' (batch_inproc, batch_dist, stream_ingest)\n";
    return 2;
  }
  std::cout << report.ToJson(options) << std::endl;
  return report.correct() ? 0 : 1;
}
