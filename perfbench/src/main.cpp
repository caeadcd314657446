// perfbench — the benchmark program behind perfbench/run.py.
//
//   perfbench gen --workload W --seed N --dir D
//       write the workload's seeded inputs into D
//   perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                 [--bin-dir B]
//       run the workload on the inputs in D; the last stdout line is the
//       result object (correct, attempted, failed, metrics)
//
// Workloads: batch-table1, serve-hot, serve-churn (see README.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --dir D\n"
               "       perfbench run --workload W --seed N --dir D "
               "--seconds S --trace 0|1 [--bin-dir B]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--dir") args.dir = v;
    else if (flag == "--bin-dir") args.bin_dir = v;
    else if (flag == "--seconds") args.seconds = std::atof(v);
    else if (flag == "--trace") args.trace = std::atoi(v) != 0;
    else return usage();
  }
  if (args.workload.empty() || args.dir.empty()) return usage();
  try {
    if (command == "gen")
      return perfbench::generate_inputs(args.workload, args.seed, args.dir);
    if (command != "run" || args.seconds <= 0) return usage();
    if (args.workload == "batch-table1") return perfbench::run_batch_table1(args);
    if (args.workload == "serve-hot") return perfbench::run_serve_hot(args);
    if (args.workload == "serve-churn") return perfbench::run_serve_churn(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
