// perfbench: the repository benchmark binary (see run.py for how to build
// and run it).
//
//   perfbench --workload deep_search|wide_session|fleet_session
//             --seed N --seconds S --trace 0|1
//             [--tiny 1] [--trace-out PATH] [--work-dir DIR]
//
// Prints the machine-independent outputs on a "fixed {...}" line, then the
// result object as the last line of stdout; exits 1 when a correctness
// check failed and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return 2;
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--tiny") {
      args.tiny = value != "0";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }

  Report report;
  const Clock::time_point start = Clock::now();
  if (args.workload == "deep_search") {
    RunDeepSearch(args, &report);
  } else if (args.workload == "wide_session") {
    RunWideSession(args, &report);
  } else if (args.workload == "fleet_session") {
    RunFleetSession(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s: %.1f s wall\n", args.workload.c_str(),
               SecondsSince(start));
  report.Print();
  return report.correct() ? 0 : 1;
}
