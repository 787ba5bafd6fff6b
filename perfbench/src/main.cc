// Repository benchmark driver.
//
//   perfbench --workload <cti_hunt|analysts|live_soc|bulk_ingest>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints diagnostics (provenance, per-group latencies, checks, and with
// --trace 1 the per-layer breakdown), then the result JSON as the last
// line. Exits non-zero without a result line when set-up fails.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  Provenance prov(args);
  Report report;
  bool ok = false;
  if (args.workload == "cti_hunt") {
    ok = RunCtiHunt(args, &prov, &report);
  } else if (args.workload == "analysts") {
    ok = RunAnalysts(args, &prov, &report);
  } else if (args.workload == "live_soc") {
    ok = RunLiveSoc(args, &prov, &report);
  } else if (args.workload == "bulk_ingest") {
    ok = RunBulkIngest(args, &prov, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  RemoveTree(args.work_dir);
  if (!ok) return 1;
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
