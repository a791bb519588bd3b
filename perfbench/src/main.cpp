// perfbench workload program.
//
//   mbirbench --workload <recon_single|svc_open_loop|svc_store_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]
//
// Builds the workload's inputs from the seed, measures for --seconds,
// checks every output, and prints one raw JSON document (per-request
// records, set-up times, process counters and, with --trace 1, the layer
// ledger) on stdout. run.py turns it into metrics. Exits 1 when an output
// was wrong or unconverged, 2 when the run could not be made at all.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mbirbench --workload <recon_single|svc_open_loop|"
               "svc_store_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--tmpdir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(val);
    else if (key == "--trace") args.trace = std::strcmp(val, "0") != 0;
    else if (key == "--tmpdir") args.tmpdir = val;
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  perfbench::Report rep(args);
  try {
    if (args.workload == "recon_single") perfbench::runReconSingle(args, rep);
    else if (args.workload == "svc_open_loop") perfbench::runSvcOpenLoop(args, rep);
    else if (args.workload == "svc_store_mix") perfbench::runSvcStoreMix(args, rep);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mbirbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.correct() ? 0 : 1;
}
