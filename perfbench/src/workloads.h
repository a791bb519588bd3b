// The three perfbench workloads. Each builds its inputs from the seed,
// measures for args.seconds, checks every output, and fills the report.
#pragma once

#include "common.h"

namespace perfbench {

/// One caller, direct reconstruct() calls at 128^2 x 180 x 256 to 10 HU.
void runReconSingle(const Args& args, Report& rep);

/// Poisson open loop against a 4-device svc::Server at 48^2 x 72 x 96.
void runSvcOpenLoop(const Args& args, Report& rep);

/// Closed loop of cache hits, warm starts, cold runs and gang jobs against
/// a 4-device server with WAL and result cache on, at 64^2 x 96 x 128.
void runSvcStoreMix(const Args& args, Report& rep);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Build a workload's set-up kSetupReps times, timing each build into
/// rep.setup_s, and keep the last one (earlier ones are torn down first,
/// untimed, so only one set-up is ever resident).
template <typename S, typename Fn>
std::unique_ptr<S> timedSetup(Report& rep, Fn&& build) {
  std::unique_ptr<S> kept;
  for (int r = 0; r < kSetupReps; ++r) {
    kept.reset();
    const Clock::time_point t0 = Clock::now();
    kept = build();
    rep.setup_s.push_back(secondsSince(t0));
  }
  return kept;
}

}  // namespace perfbench
