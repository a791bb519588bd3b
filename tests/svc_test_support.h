// Shared fixtures for the suites that drive a dispatcher or a live server
// on the tiny test problem (svc, store, chaos, sched, golden regression).
#pragma once

#include <string>

#include "core/error.h"
#include "svc/server.h"
#include "test_support.h"

namespace mbir::test {

/// Serves tinyProblem()/tinyGolden() for every case index (the problem is
/// identical across indices; determinism comparisons only need the configs
/// to match). Indices >= 100 throw, to exercise the server's error path.
class TinySource : public svc::JobSource {
 public:
  Case get(int case_index) override {
    if (case_index >= 100) throw Error("case index out of range");
    return Case{tinyProblem(), tinyGolden()};
  }
};

/// Fixed-work job config: budget-bound (no RMSE stop), so results are
/// reproducible and independent of the device that runs them.
inline RunConfig tinyBaseConfig() {
  RunConfig cfg = tinyRunConfig(Algorithm::kGpuIcd, /*max_equits=*/3.0);
  cfg.stop_rmse_hu = 0.0;
  return cfg;
}

/// A dispatcher job on the tiny problem.
inline svc::JobSpec tinyJob(const RunConfig& cfg, const std::string& name,
                            bool deterministic) {
  svc::JobSpec spec;
  spec.problem = &tinyProblem();
  spec.golden = &tinyGolden();
  spec.config = cfg;
  spec.name = name;
  spec.deterministic = deterministic;
  return spec;
}

}  // namespace mbir::test
