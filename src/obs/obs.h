// Observability session: ObsConfig (what to record, where to export) and
// Recorder (one MetricsRegistry + one TraceRecorder sharing an epoch).
//
// Everything is opt-in and zero-overhead when disabled: instrumented code
// takes the run's gsim::RunContext (gsim/run_context.h), whose recorder
// defaults to nullptr, so the disabled path costs one pointer test and
// records nothing — outputs are bit-identical to a build without
// observability (asserted by tests/test_parallel_determinism.cpp). When
// enabled, recording is observational only: nothing read back from the
// recorder influences the reconstruction, so determinism (for any host
// thread count) is preserved.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mbir::obs {

struct ObsConfig {
  bool metrics = false;  ///< record counters/gauges/histograms
  bool trace = false;    ///< record trace spans
  /// Also emit one host-clock span per simulated threadblock (verbose:
  /// thousands of events for a full reconstruction). Requires `trace`.
  bool block_spans = false;
  /// Write the Chrome trace JSON here after the run ("" = keep in memory;
  /// the recorder stays inspectable either way).
  std::string trace_path;
  /// Write the machine-readable run report here ("" = don't write).
  std::string report_path;

  bool enabled() const { return metrics || trace; }
};

class Recorder {
 public:
  explicit Recorder(ObsConfig cfg = {}) : cfg_(std::move(cfg)) {}

  const ObsConfig& config() const { return cfg_; }
  bool metricsOn() const { return cfg_.metrics; }
  bool traceOn() const { return cfg_.trace; }
  bool blockSpansOn() const { return cfg_.trace && cfg_.block_spans; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

 private:
  ObsConfig cfg_;
  MetricsRegistry metrics_;
  TraceRecorder trace_;
};

}  // namespace mbir::obs
