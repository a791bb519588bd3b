// Per-job span context: the identity a job carries through every layer so
// trace spans and flight-recorder events from svc admission down to
// individual gsim launches attribute to the same job.
//
// Created at admission (svc) and borrowed by const pointer through
// RunConfig::span into the run's gsim::RunContext, whose record() is the one
// place that puts a span on the job's lanes and tags it. Purely
// observational: nothing reads it back into the reconstruction, so a run
// with a span context is bit-identical to one without.
#pragma once

#include <string>

#include "obs/trace.h"

namespace mbir::obs {

class FlightRecorder;

struct JobSpanContext {
  int job_id = -1;
  std::string tenant;    ///< "" = default tenant
  std::string job_name;  ///< human label ("case3", "bench12", ...)
  /// Host-clock microseconds (recorder epoch) when the job was admitted;
  /// 0 when tracing is off. Lets dispatch render the queue wait as an
  /// explicit span starting at admission.
  double submit_host_us = 0.0;
  int device = -1;    ///< assigned at dispatch; -1 while queued
  /// Modeled-clock trace process for the device (0 = the shared modeled
  /// clock process).
  int trace_pid = 0;
  /// The run's start on that device's modeled clock (seconds, set at
  /// dispatch); RunContext::record() shifts modeled events by it.
  double modeled_origin_s = 0.0;
  /// Host-clock thread lane for the device (tid within pid kHost); 0 keeps
  /// the legacy single-lane layout.
  int host_tid = 0;
  /// Optional flight-recorder sink; layers below svc record coarse events
  /// (iterations, terminal states) here when set.
  FlightRecorder* flight = nullptr;
};

/// Attach the job identity to a trace span (job_id/tenant/job args).
inline void tagSpan(TraceEvent& ev, const JobSpanContext& span) {
  if (span.job_id >= 0) ev.num_args.emplace_back("job_id", double(span.job_id));
  if (!span.tenant.empty()) ev.str_args.emplace_back("tenant", span.tenant);
  if (!span.job_name.empty()) ev.str_args.emplace_back("job", span.job_name);
}

}  // namespace mbir::obs
