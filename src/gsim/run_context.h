// Per-run context: the plumbing one reconstruction run hands every engine
// and simulator it builds, once, at construction.
//
// reconstruct() fills it from RunConfig (the observability session, the
// job's span context, the resolved lane-group table, the fault hook) and
// passes it down; the shard runner hands each slab engine a copy with the
// fault hook cleared off device 0. Nothing in it changes results: the
// recorder and span are observational, the scalar and AVX2 tables are
// bit-identical, and the hook only observes, throws or blocks.
//
// record() is the one rule for where a span lands: a host-clock event on
// the job's host lane (span->host_tid), a modeled-clock event on the job's
// device process (span->trace_pid) shifted to the job's start on that
// device's clock (span->modeled_origin_s), both tagged with the job.
// Without a span both are 0 (the shared lanes). The per-block
// `gsim.block.*` spans and the service's `svc.*` spans place themselves.
#pragma once

#include "gsim/simd.h"

namespace mbir::obs {
class Recorder;
struct JobSpanContext;
struct TraceEvent;
}  // namespace mbir::obs

namespace mbir::gsim {

class FaultHook;  // gsim/fault.h

struct RunContext {
  /// Observability session (nullptr = off). Borrowed.
  obs::Recorder* recorder = nullptr;
  /// The job's identity and trace lanes (nullptr = none, obs/span.h).
  /// Borrowed; must outlive the run.
  const obs::JobSpanContext* span = nullptr;
  /// Lane-group table kernels and row loops run on (nullptr = resolve the
  /// GPUMBIR_SIMD knob when the engine or simulator is built).
  const SimdOps* simd = nullptr;
  /// Fault-injection hook (nullptr = none, gsim/fault.h). Borrowed.
  FaultHook* fault_hook = nullptr;

  /// `simd`, or the GPUMBIR_SIMD default table when it is null (throws when
  /// the knob forces a path the host cannot run).
  const SimdOps& simdTable() const {
    return simd ? *simd : resolveSimdOps(SimdMode::kDefault);
  }
  /// A recorder is attached and records trace spans.
  bool tracing() const;
  /// Place `ev` on the job's lane for its clock, tag it with the job and
  /// record it. No-op unless tracing().
  void record(obs::TraceEvent ev) const;
};

}  // namespace mbir::gsim
