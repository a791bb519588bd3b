#include "gsim/run_context.h"

#include "obs/obs.h"
#include "obs/span.h"

namespace mbir::gsim {

bool RunContext::tracing() const { return recorder && recorder->traceOn(); }

void RunContext::record(obs::TraceEvent ev) const {
  if (!tracing()) return;
  if (ev.clock == obs::Clock::kHost) {
    ev.tid = span ? span->host_tid : 0;
  } else {
    ev.pid = span ? span->trace_pid : 0;
    ev.ts_us += span ? span->modeled_origin_s * 1e6 : 0.0;
  }
  if (span) obs::tagSpan(ev, *span);
  recorder->trace().record(std::move(ev));
}

}  // namespace mbir::gsim
