#include "recon/reconstructor.h"

#include <cmath>

#include "core/timer.h"
#include "gsim/cpu_model.h"
#include "gsim/fault.h"
#include "obs/flight.h"
#include "icd/convergence.h"
#include "recon/run_report.h"

namespace mbir {

const char* algorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kSequentialIcd: return "Sequential ICD";
    case Algorithm::kPsvIcd: return "PSV-ICD (CPU)";
    case Algorithm::kGpuIcd: return "GPU-ICD";
  }
  return "?";
}

Image2D computeGolden(const OwnedProblem& problem, double equits) {
  MBIR_CHECK(equits > 0.0);
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  SequentialIcd icd(problem.view());
  while (icd.runStats().equits < equits && icd.stepIteration(x, e)) {
  }
  return x;
}

GpuIcdOptions gpuEngineOptions(const OwnedProblem& problem,
                               const RunConfig& config) {
  GpuIcdOptions opt = config.gpu;
  // SVB size scales with views (see gsim::scaleCachesToProblem docs).
  const double ratio = double(problem.geometry().num_views) / 720.0;
  opt.device = gsim::scaleCachesToProblem(opt.device, ratio);
  return opt;
}

namespace {

/// The protocol's iteration cap, for every engine: track stops the run
/// after recording this many curve points.
constexpr int kMaxIterations = 2000;

/// The one loop every engine runs under reconstruct(): step, then let
/// track decide. `modeled` maps the engine's stats to cumulative modeled
/// seconds. Fills the engine-owned result fields and returns the stats.
template <class Icd, class Modeled>
auto stepUntilStopped(Icd& icd, const Modeled& modeled, Sinogram& e,
                      const IterationTrack& track, RunResult& result) {
  const auto& stats = icd.runStats();
  while (icd.stepIteration(result.image, e) &&
         track(result.image, stats.equits, modeled(stats))) {
  }
  result.equits = stats.equits;
  result.work = stats.work;
  result.modeled_seconds = modeled(stats);
  return stats;
}

/// The three in-tree engines behind reconstruct()'s Engine slot.
void runBuiltinEngine(const OwnedProblem& problem, const RunConfig& config,
                      const gsim::RunContext& ctx, Sinogram& e,
                      const IterationTrack& track, RunResult& result) {
  const Problem p = problem.view();
  switch (config.algorithm) {
    case Algorithm::kSequentialIcd: {
      SequentialIcd icd(p, config.seq, ctx);
      result.seq_stats = stepUntilStopped(
          icd,
          [](const IcdRunStats& s) {
            return gsim::modelSequentialCpuSeconds(
                s.work, gsim::sequentialReference());
          },
          e, track, result);
      break;
    }
    case Algorithm::kPsvIcd: {
      PsvIcd icd(p, config.psv, ctx);
      result.psv_stats = stepUntilStopped(
          icd,
          [](const PsvRunStats& s) {
            return gsim::modelPsvCpuSeconds(s.work, gsim::xeon16Core());
          },
          e, track, result);
      break;
    }
    case Algorithm::kGpuIcd: {
      GpuIcd icd(p, gpuEngineOptions(problem, config), ctx);
      result.gpu_stats = stepUntilStopped(
          icd, [](const GpuRunStats& s) { return s.modeled_seconds; }, e,
          track, result);
      break;
    }
  }
}

}  // namespace

RunResult reconstruct(const OwnedProblem& problem, const Image2D& golden,
                      const RunConfig& config) {
  return reconstruct(problem, golden, config,
                     [&](const gsim::RunContext& ctx, Sinogram& e,
                         const IterationTrack& track, RunResult& result) {
                       runBuiltinEngine(problem, config, ctx, e, track, result);
                     });
}

RunResult reconstruct(const OwnedProblem& problem, const Image2D& golden,
                      const RunConfig& config, const Engine& engine) {
  MBIR_CHECK(config.max_equits > 0.0);
  const WallTimer host_wall;
  RunResult result;
  obs::Recorder* rec = config.external_recorder;
  if (!rec && config.obs.enabled()) {
    result.recorder = std::make_shared<obs::Recorder>(config.obs);
    rec = result.recorder.get();
  }
  // The run's plumbing, built once: every engine and simulator below takes
  // it at construction. The lane-group path is resolved here, so the result
  // names the table the engines ran (and a forced-but-unavailable path
  // fails loudly up front).
  const gsim::RunContext ctx{.recorder = rec,
                             .span = config.span,
                             .simd = &resolveSimdOps(config.simd),
                             .fault_hook = config.fault_hook};
  result.simd_path = ctx.simd->name;
  const bool tracing = ctx.tracing();
  obs::Counter* m_iterations = nullptr;
  obs::Gauge* m_rmse = nullptr;
  if (rec && rec->metricsOn()) {
    m_iterations = &rec->metrics().counter("recon.iteration.count");
    m_rmse = &rec->metrics().gauge("recon.rmse_hu");
  }

  const double setup_t0_us = tracing ? rec->trace().nowHostUs() : 0.0;
  if (config.initial_image) {
    MBIR_CHECK_MSG(
        config.initial_image->size() == problem.geometry().image_size,
        "warm-start image is " << config.initial_image->size()
                               << "px, problem needs "
                               << problem.geometry().image_size << "px");
    result.image = *config.initial_image;
    result.warm_started = true;
  } else {
    result.image = problem.fbpInitialImage();
  }
  Sinogram e = problem.initialError(result.image);
  if (tracing) {
    obs::TraceEvent ev;
    ev.name = "recon.setup";
    ev.cat = "recon";
    ev.clock = obs::Clock::kHost;
    ev.ts_us = setup_t0_us;
    ev.dur_us = rec->trace().nowHostUs() - setup_t0_us;
    ev.num_args = {{"image_size", double(result.image.size())}};
    ctx.record(std::move(ev));
  }

  // Per-iteration spans on both clocks, engine-agnostic: host time between
  // callbacks, modeled time between the engine's cumulative timestamps.
  int track_iter = 0;
  double prev_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
  double prev_modeled_s = 0.0;
  const IterationTrack track = [&](const Image2D& x, double equits,
                                   double modeled_seconds) -> bool {
    // Fault seam, before the cancel check so fault firing points depend
    // only on the iteration count, never on cancel timing. Every engine
    // (sharded included) passes through here, so iteration boundaries are
    // the engine-agnostic heartbeat the chaos watchdog listens to.
    if (ctx.fault_hook != nullptr)
      ctx.fault_hook->onEvent("iteration", std::uint64_t(track_iter));
    if (config.cancel && config.cancel->load(std::memory_order_acquire)) {
      result.cancelled = true;
      return false;  // stop; partial image/curve up to here is kept
    }
    const double rmse = rmseHu(x, golden);
    result.curve.push_back({equits, modeled_seconds, rmse});
    result.final_rmse_hu = rmse;
    ++track_iter;
    if (m_iterations) {
      m_iterations->add();
      m_rmse->set(rmse);
    }
    if (config.span && config.span->flight) {
      obs::FlightEvent fev;
      fev.job_id = config.span->job_id;
      fev.kind = "iteration";
      fev.detail = config.span->tenant;
      fev.value = rmse;
      config.span->flight->record(
          obs::FlightRecorder::deviceLane(config.span->device),
          std::move(fev));
    }
    if (tracing) {
      const double now_us = rec->trace().nowHostUs();
      obs::TraceEvent host_ev;
      host_ev.name = "recon.iteration";
      host_ev.cat = "recon";
      host_ev.num_args = {{"iteration", double(track_iter)},
                          {"equits", equits},
                          {"rmse_hu", rmse}};
      obs::TraceEvent dev_ev = host_ev;  // same span on the modeled clock
      host_ev.clock = obs::Clock::kHost;
      host_ev.ts_us = prev_host_us;
      host_ev.dur_us = now_us - prev_host_us;
      dev_ev.clock = obs::Clock::kModeled;
      dev_ev.ts_us = prev_modeled_s * 1e6;
      dev_ev.dur_us = (modeled_seconds - prev_modeled_s) * 1e6;
      ctx.record(std::move(host_ev));
      ctx.record(std::move(dev_ev));
      prev_host_us = now_us;
      prev_modeled_s = modeled_seconds;
    }
    if (config.stop_rmse_hu > 0.0 && rmse < config.stop_rmse_hu) {
      result.converged = true;
      return false;  // stop
    }
    return track_iter < kMaxIterations && equits < config.max_equits;
  };

  engine(ctx, e, track, result);

  if (result.curve.empty())
    result.final_rmse_hu = rmseHu(result.image, golden);
  result.host_seconds = host_wall.seconds();

  if (rec) {
    if (rec->metricsOn()) {
      rec->metrics().gauge("recon.equits").set(result.equits);
      rec->metrics().gauge("recon.final_rmse_hu").set(result.final_rmse_hu);
      rec->metrics().gauge("recon.modeled_seconds").set(result.modeled_seconds);
    }
    // Report first: it embeds the trace summary, and nothing below records
    // new events, so the counts it captures are final. External sessions
    // are exported by their owner, not here.
    if (!config.external_recorder) {
      if (!config.obs.report_path.empty())
        writeRunReport(config.obs.report_path, result, config);
      if (rec->traceOn() && !config.obs.trace_path.empty())
        rec->trace().writeFile(config.obs.trace_path);
    }
  }
  return result;
}

}  // namespace mbir
