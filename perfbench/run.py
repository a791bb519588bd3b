#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of this repository.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds the gpumbir
libraries and the workload program (mbirbench) from source into
.bench_build/ (Release); later runs reuse the build. mbirbench builds the
workload's inputs from the seed, measures for --seconds and checks every
output. This script turns its raw records into metrics, prints them by
name with their units, saves the full result (with the host record) under
.bench_build/results/, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. The exit code is 0 for a
correct run, 1 when an output was wrong or unconverged (the result line is
still printed), and 2 or more when no result could be made.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("recon_single", "svc_open_loop", "svc_store_mix")
# Highest rung of the tail rule per workload: the one its sample count in
# a run lies well inside (recon_single finishes 60-90 jobs, the service
# workloads several hundred device jobs), so the tail stays one statistic
# from run to run.
TAIL_CAP = {"recon_single": 75.0, "svc_open_loop": 95.0,
            "svc_store_mix": 95.0}
# Per-layer metrics (by name prefix) of layers a workload does not run.
# They are reported as 0.0 and listed as "n/a"; every other per-layer
# metric must come from the run itself.
NOT_RUN = {
    "recon_single": ("svc.", "sched.", "store.", "shard."),
    "svc_open_loop": ("store.", "shard.", "core.parallel_speedup",
                      "core.speedup_cases"),
    "svc_store_mix": ("core.parallel_speedup", "core.speedup_cases"),
}
# A run whose load generator sent a request, or collected a finished job,
# later than this is invalid: its latencies would misstate the offered load.
LAG_BOUND_S = 0.25
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr (stdout is the result)."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build():
    """Build the libraries and mbirbench (incrementally); return its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError("%s not found in %s: run from the root of a "
                               "gpumbir checkout" % (needed, ROOT))
    lib = os.path.join(BUILD, "gpumbir")
    bench = os.path.join(BUILD, "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(lib, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=Release",
                   "-DGPUMBIR_BUILD_TESTS=OFF", "-DGPUMBIR_BUILD_BENCH=OFF",
                   "-DGPUMBIR_BUILD_EXAMPLES=OFF"])
    run_quiet(["cmake", "--build", lib, "-j", jobs])
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bench,
                   "-DCMAKE_BUILD_TYPE=Release", "-DGPUMBIR_BUILD_DIR=" + lib])
    run_quiet(["cmake", "--build", bench, "-j", jobs])
    return os.path.join(bench, "mbirbench")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(raw):
    """The user-visible metrics of an untraced run."""
    jobs = raw["jobs"]
    done = [j for j in jobs if j["ok"]]
    on_device = [j["latency_s"] for j in jobs if j["on_device"] and j["ok"]]
    tail, pct, n = stats.tail(on_device, TAIL_CAP[raw["workload"]])
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "jobs_per_s": len(done) / raw["window_s"],
        "latency_p50_s": stats.median(on_device),
        "latency_tail_s": tail,
        "host_cpu_s_per_job": raw["cpu_s"] / max(1, len(done)),
        "modeled_device_s_per_job": raw["modeled_device_s_per_job"],
        "heap_mb": raw["heap_mb"],
    }, {"latency_tail_pct": pct, "latency_samples": n}


def not_run(workload, name):
    return name.startswith(NOT_RUN[workload])


def per_layer(raw, workload):
    """The layer ledger of a traced run: mbirbench's scalar values plus
    the distributions computed here."""
    m = dict(raw["layer"])
    svc = raw["svc_jobs"]
    ran = [j for j in svc if "queue_wait_s" in j]
    rtts = [j["submit_rtt_s"] for j in svc if "submit_rtt_s" in j]
    waits = [j["queue_wait_s"] for j in ran]
    m["svc.submit_rtt_p50_s"] = stats.median(rtts)
    m["svc.submit_rtt_tail_s"] = stats.tail(rtts)[0]
    m["svc.ping_rtt_p50_s"] = stats.median(raw["ping_rtts"])
    m["svc.queue_wait_p50_s"] = stats.median(waits)
    m["svc.queue_wait_tail_s"] = stats.tail(waits)[0]
    m["svc.service_p50_s"] = stats.median([j["service_s"] for j in ran])
    m["svc.control_overhead_s_per_job"] = (
        sum(j["latency_s"] - j["queue_wait_s"] - j["service_s"] for j in ran)
        / max(1, len(ran)))
    m["store.cache.hit_rtt_p50_s"] = stats.median(raw["hit_rtts"])

    jobs = raw["jobs"]
    lags = [j["lag_s"] for j in jobs]
    m["loadgen.lag_p50_s"], m["loadgen.lag_max_s"] = stats.lag_summary(lags)
    traced = [j["latency_s"] for j in jobs if j["on_device"] and j["ok"]]
    _, m["loadgen.tail_pct"], m["loadgen.latency_samples"] = stats.tail(
        traced, TAIL_CAP[workload])
    base = stats.median(raw["untraced_latencies"])
    m["obs.untraced_latency_p50_s"] = base
    m["obs.tracing_overhead_frac"] = (
        (stats.median(traced) - base) / base if base else 0.0)
    return m


def ledger_line(m):
    """The job-latency ledger as one sum: its parts close to the job."""
    kernels = sum(m["gsim.%s.host_s_per_job" % k]
                  for k in ("svb_gen", "mbir_update", "error_writeback"))
    parts = [("setup", m["recon.setup_s_per_job"]),
             ("engine init", m["gpuicd.engine_init_s"]),
             ("kernels", kernels),
             ("bookkeeping", m["recon.bookkeeping_s_per_iter"]
              * m["gpuicd.iterations_per_job"]),
             ("unattributed", m["recon.unattributed_s_per_job"])]
    return "%.6g s = %s" % (m["recon.job_s"], " + ".join(
        "%s %.6g" % p for p in parts))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_benchmark_json()
        exe = build()
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError) as e:
        log("cannot build the benchmark: %s" % e)
        return 2

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmp]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("mbirbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        log("mbirbench failed (exit %d)" % proc.returncode)
        return proc.returncode or 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    violation = stats.lag_violation([j["lag_s"] for j in raw["jobs"]],
                                    LAG_BOUND_S)
    if violation:
        log(violation)
        return 4

    if args.trace:
        values, notes = per_layer(raw, args.workload), {}
        wanted = spec["per_layer"]
        for m in wanted:
            if not_run(args.workload, m["name"]):
                values[m["name"]] = 0.0
    else:
        values, notes = end_to_end(raw)
        wanted = spec["end_to_end"]
    # Diagnostic, not a metric: CPU time the hypervisor took from this
    # machine during the (last) window; a high value marks a noisy run.
    notes["steal_frac"] = raw["steal_frac"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log("no value for metric(s): " + ", ".join(missing))
        return 5

    attempted = len(raw["jobs"])
    failed = sum(1 for j in raw["jobs"] if not j["ok"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": raw["correct"], "attempted": attempted,
              "failed": failed, "metrics": metrics}

    print("workload %s  seed %d  trace %d  host %s  steal %.4f"
          % (args.workload, args.seed, args.trace, json.dumps(raw["host"]),
             notes["steal_frac"]))
    for m in wanted:
        note = ""
        if args.trace and not_run(args.workload, m["name"]):
            note = "  (n/a: layer not run)"
        if m["name"] == "latency_tail_s":
            note = "  (p%g of %d samples)" % (notes["latency_tail_pct"],
                                              notes["latency_samples"])
        print("  %-40s %16.9g %s%s" % (m["name"], values[m["name"]],
                                       m["unit"], note))
    print("  %-40s %16.9g frac  (%d of %d)" % (
        "failed_frac", failed / max(1, attempted), failed, attempted))
    if args.trace:
        print("  ledger per job: %s" % ledger_line(values))
    for why in raw["failures"]:
        print("  FAILED: " + why)

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    saved = dict(result, workload=args.workload, seed=args.seed,
                 trace=args.trace, host=raw["host"], notes=notes,
                 failures=raw["failures"])
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(saved, f, indent=1)

    print(json.dumps(result))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
