"""One benchmark process: set up a workload, run passes, check, report.

Started by run.py in a fresh single-threaded interpreter. Prints one JSON
object on its last line of standard output. ``--setup-only`` stops once the
first job is ready and reports only the set-up time; an untraced run starts
such probes before each of its passes.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

# Wall time of one untraced pass on kstab as it was when the benchmark was
# added (2-vCPU host, see README.md). The pass count comes from these and
# --seconds, never from how fast the program under test runs, so a parent
# and a change take the same number of repetitions of every job.
PASS_WALL_S = {
    "oracle-walk": 6.0,
    "closed-form": 11.0,
    "float-quadrature": 5.0,
    "small-jobs": 4.0,
}
# Untraced passes per run at the least: each job's best time is a minimum
# over these. The host can stay slow for 20 s or more (see README.md), and
# oracle-walk's pass is mostly one 3.6 s job, the A3 cube: with 3 passes, 3 of
# 10 runs read all-slow; with 5, none of 10 did.
MIN_PASSES = {
    "oracle-walk": 5,
    "closed-form": 3,
    "float-quadrature": 3,
    "small-jobs": 3,
}
SETUP_PROBES_PER_PASS = 3  # fresh set-up-only processes before each untraced pass
PROBE_TIMEOUT_S = 60


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work_dir = tempfile.mkdtemp(dir=os.path.join(args.root, ".perfbench_work"))
    try:
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir: str) -> int:
    import kstab  # noqa: F401  (set-up time includes the import)

    jobs = workloads.build(args.workload, args.seed, work_dir, args.root)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()

    nominal = PASS_WALL_S[args.workload]
    if tracer:
        # (untraced, traced) pairs
        count = 2 * max(1, round(args.seconds / (2 * nominal)))
    else:
        count = max(MIN_PASSES[args.workload], round(args.seconds / nominal))
    setup_samples = [setup_s]
    passes = []  # (traced, pass_s, [(seconds, outputs or None, error or None, sizes)])
    layer_metrics = missing = None
    while len(passes) < count:
        traced = bool(tracer) and len(passes) % 2 == 1
        if not tracer:
            # set-up is short and the host's speed changes every few seconds:
            # spread the probes over the run and keep the fastest
            setup_samples += [_probe_setup(args) for _ in range(SETUP_PROBES_PER_PASS)]
        if traced:
            tracer.install()
        records = []
        p0 = time.perf_counter()
        try:
            for job in jobs:
                before = tracer.snapshot() if traced else None
                j0 = time.perf_counter()
                try:
                    out, err = job.run(), None
                except Exception as exc:  # a job that raises counts as failed
                    out, err = None, "%s: %s" % (type(exc).__name__, exc)
                dt = time.perf_counter() - j0
                sizes = _sizes(before, tracer.snapshot()) if traced else None
                records.append((dt, out, err, sizes))
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_pass()
        passes.append((traced, time.perf_counter() - p0, records))
        if traced and layer_metrics is None:
            # per-layer numbers describe the first traced pass, so counts
            # repeat exactly from run to run
            layer_metrics, missing = tracer.metrics(), tracer.missing(args.workload)

    problems, fail_exit = _check(jobs, passes)
    untraced = [p for p in passes if not p[0]]
    # Each job is timed at its fastest repetition in the run. The host
    # alternates every few seconds between a fast state and one ~1.7x slower
    # (see README.md); the fastest repetition tracks the fast state, where a
    # median over repetitions follows the share of slow time.
    best = [min(p[2][i][0] for p in untraced) for i in range(len(jobs))]
    attempted = len(jobs) * len(passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "pass_times": [round(p[1], 4) for p in passes],
        "jobs_per_pass": len(jobs),
        "attempted": attempted,
        "failed": sum(len(v) > 0 for v in problems.values()) * len(passes),
        "fail_exit": fail_exit * len(passes),
        "problems": {k: v for k, v in problems.items() if v},
        "jobs": [
            {"name": job.name, "times": [p[2][i][0] for p in untraced]}
            for i, job in enumerate(jobs)
        ],
    }
    if tracer:
        if missing:
            result["problems"]["self-test"] = ["no calls recorded for " + ", ".join(missing)]
        sizes = next(p[2] for p in passes if p[0])
        for entry, record in zip(result["jobs"], sizes):
            entry["sizes"] = record[3]
        traced_pass = min(p[1] for p in passes if p[0])
        layer_metrics["trace.overhead_frac"]["value"] = traced_pass / min(p[1] for p in untraced) - 1
        result["metrics"] = layer_metrics
    else:
        result["setup_samples"] = [round(t, 4) for t in setup_samples]
        result["metrics"] = {
            "setup_s": min(setup_samples),
            "pass_s": sum(best),
            "job_p50_s": statistics.median(best),
            "job_p90_s": _p90(best),
            "job_samples": len(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(result))
    return 0


def _probe_setup(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--root", args.root, "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _sizes(before: dict, after: dict) -> dict:
    def delta(name, field):
        return after[name][field] - before[name][field]

    return {
        "lattice_points": delta("polytope.dilated_lattice_points", 1),
        "simplices": delta("quadrature.integral_over_simplex", 0),
        "quadrature_nodes": delta("quadrature.graded_integral", 2),
    }


def _check(jobs, passes):
    """Problems per job name, and the number of flagged mabuchi exits per pass.

    The first pass is checked against the references; every later pass,
    traced or not, must return exactly the same outputs.
    """
    first = passes[0][2]
    outs = {job.name: rec[1] for job, rec in zip(jobs, first)}
    problems, fail_exit = {}, 0
    for i, job in enumerate(jobs):
        dt, out, err, _ = first[i]
        found = [err] if err else []
        if out is not None:
            try:
                found += job.check(out, outs)
            except Exception as exc:  # a malformed output is a failed check
                found.append("check raised %s: %s" % (type(exc).__name__, exc))
            if workloads.flagged_exit(job, out):
                fail_exit += 1
        for traced, _, records in passes[1:]:
            if records[i][1] != out or records[i][2] != err:
                found.append("%s pass returned other values than the first"
                             % ("traced" if traced else "untraced"))
                break
        problems[job.name] = found
    return problems, fail_exit


if __name__ == "__main__":
    sys.exit(main())
