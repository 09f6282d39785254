"""kstab benchmark: one workload per call, in a fresh single-threaded process.

    python3 perfbench/run.py --workload oracle-walk --seed 0 --seconds 15 --trace 0

Runs the workload's job list as a closed loop (one caller; each job starts
when the previous one returns) in whole passes, as many as fill about
``--seconds`` seconds on kstab as it was when the benchmark was added (at
least three), checks every result against its reference, and prints the
metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 on any reference mismatch and 2 when kstab's sources are missing.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 150  # the whole command must end within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _worker(args) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _meta() -> dict:
    src = os.path.join(ROOT, "src", "kstab")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for line in fh if line.strip())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kstab", "__init__.py")):
        print("error: kstab sources not found under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    try:
        return _report(args)
    finally:
        try:
            os.rmdir(work)
        except OSError:  # another run is using it
            pass


def _report(args) -> int:
    try:
        result = _worker(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("meta %s" % json.dumps(_meta(), sort_keys=True))
    print("workload %s, seed %d: %d passes of %d jobs%s"
          % (args.workload, args.seed, result["passes"], result["jobs_per_pass"],
             " (and as many traced passes)" if args.trace else ""))
    print("  pass times %s s%s" % (", ".join("%.4g" % t for t in result["pass_times"]),
                                   " (untraced, traced, ...)" if args.trace else ""))
    for job in result["jobs"]:
        sizes = job.get("sizes")
        print("  job %-60s best %9.4f s of %d%s" % (
            job["name"], min(job["times"]), len(job["times"]),
            "" if sizes is None else "  lattice points %d, simplices %d, quadrature nodes %d"
            % (sizes["lattice_points"], sizes["simplices"], sizes["quadrature_nodes"])))
    for name, found in sorted(result["problems"].items()):
        for problem in found:
            print("FAIL %s: %s" % (name, problem))
    print("fail_frac %d/%d = %.4f  (nonzero exits: flagged mabuchi reports, the CLI's --tol 1e-6)"
          % (result["fail_exit"], result["attempted"], result["fail_exit"] / result["attempted"]))
    print("unexpected %d/%d" % (result["failed"], result["attempted"]))

    if args.trace:
        metrics = result["metrics"]
        names = PER_LAYER
    else:
        m = result["metrics"]
        print("set-up times %s s" % ", ".join("%.4g" % t for t in result["setup_samples"]))
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
        names = END_TO_END
        print("job percentiles over the best times of %d jobs" % m["job_samples"])
    for name, _ in names:
        print("  %-50s %.6g %s" % (name, metrics[name]["value"], metrics[name]["unit"]))

    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
