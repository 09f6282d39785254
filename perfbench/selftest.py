"""Self-test of the benchmark's tracing and gates.

    python3 perfbench/selftest.py

1. Installs the tracer and fails if any binding in kstab (module global,
   class attribute, default argument or closure cell) still reaches an
   unwrapped traced function, or if uninstalling leaves a wrapper behind.
2. Runs every workload once traced (one plain and one
   traced pass, seed 0). run.py exits nonzero if a result misses its
   reference, if the traced pass returns other values than the plain one, or
   if a function the workload must exercise records zero calls. About 80 s.
"""
from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LAYERS, REQUIRED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_bindings() -> list[str]:
    tracer = Tracer()
    tracer.modules()
    before = {name: id(obj) for name, obj in _bindings()}
    tracer.install()
    try:
        problems = ["unwrapped: " + where for where in tracer.unwrapped_bindings()]
        changed = sum(before[name] != id(obj) for name, obj in _bindings())
        if changed < len(LAYERS):
            problems.append("only %d bindings replaced for %d layers" % (changed, len(LAYERS)))
    finally:
        tracer.uninstall()
    after = {name: id(obj) for name, obj in _bindings()}
    problems += ["not restored: " + name for name in before if before[name] != after[name]]
    return problems


def _bindings():
    for module_name in sorted(sys.modules):
        if module_name == "kstab" or module_name.startswith("kstab."):
            module = sys.modules[module_name]
            for name, value in vars(module).items():
                yield "%s.%s" % (module_name, name), value
                if isinstance(value, type) and value.__module__ == module_name:
                    for attr, member in vars(value).items():
                        yield "%s.%s.%s" % (module_name, name, attr), member


def main() -> int:
    problems = check_bindings()
    if not set(REQUIRED) == set(WORKLOADS):
        problems.append("REQUIRED does not name every workload")
    for p in problems:
        print("FAIL", p)
    print("bindings: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=300,
        )
        fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
        print("%s: %s" % (workload, "ok" if proc.returncode == 0 else "exit %d" % proc.returncode))
        for line in fails:
            print("  " + line)
        if proc.returncode != 0:
            problems.append(workload)
            sys.stderr.write(proc.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
