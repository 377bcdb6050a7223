"""rangenull benchmark: closed-loop CLI workloads with independent output checks.

    python3 perfbench/run.py --workload {sr_png,pd_exact,operators,all} \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed fixes every input.  Fixtures are written under
``.perfbench_work/`` (removed afterwards) and, with ``--trace 1``, the
spans of the traced run are kept in ``.perfbench_out/``.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.
The line before it records the environment stamp, the fixture sizes and
the details behind the figures (tail percentile, sample count, failures).
``--workload all`` runs the three workloads in turn, prints each metric
with its unit, and ends with one object whose metric names are prefixed
by the workload.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 8
TIME_LIMIT_S = 170.0
PROBE = "import time; t = time.perf_counter(); import rangenull; print(time.perf_counter() - t)"


def _cache_bytes(level: int) -> int | None:
    """Size of the first unified or data cache of ``level`` on CPU 0."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
                return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return None


def _stamp(threads: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": threads,
        "blas_threads": threads,
        "l2_bytes_per_core": _cache_bytes(2),
        "llc_bytes": _cache_bytes(3),
        "machine": platform.machine(),
    }


def _child_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    return left


def run_workload(name: str, args, env: dict, deadline: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    imports: list[float] = []

    def probe_imports() -> None:
        """Time ``import rangenull`` in fresh interpreters (part of set-up)."""
        for _ in range(0 if args.trace else IMPORT_PROBES // 2):
            probe = subprocess.run(
                [sys.executable, "-c", PROBE], env=env, cwd=work, capture_output=True,
                text=True, timeout=_remaining(deadline), check=True,
            )
            imports.append(float(probe.stdout.strip().splitlines()[-1]))

    try:
        fixtures = WORKLOADS[name].fixtures(np.random.default_rng(args.seed), work)
        probe_imports()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
             "--src", str(ROOT / "src"), "--trace-out", str(ROOT / ".perfbench_out" / f"trace-{name}.json")],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=_remaining(deadline), check=True,
        )
        result = json.loads((work / "result.json").read_text())
        probe_imports()  # half before and half after the worker, so the median spans the run
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if imports:
        setup = statistics.median(imports) + result["program_setup_s"]
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        result["details"]["import_probes_s"] = imports
    result["details"]["fixtures"] = fixtures
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)

    src = ROOT / "src"
    if not (src / "rangenull" / "__init__.py").is_file():
        print(f"error: no rangenull package under {src}; run from the root of a source checkout", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = _child_env(src, threads)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args, env, deadline) for name in names}
    except (subprocess.SubprocessError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stamp = _stamp(threads)
    for name, res in results.items():
        print(json.dumps({"workload": name, "seed": args.seed, "stamp": stamp, "details": res["details"]}))
    if args.workload == "all":
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                print(f"{name:10s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    else:
        metrics = results[names[0]]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
