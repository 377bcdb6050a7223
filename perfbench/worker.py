"""Run one workload against the package, in this process, and write its figures.

run.py starts this script after writing the fixtures, so the process
holds only the program, its inputs and the benchmark's checks, and its
peak resident memory is the workload's own.  The loop is closed with one
client: each request starts when the previous one has been checked.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --src DIR --trace-out FILE

writes DIR/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import zlib
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckError, parse_records

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency


def _crc(blobs: list[bytes]) -> int:
    """Checksum that tells repeated outputs apart; CRC-32 keeps 100 MB cheap."""
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    return crc


class Runner:
    """Sends requests through ``rangenull.cli.main`` and checks their outputs."""

    def __init__(self, cli, tracer: tracing.Tracer | None):
        self.cli = cli
        self.tracer = tracer
        self.digests: dict[str, tuple[int, int]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv: list[str]):
        """Exit status of one CLI invocation; an escaping exception is a failure."""
        try:
            return self.cli.main(argv)  # looked up per call so trace wrappers apply
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    def run(self, req) -> tuple[float, float]:
        """Run one request; returns its wall and CPU seconds and records any failure."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if self.tracer:
            self.tracer.request = self.attempted
        cpu, start = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in req.argvs:
                code = self.call(argv)
                if code != 0:
                    break
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu
        try:
            if code != 0:
                raise CheckError(f"exit {code}: {err.getvalue().strip()[-300:]}")
            blobs = [p.read_bytes() for p in req.outputs]
            records = parse_records(out.getvalue())
            digest = (_crc(blobs), len(records))
            if req.kind not in self.digests:
                req.check(records, blobs)
                self.digests[req.kind] = digest
            elif self.digests[req.kind] != digest:
                raise CheckError("outputs differ from the checked first run of this request")
        except Exception as exc:  # every failed check is counted, and the loop goes on
            self.failures.append(f"{req.kind}: {type(exc).__name__}: {exc}")
        finally:
            # Removing each output before the next request keeps dirty pages
            # from piling up, so write times stay level through the run.
            for p in req.outputs:
                p.unlink(missing_ok=True)
        return latency, cpu


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it was started.

    ``ru_maxrss`` also counts the parent's memory at the time it spawned
    this process, so the kernel's high-water mark (VmHWM) is read first.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(workload, runner: Runner, work: Path, seed: int, repeats: int) -> list[float]:
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            written = workload.setup(runner.call, work, seed)
        times.append(time.perf_counter() - start)
        digests.add(_crc([p.read_bytes() for p in written]))
    if len(digests) != 1:
        raise RuntimeError("repeated set-up wrote different files")
    return times


def _end_to_end(timed: list[tuple[str, float, float]], requests: list) -> tuple[dict, dict]:
    """Latency order statistics and closed-loop throughput of the timed requests.

    Throughput divides the pixels of one cycle by the sum of each request
    kind's median time, so a burst of load from outside the process moves
    it less than a total over the run would.
    """
    lat = sorted(1e3 * t for _, t, _ in timed)
    n = len(lat)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    by_kind: dict[str, list[float]] = {}
    cpu_by_kind: dict[str, list[float]] = {}
    for kind, t, cpu in timed:
        by_kind.setdefault(kind, []).append(1e3 * t)
        cpu_by_kind.setdefault(kind, []).append(1e3 * cpu)
    p50 = {kind: statistics.median(v) for kind, v in by_kind.items()}
    cycle_s = sum(p50[r.kind] for r in requests) / 1e3
    metrics = {
        "throughput_mpix_s": {"value": sum(r.mpix for r in requests) / cycle_s, "unit": "Mpix/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": lat[k], "unit": "ms"},
    }
    details = {
        "samples": n,
        "latency_tail": {"percentile": 100.0 * (k + 1) / n, "samples_beyond": n - k - 1},
        "p50_ms_by_kind": p50,
        "cpu_p50_ms_by_kind": {kind: statistics.median(v) for kind, v in cpu_by_kind.items()},
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--trace-out", required=True, type=Path)
    args = parser.parse_args()

    start = time.perf_counter()
    import rangenull.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported rangenull from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, tracer)
    if tracer:
        tracer.install()
    setup_times = _setup(workload, runner, args.work, args.seed, 1 if tracer else SETUP_REPEATS)
    if tracer:
        tracer.uninstall()
        tracer.phase = "request"
    workload.prepare(args.work)
    requests = workload.requests(args.work)
    for req in requests:  # warm-up; also the reference bytes for every later repeat
        runner.run(req)

    details = {"import_s_in_worker": import_s, "setup_runs_s": setup_times, "cycle": [r.kind for r in requests]}
    cycles = max(1, round(args.seconds / workload.cycle_s))
    if tracer:
        plain = traced = 0.0
        pairs = max(1, round(cycles / 2))
        for _ in range(pairs):
            plain += sum(runner.run(req)[0] for req in requests)
            tracer.install()
            traced += sum(runner.run(req)[0] for req in requests)
            tracer.uninstall()
        metrics = tracer.layer_metrics(pairs * len(requests), 1, tracing.memcpy_gb_s(), traced / plain - 1.0)
        details["untraceable"] = sorted(tracer.missing)
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.trace_out)
    else:
        timed = []
        for _ in range(cycles):
            for req in requests:
                latency, cpu = runner.run(req)
                timed.append((req.kind, latency, cpu))
        metrics, more = _end_to_end(timed, requests)
        details.update(more)
        metrics["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
        metrics["success_rate"] = {"value": 1.0 - len(runner.failures) / runner.attempted, "unit": "ratio"}
    details["failures"] = runner.failures[:10]
    result = {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "program_setup_s": statistics.median(setup_times),
        "details": details,
    }
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
