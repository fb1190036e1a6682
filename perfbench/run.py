"""nandfruit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload verify-7q --seed 0 --seconds 52 --trace 0

Run from the root of a checkout; nandfruit is imported from its src/.  Each
run starts fresh child processes (perfbench/child.py), one after another:
MEASURED_CHILDREN that each run the workload as a closed loop with one client
for an equal share of --seconds, and before each of them PROBES_PER_CHILD
that only set up, to time set-up.  run_s is the median over the cycles of
all measured children, so that no single process's luck sets it.
--trace 0 prints the end-to-end metrics; --trace 1 runs one child
that traces every second cycle and prints the per-layer metrics, with the
tracing overhead as traced minus untraced median cycle time.  Every output
is checked against an independent reference (perfbench/reference.py).  The
last line of stdout is the result as JSON; the line before it is a report
with the environment, the drawn inputs, the tail percentile and the sample
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("run_s", "s", "lower"),
    ("run_s.tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops", "count", "lower"),
    ("error", "frobenius", "lower"),
    ("eng_bytes", "bytes", "lower"),
    ("pass_rate", "ratio", "higher"),
]
MEASURED_CHILDREN = 3  # children per run that run the workload
PROBES_PER_CHILD = 8   # set-up-only children started before each of them
TAIL_BEYOND = 10      # samples a tail percentile must have beyond it
DEADLINE_S = 170      # a run gives up (exit 1, no result) after this long
# End-to-end children run BLAS on one thread.  With the default two threads,
# eigh of verify-7q's 128x128 H takes either about 3 ms or about 0.22 s,
# depending on whether the worker thread must first wake an idle virtual
# CPU; which of the two a process gets flips from process to process and
# cycle to cycle, so it measures the host's scheduler, not nandfruit.  The
# traced run keeps the default threads, so verify.reference_s shows that
# cost as users with default settings meet it.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the run_s tail.

    The highest nearest-rank percentile with at least TAIL_BEYOND samples
    beyond it, but never below the median: with fewer than 2*TAIL_BEYOND + 1
    samples the (upper) median is reported, with the count beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


class Runner:
    """Starts the child processes of one run, all before one deadline."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict):
        self.base = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                     "--seed", str(seed), "--work-dir", str(work)]
        self.work = work
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def child(self, *extra: str) -> tuple[float, dict | None]:
        """Run one child; returns (seconds from start to "ready", result)."""
        result = self.work / f"result-{time.monotonic_ns()}.json"
        start = time.perf_counter()
        proc = subprocess.Popen(self.base + ["--result", str(result), *extra],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT, env=self.env)
        try:
            if select.select([proc.stdout], [], [], self.remaining())[0]:
                ready = proc.stdout.readline()
            else:
                ready = ""
            setup_s = time.perf_counter() - start
            proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {' '.join(extra)} passed the {DEADLINE_S} s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"child {' '.join(extra)} failed with exit code {proc.returncode}")
        return setup_s, json.loads(result.read_text()) if result.exists() else None


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # probes between the measured children, so that set-up and cycles are
    # both sampled across the whole run and not in one slow moment
    setups, results = [], []
    for _ in range(MEASURED_CHILDREN):
        setups += [runner.child("--setup-only")[0] for _ in range(PROBES_PER_CHILD)]
        setup_s, res = runner.child("--seconds", str(seconds / MEASURED_CHILDREN))
        setups.append(setup_s)
        results.append(res)
    cycle_s = [s for res in results for s in res["cycle_s"]]
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    # every child checks its own cycles; their checked outputs must agree too
    outputs = {(res["ops"], res["error"], res["eng_bytes"], res["qubits"]) for res in results}
    failures = [f for res in results for f in res["failures"]][:5]
    if len(outputs) > 1:
        failed = attempted
        failures.append(f"children disagree on (ops, error, eng_bytes, qubits): {sorted(outputs)}")
    res = results[0]
    value, percentile, beyond = tail(cycle_s)
    metrics = {
        "run_s": statistics.median(cycle_s),
        "run_s.tail": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        "ops": res["ops"],
        "error": res["error"],
        "eng_bytes": res["eng_bytes"],
        "pass_rate": (attempted - failed) / attempted,
    }
    report = {
        "cycle_s": [r["cycle_s"] for r in results],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "qubits": res["qubits"],
        "spec": res["spec"],
        "env": res["env"],
        "tail": {"percentile": percentile, "beyond": beyond, "samples": len(cycle_s)},
        "setup_samples_s": setups,
    }
    return metrics, report


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    _, res = runner.child("--seconds", str(seconds), "--trace")
    traced = [s for s, t in zip(res["cycle_s"], res["traced"]) if t]
    untraced = [s for s, t in zip(res["cycle_s"], res["traced"]) if not t]
    layers = res.pop("layers")
    metrics = {name: statistics.median(cycle[name] for cycle in layers)
               for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    metrics["trace.traced_run_s"] = statistics.median(traced)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_run_s"] - metrics["trace.untraced_run_s"]
    return metrics, res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "nandfruit" / "__init__.py").is_file():
        print(f"perfbench: no nandfruit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, **({} if args.trace else ONE_BLAS_THREAD))
    runner = Runner(args.workload, args.seed, work, env)
    try:
        if WORKLOADS[args.workload]["cycle"] == "replay":
            runner.child("--prepare")
        measure = per_layer if args.trace else end_to_end
        metrics, report = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in names}
    correct = report["failed"] == 0 and None not in metrics.values()
    print("perfbench: " + json.dumps(dict(report, workload=args.workload, seed=args.seed)))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
