"""One fresh child process of the benchmark (started by run.py, not by hand).

It imports nandfruit from the checkout's src/, sets up one workload's
inputs, prints "ready", then runs the workload as a closed loop with one
client: each cycle starts when the previous one ends and is timed on its
own.  With --trace, every second cycle runs under the tracer.  After the
loop it checks every cycle's outputs against the independent reference and
writes its result as JSON to --result.  The facts of each checked English
file are kept in --work-dir, so that later children of the same run that
write the same file reuse them instead of recomputing them.

--prepare instead runs one CLI cycle of a replay workload's source spec,
checks it, and leaves the English file and its facts in --work-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_argv, cli_spec, input_bits  # noqa: E402

MIN_CYCLES = 3
ERROR_TOLERANCE = 1e-12
ERROR_CEILING = 1e-7  # compile-9q recomputes to about 6.5e-8 on every seed
SOURCE = "source"  # file prefix of a replay workload's English file


def import_nandfruit():
    """nandfruit from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import nandfruit
    from nandfruit import cli, seo

    if not Path(nandfruit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"nandfruit imported from {nandfruit.__file__}, not {SRC}")
    return cli, seo


def as_items(body) -> list:
    """A nandfruit program body in reference.parse_english's item form."""
    out = []
    for item in body:
        if hasattr(item, "reps"):
            out.append(("LOOP", item.reps, as_items(item.body)))
        else:
            mask = value = 0
            for q, polarity in item.controls:
                mask |= 1 << q
                value |= polarity << q
            out.append((item.kind, item.angle, item.target, mask, value))
    return out


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def file_facts(path: Path, spec: dict, seo) -> dict:
    """What the English file at path says, read by nandfruit and independently.

    ops is count_elementary_ops(parse_english(path)), from the program under
    test; the rest come from reference.py alone.
    """
    text = path.read_text()
    qubits, items = reference.parse_english(text)
    h = reference.hamiltonian(spec["line-qubits"], spec["tree-qubits"],
                              spec["coupling"], spec["door"], input_bits(spec))
    return {
        "ops": seo.count_elementary_ops(seo.parse_english(path)),
        "ref_ops": reference.weighted_ops(items),
        "qubits": qubits,
        "digest": digest(items),
        "error": reference.frobenius_error(h, qubits, items),
        "bytes": len(text.encode()),
    }


def cli_failures(cycle: dict, message: str, facts: dict, expected_error) -> list[str]:
    """Why a CLI cycle's outputs are wrong; empty when they are right.

    facts holds file_facts per English-file hash.  The error recomputed from
    the written file must match expected_error and, where the CLI printed
    one, the printed error.  Where it printed none (--no-verify), the
    recomputed error must also stay under ERROR_CEILING.
    """
    printed = cycle["printed"]
    reasons = []
    if cycle["code"] != 0:
        reasons.append(f"exit code {cycle['code']!r}")
    if printed.get("Message") != message:
        reasons.append(f"Message {printed.get('Message')!r}, expected {message!r}")
    fact = facts.get(cycle["hash"])
    if fact is None:
        return reasons + ["no English file written"]
    ops = printed.get("Number of Elementary Operations")
    if ops != str(fact["ops"]) or fact["ops"] != fact["ref_ops"]:
        reasons.append(f"ops printed {ops}, parsed {fact['ops']}, "
                       f"independent {fact['ref_ops']}")
    if expected_error is None:
        reasons.append("no reference error: the first cycle wrote no English file")
    elif abs(fact["error"] - expected_error) > ERROR_TOLERANCE:
        reasons.append(f"error of the written file {fact['error']!r} != {expected_error!r}")
    error = printed.get("Error", "missing")
    if error == "skipped":
        if fact["error"] > ERROR_CEILING:
            reasons.append(f"error of the written file {fact['error']!r} "
                           f"above {ERROR_CEILING}")
        return reasons
    try:
        if abs(fact["error"] - float(error)) > ERROR_TOLERANCE:
            reasons.append(f"printed Error {error} != {fact['error']!r} of the written file")
    except ValueError:
        reasons.append(f"unreadable Error {error!r}")
    return reasons


def replay_failures(program, count: int, fact: dict) -> list[str]:
    """Why a parse-and-count cycle's outputs are wrong; empty when right."""
    reasons = []
    if count != fact["ref_ops"]:
        reasons.append(f"counted {count} ops, independent count {fact['ref_ops']}")
    if program.num_qubits != fact["qubits"]:
        reasons.append(f"parsed {program.num_qubits} qubits, file has {fact['qubits']}")
    if digest(as_items(program.body)) != fact["digest"]:
        reasons.append("parsed program differs from the file")
    return reasons


def cli_cycle(cli, argv: list[str], eng: Path, keep: Path, facts: dict) -> dict:
    """One timed CLI call; records its outputs and keeps each new English file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the cycle, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    printed = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                   if ": " in line)
    digest_ = None
    if eng.exists():
        data = eng.read_bytes()
        digest_ = hashlib.sha256(data).hexdigest()
        if digest_ not in facts:
            facts[digest_] = None
            if not (keep / f"eng-{digest_}.txt").exists():
                shutil.copyfile(eng, keep / f"eng-{digest_}.txt")
    return {"s": seconds, "code": code, "printed": printed, "hash": digest_}


def replay_cycle(seo, eng: Path, fact: dict) -> dict:
    start = time.perf_counter()
    try:
        program = seo.parse_english(eng)
        count = seo.count_elementary_ops(program)
    except Exception as exc:  # a crash fails the cycle, not the benchmark
        return {"s": time.perf_counter() - start,
                "failures": [f"{type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - start
    return {"s": seconds, "failures": replay_failures(program, count, fact)}


def blas_threads():
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f
                    if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def check_cli_cycles(cycles: list[dict], facts: dict, work: Path, spec: dict,
                     seo, message: str, recorded) -> tuple[dict, list[list[str]]]:
    """Facts of the first cycle's English file, and each cycle's failures.

    Every cycle's recomputed error is compared with recorded (the seed-0
    record, or None at another seed), else with the first cycle's.
    """
    for key in facts:
        cached = work / f"facts-{key}.json"
        if not cached.exists():
            cached.write_text(json.dumps(file_facts(work / f"eng-{key}.txt", spec, seo)))
        facts[key] = json.loads(cached.read_text())
    fact = facts.get(cycles[0]["hash"]) or {}
    expected = fact.get("error") if recorded is None else recorded
    return fact, [cli_failures(c, message, facts, expected) for c in cycles]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--result", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--prepare", action="store_true")
    args = p.parse_args()

    cli, seo = import_nandfruit()
    workload = WORKLOADS[args.workload]
    spec = cli_spec(args.workload, args.seed)
    work = args.work_dir
    replay = workload["cycle"] == "replay" and not args.prepare
    if replay:
        source_eng = work / f"{SOURCE}_qfru_eng.txt"
        source = json.loads((work / f"{SOURCE}.json").read_text())
    else:
        cli_workload = WORKLOADS[workload.get("source", args.workload)]
        prefix = SOURCE if args.prepare else f"cycle-{os.getpid()}"
        recorded = (cli_workload["seed0_record"]["recomputed_error"]
                    if args.seed == DEFAULT_SEED else None)
        argv = cli_argv(spec, str(work / prefix), cli_workload["verify"])
        eng = work / f"{prefix}_qfru_eng.txt"
    print("ready", flush=True)
    if args.setup_only:
        return 0

    facts: dict = {}
    if args.prepare:
        cycles = [cli_cycle(cli, argv, eng, work, facts)]
        fact, (failures,) = check_cli_cycles(cycles, facts, work, spec, seo,
                                             cli_workload["message"], recorded)
        (work / f"{SOURCE}.json").write_text(json.dumps(dict(fact, failures=failures)))
        return 1 if failures else 0

    # With --trace every second cycle is traced, so traced and untraced
    # cycles see the same machine and their difference is the overhead.
    tracer = tracing.Tracer() if args.trace else None
    cycles, layers, spans = [], [], []
    # Start another cycle while, at the mean cycle time so far, it would end
    # at most half a cycle after --seconds, so that the loop measures for
    # --seconds give or take half a cycle.
    start = time.perf_counter()
    while (len(cycles) < MIN_CYCLES or
           (time.perf_counter() - start) * (len(cycles) + 0.5) / len(cycles) <= args.seconds):
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        if replay:
            cycles.append(replay_cycle(seo, source_eng, source))
        else:
            cycles.append(cli_cycle(cli, argv, eng, work, facts))
        if traced:
            tracer.uninstall()
            cycle_spans, captured = tracer.take()
            layers.append(tracing.cycle_metrics(cycle_spans, captured))
            spans.append(cycle_spans)
        cycles[-1]["traced"] = traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if replay:
        fact, failures = source, [c.pop("failures") for c in cycles]
        error = fact["error"]
    else:
        fact, failures = check_cli_cycles(cycles, facts, work, spec, seo,
                                          cli_workload["message"], recorded)
        error = fact.get("error")
        printed = cycles[0]["printed"].get("Error", "skipped")
        if printed != "skipped" and not failures[0]:
            error = float(printed)
    result = {
        "cycle_s": [c["s"] for c in cycles],
        "traced": [c["traced"] for c in cycles],
        "attempted": len(cycles),
        "failed": sum(1 for f in failures if f),
        "failures": [f for f in failures if f][:5],
        "ops": fact.get("ref_ops"),
        "error": error,
        "eng_bytes": fact.get("bytes"),
        "qubits": fact.get("qubits"),
        "peak_rss_mb": peak_rss_mb,
        "spec": spec,
        "env": environment(),
        "layers": layers,
    }
    args.result.write_text(json.dumps(result))
    if spans:
        with gzip.open(HERE / "out" / f"spans-{args.workload}.jsonl.gz", "wt") as f:
            for i, cycle_spans in enumerate(spans):
                for name, t0, t1, parent in cycle_spans:
                    f.write(json.dumps([i, name, t0, t1, parent]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
