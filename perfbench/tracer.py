"""Outside-in tracer: spans around nandfruit's public functions.

Each traced function is replaced, in every nandfruit module that refers to
it, by a wrapper that records a span [name, start, end, parent index].  The
wrappers are installed only inside the traced child process and removed
before its output checks run.  Spans stay in memory; per-layer metrics are
computed from them after each cycle and the spans are written out at the end.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

# span name -> (defining module[:class], attribute)
TRACED = {
    "cli.run": ("nandfruit.cli", "run"),
    "hamiltonian.assemble": ("nandfruit.hamiltonian", "assemble_fruit"),
    "hamiltonian.validate": ("nandfruit.hamiltonian:FruitSpec", "validate"),
    "compilers.compile": ("nandfruit.compilers", "compile_fruit"),
    "compilers.line": ("nandfruit.compilers", "compile_line"),
    "compilers.tree": ("nandfruit.compilers", "compile_tree"),
    "compilers.glue": ("nandfruit.compilers", "compile_glue"),
    "compilers.oracle": ("nandfruit.compilers", "compile_oracle"),
    "compilers.pad": ("nandfruit.compilers", "pad_controls"),
    "compilers.shift": ("nandfruit.compilers", "conjugate_by_shift"),
    "compilers.rotation": ("nandfruit.compilers", "two_state_rotation"),
    "seo.write_english": ("nandfruit.seo", "write_english"),
    "seo.write_picture": ("nandfruit.seo", "write_picture"),
    "seo.write_log": ("nandfruit.seo", "write_log"),
    "seo.parse_english": ("nandfruit.seo", "parse_english"),
    "seo.count_ops": ("nandfruit.seo", "count_elementary_ops"),
    "seo.validate": ("nandfruit.seo:SeoProgram", "validate"),
    "verify.verify": ("nandfruit.verify", "verify_compile"),
    "verify.product": ("nandfruit.verify", "program_unitary"),
    "verify.reference": ("nandfruit.verify", "expi_hermitian"),
    "verify.distance": ("nandfruit.verify", "frobenius_distance"),
    "verify.apply_gate": ("nandfruit.verify", "apply_gate"),
    "verify.expand": ("nandfruit.verify", "expand"),
}

# modules searched for references to a traced function
MODULES = ("nandfruit", "nandfruit.cli", "nandfruit.hamiltonian",
           "nandfruit.compilers", "nandfruit.seo", "nandfruit.verify")

# span name -> function(args, result) -> small value kept for the metrics
_CAPTURE = {
    "hamiltonian.assemble": lambda args, result: result[1].fruit,
    "compilers.compile": lambda args, result: result[0],
    "seo.write_english": lambda args, result: args[1],
    "seo.write_picture": lambda args, result: args[1],
    "verify.reference": lambda args, result: result.shape[0],
    "verify.expand": lambda args, result: len(result),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("verify.product_s", "s", "lower"),
    ("verify.apply_gate_calls", "count", "lower"),
    ("verify.expand_gates", "count", "lower"),
    ("verify.reference_s", "s", "lower"),
    ("verify.distance_s", "s", "lower"),
    ("verify.dim", "count", "lower"),
    ("compilers.compile_s", "s", "lower"),
    ("compilers.line_s", "s", "lower"),
    ("compilers.tree_s", "s", "lower"),
    ("compilers.glue_s", "s", "lower"),
    ("compilers.oracle_s", "s", "lower"),
    ("compilers.pad_s", "s", "lower"),
    ("compilers.shift_s", "s", "lower"),
    ("compilers.rotation_calls", "count", "lower"),
    ("compilers.line_calls", "count", "lower"),
    ("compilers.tree_calls", "count", "lower"),
    ("compilers.items", "count", "lower"),
    ("compilers.loops", "count", "lower"),
    ("seo.write_english_s", "s", "lower"),
    ("seo.write_picture_s", "s", "lower"),
    ("seo.write_log_s", "s", "lower"),
    ("seo.eng_lines", "count", "lower"),
    ("seo.pic_bytes", "bytes", "lower"),
    ("seo.parse_english_s", "s", "lower"),
    ("seo.validate_s", "s", "lower"),
    ("seo.count_ops_s", "s", "lower"),
    ("hamiltonian.assemble_s", "s", "lower"),
    ("hamiltonian.validate_calls", "count", "lower"),
    ("hamiltonian.pairs", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.traced_run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# per-layer metric -> span name whose summed time it reports
_TIME_OF = {
    "verify.product_s": "verify.product",
    "verify.reference_s": "verify.reference",
    "verify.distance_s": "verify.distance",
    "compilers.compile_s": "compilers.compile",
    "compilers.line_s": "compilers.line",
    "compilers.tree_s": "compilers.tree",
    "compilers.glue_s": "compilers.glue",
    "compilers.oracle_s": "compilers.oracle",
    "compilers.pad_s": "compilers.pad",
    "compilers.shift_s": "compilers.shift",
    "seo.write_english_s": "seo.write_english",
    "seo.write_picture_s": "seo.write_picture",
    "seo.write_log_s": "seo.write_log",
    "seo.parse_english_s": "seo.parse_english",
    "seo.validate_s": "seo.validate",
    "seo.count_ops_s": "seo.count_ops",
    "hamiltonian.assemble_s": "hamiltonian.assemble",
}

# per-layer metric -> span name whose number of calls it reports
_CALLS_OF = {
    "verify.apply_gate_calls": "verify.apply_gate",
    "compilers.rotation_calls": "compilers.rotation",
    "compilers.line_calls": "compilers.line",
    "compilers.tree_calls": "compilers.tree",
    "hamiltonian.validate_calls": "hamiltonian.validate",
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of the functions in TRACED while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.captured: dict[str, list] = {}
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        capture = _CAPTURE.get(name)

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if capture is not None:
                self.captured.setdefault(name, []).append(capture(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (owner, attr) in TRACED.items():
            holder = _resolve(owner)
            fn = getattr(holder, attr)
            wrapper = self._wrap(name, fn)
            # patch every name the program may look the function up under
            sites = [holder] if isinstance(holder, type) else [
                m for m in modules if getattr(m, attr, None) is fn]
            for site in sites:
                self._restore.append((site, attr, fn))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        self._restore.clear()

    def take(self) -> tuple[list[list], dict[str, list]]:
        """Spans and captured values recorded since the last take."""
        spans, captured = self.spans, self.captured
        self.spans, self.captured = [], {}
        return spans, captured


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _outermost_time(spans: list[list], name: str) -> float:
    """Summed duration of the spans called name, not counting nested repeats."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _items_and_loops(body) -> tuple[int, int]:
    items = loops = 0
    for item in body:
        if hasattr(item, "reps"):
            sub_items, sub_loops = _items_and_loops(item.body)
            items, loops = items + sub_items, loops + 1 + sub_loops
        else:
            items += 1
    return items, loops


def cycle_metrics(spans: list[list], captured: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one cycle (all but the trace.* ones)."""
    out = {metric: _outermost_time(spans, name) for metric, name in _TIME_OF.items()}
    for metric, name in _CALLS_OF.items():
        out[metric] = sum(1 for span in spans if span[0] == name)
    self_s = self_times(spans)
    out["cli.self_s"] = sum(t for span, t in zip(spans, self_s) if span[0] == "cli.run")
    programs = captured.get("compilers.compile", [])
    counts = [_items_and_loops(p.body) for p in programs]
    out["compilers.items"] = sum(c[0] for c in counts)
    out["compilers.loops"] = sum(c[1] for c in counts)
    out["verify.expand_gates"] = sum(captured.get("verify.expand", []))
    out["verify.dim"] = max(captured.get("verify.reference", [0]))
    out["hamiltonian.pairs"] = sum(len(h.pairs()) for h in captured.get("hamiltonian.assemble", []))
    out["seo.eng_lines"] = sum(
        len(Path(p).read_bytes().splitlines()) for p in captured.get("seo.write_english", []))
    out["seo.pic_bytes"] = sum(
        Path(p).stat().st_size for p in captured.get("seo.write_picture", []))
    return out
