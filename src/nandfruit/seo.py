"""Elementary-operation programs and their English / Picture / Log files.

A program is a tree of gates, nestable LOOP groups and plain sub-lists
spliced in place.  The English file is a line-oriented textual form that
parses back losslessly; the Picture file is an ASCII circuit diagram with
one column per qubit.

Conventions: qubit 0 is the least-significant bit of a state index.
ROTA(theta) = exp(-i * theta * sigma_A / 2) for A in {X, Y, Z}; PHAS(theta)
multiplies the control-satisfied subspace (the whole space when there are
no controls) by exp(i * theta).  Angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .hamiltonian import TREE_ORDER

GATE_KINDS = ("SIGX", "ROTX", "ROTY", "ROTZ", "PHAS")
_ROTATIONS = ("ROTX", "ROTY", "ROTZ", "PHAS")

# single-character mnemonics for the Picture file target column
_PIC_CHAR = {"SIGX": "X", "ROTX": "x", "ROTY": "y", "ROTZ": "z", "PHAS": "P"}


class SeoSyntaxError(ValueError):
    """Malformed English file; message carries the offending line number."""


@dataclass(frozen=True)
class Gate:
    """One elementary operation.

    controls is a tuple of (qubit, polarity) pairs; polarity True means the
    gate fires when that qubit is 1 ("T"), False when it is 0 ("F").  An
    angle must be finite: a nan or inf one would turn the whole unitary nan.
    """

    kind: str
    target: int | None = None
    angle: float | None = None
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "SIGX":
            if self.angle is not None:
                raise ValueError("SIGX carries no angle")
            if self.target is None:
                raise ValueError("SIGX needs a target")
        else:
            if self.angle is None:
                raise ValueError(f"{self.kind} needs an angle")
            if not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} angle {self.angle!r} is not finite")
            if self.target is None and self.kind != "PHAS":
                raise ValueError(f"{self.kind} needs a target")
        ctrl_qubits = [q for q, _ in self.controls]
        if len(set(ctrl_qubits)) != len(ctrl_qubits):
            raise ValueError("duplicate control qubit")
        # canonical order: highest qubit first, matching the file rendering
        object.__setattr__(self, "controls", tuple(sorted(self.controls, reverse=True)))
        if self.target is not None and self.target in ctrl_qubits:
            raise ValueError("target cannot also be a control")

    def qubits(self) -> set[int]:
        out = {q for q, _ in self.controls}
        if self.target is not None:
            out.add(self.target)
        return out

    def with_extra_controls(self, extra: tuple[tuple[int, bool], ...]) -> "Gate":
        return Gate(self.kind, self.target, self.angle, self.controls + extra)


@dataclass
class Loop:
    """A LOOP ... NEXT group; its body repeats `reps` times."""

    reps: int
    body: list = field(default_factory=list)


@dataclass
class SeoProgram:
    """A gate sequence: ordered body of Gate, Loop and list items.

    A list item is a sub-sequence spliced in place: it runs, and is written,
    as if its items stood where it stands.  Compilers use it to share a
    repeated sub-sequence as one list object; parse_english never makes one,
    so a program read back from a file is flat and compares equal only to
    flat programs.
    """

    num_qubits: int
    body: list = field(default_factory=list)

    def validate(self) -> None:
        """Check loop reps are positive and qubits in range.

        Each distinct Loop, list and Gate object is checked once, since
        compiled programs share them between many items.
        """
        _check(self.body, self.num_qubits, set())


# The walkers below recurse through module-level functions, not nested
# closures: a closure that calls itself is a reference cycle, which would keep
# the program, its text or its counts alive until the garbage collector runs.
def _check(items, num_qubits: int, checked: set) -> None:
    for item in items:
        if id(item) in checked:
            continue
        checked.add(id(item))
        if isinstance(item, list):
            _check(item, num_qubits, checked)
        elif isinstance(item, Loop):
            if item.reps < 1:
                raise ValueError(f"loop has reps {item.reps} < 1")
            _check(item.body, num_qubits, checked)
        else:
            for q in item.qubits():
                if not 0 <= q < num_qubits:
                    raise ValueError(
                        f"gate touches qubit {q} outside register of "
                        f"{num_qubits}"
                    )


@dataclass
class CompileReport:
    """The four Control-Panel style outputs of one compilation."""

    num_qubits: int
    num_elementary_ops: int
    error: float | None = None
    message: str = ""


def count_elementary_ops(program: SeoProgram) -> int:
    """Gate count with every loop body weighted by its repetition count.

    A list shared by several places is counted once.
    """
    return _count(program.body, {})


def _count(items, counts: dict) -> int:
    total = counts.get(id(items))
    if total is None:
        total = 0
        for item in items:
            if isinstance(item, list):
                total += _count(item, counts)
            elif isinstance(item, Loop):
                total += item.reps * _count(item.body, counts)
            else:
                total += 1
        counts[id(items)] = total
    return total


def expand(program: SeoProgram) -> list[Gate]:
    """Unroll all loops into a flat gate list, in execution order."""
    out: list[Gate] = []
    _unroll(program.body, out)
    return out


def _unroll(items, out: list) -> None:
    for item in items:
        if isinstance(item, list):
            _unroll(item, out)
        elif isinstance(item, Loop):
            for _ in range(item.reps):
                _unroll(item.body, out)
        else:
            out.append(item)


def _format_controls(controls) -> str:
    parts = [f"{q}{'T' if pol else 'F'}" for q, pol in sorted(controls, reverse=True)]
    return "IF " + " ".join(parts)


def _gate_line(gate: Gate) -> str:
    parts = [gate.kind]
    if gate.angle is not None:
        parts.append(f"{gate.angle:.17g}")
    if gate.target is not None:
        parts += ["AT", str(gate.target)]
    if gate.controls:
        parts.append(_format_controls(gate.controls))
    return " ".join(parts)


def _program_chunks(program: SeoProgram, render_gate) -> list[str]:
    """The file's text as chunks: the header, then one line per gate and per
    LOOP and NEXT, with every list spliced in place.

    Each distinct list is rendered once, into the joined lines of each run
    of gates between its Loops and sub-lists; each distinct Gate object is
    rendered once (by identity: 0.0 and -0.0 are equal but render apart).
    Each loop occurrence is numbered in the order the NEXT lines close, so
    a Loop or list shared by several places gets one id per place.
    """
    rendered: dict[int, str] = {}
    parts: dict[int, list] = {}  # list id -> its runs of gate text, Loops and lists

    def parts_of(items) -> list:
        out = parts.get(id(items))
        if out is None:
            out, run = [], []
            for item in items:
                if isinstance(item, (list, Loop)):
                    if run:
                        out.append("".join(run))
                        run = []
                    out.append(item)
                else:
                    line = rendered.get(id(item))
                    if line is None:
                        line = rendered[id(item)] = render_gate(item) + "\n"
                    run.append(line)
            if run:
                out.append("".join(run))
            parts[id(items)] = out
        return out

    chunks = [f"NUM_QUBITS {program.num_qubits}\n"]
    _emit(program.body, parts_of, chunks, 0)
    return chunks


def _emit(items, parts_of, chunks: list, closed: int) -> int:
    """Append the chunks of items; returns the count of loops closed so far."""
    for part in parts_of(items):
        if isinstance(part, str):
            chunks.append(part)
        elif isinstance(part, list):
            closed = _emit(part, parts_of, chunks, closed)
        else:
            at = len(chunks)
            chunks.append("")
            closed = _emit(part.body, parts_of, chunks, closed)
            chunks[at] = f"LOOP {closed} REPS: {part.reps}\n"
            chunks.append(f"NEXT {closed}\n")
            closed += 1
    return closed


def write_english(program: SeoProgram, path) -> None:
    """Write the textual gate program, one item per line after the header."""
    _write_chunks(path, _program_chunks(program, _gate_line))


def _picture_line(gate: Gate, num_qubits: int) -> str:
    involved = gate.qubits()
    lo = min(involved) if involved else 0
    hi = max(involved) if involved else -1
    ctrl = dict(gate.controls)
    cols = []
    for q in range(num_qubits - 1, -1, -1):
        if q == gate.target:
            cols.append(_PIC_CHAR[gate.kind])
        elif q in ctrl:
            cols.append("@" if ctrl[q] else "O")
        elif lo < q < hi:
            cols.append("-")
        else:
            cols.append("|")
        if q > 0:
            cols.append("-" if lo <= q - 1 and q <= hi else " ")
    return "".join(cols)


def write_picture(program: SeoProgram, path) -> None:
    """Write the ASCII diagram; leftmost column is the highest qubit index.

    A line does not show the angle, so it is rendered once per gate shape
    (kind, target and the controls, canonical in a Gate), not per Gate.
    """
    shapes: dict[tuple, str] = {}

    def render(gate: Gate) -> str:
        shape = (gate.kind, gate.target, gate.controls)
        line = shapes.get(shape)
        if line is None:
            line = shapes[shape] = _picture_line(gate, program.num_qubits)
        return line

    _write_chunks(path, _program_chunks(program, render))


def write_log(report: CompileReport, spec, path) -> None:
    """Record every input field plus the run outputs."""
    lines = [
        f"file_prefix: {spec.file_prefix}",
        f"line_qubits: {spec.nb_line}",
        f"tree_qubits: {spec.nb_tree}",
        f"coupling: {spec.g!r}",
        f"door: {spec.door}",
        f"bands: {spec.bands_text}",
        f"line_trots: {spec.nt_line}",
        f"line_order: {spec.r_line}",
        f"tree_trots: {spec.nt_tree}",
        f"tree_order: {TREE_ORDER} (fixed internally)",
        f"meta_trots: {spec.nt_meta}",
        f"meta_order: {spec.r_meta}",
        f"num_qubits: {report.num_qubits}",
        f"num_elementary_ops: {report.num_elementary_ops}",
        f"error: {report.error!r}" if report.error is not None else "error: skipped",
        f"message: {report.message or 'OK'}",
    ]
    _write_chunks(path, [line + "\n" for line in lines])


def _write_chunks(path, chunks) -> None:
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise OSError(f"cannot write {path}: {exc}") from exc


_CONTROL_TOKENS = {"T": True, "F": False}


def _parse_gate(tokens: list[str], lineno: int) -> Gate:
    kind = tokens[0]
    pos = 1
    angle = None
    if kind in _ROTATIONS:
        if pos >= len(tokens):
            raise SeoSyntaxError(f"line {lineno}: missing angle for {kind}")
        try:
            angle = float(tokens[pos])
        except ValueError:
            raise SeoSyntaxError(f"line {lineno}: bad angle {tokens[pos]!r}")
        pos += 1
    target = None
    if pos < len(tokens) and tokens[pos] == "AT":
        if pos + 1 >= len(tokens):
            raise SeoSyntaxError(f"line {lineno}: missing target after AT")
        try:
            target = int(tokens[pos + 1])
        except ValueError:
            raise SeoSyntaxError(f"line {lineno}: bad target {tokens[pos + 1]!r}")
        pos += 2
    controls = []
    if pos < len(tokens):
        if tokens[pos] != "IF":
            raise SeoSyntaxError(f"line {lineno}: unexpected token {tokens[pos]!r}")
        ctrl_tokens = tokens[pos + 1:]
        if not ctrl_tokens:
            raise SeoSyntaxError(f"line {lineno}: IF with no controls")
        for tok in ctrl_tokens:
            if len(tok) < 2 or tok[-1] not in _CONTROL_TOKENS or not tok[:-1].isdigit():
                raise SeoSyntaxError(f"line {lineno}: bad control token {tok!r}")
            controls.append((int(tok[:-1]), _CONTROL_TOKENS[tok[-1]]))
    try:
        return Gate(kind, target, angle, tuple(controls))
    except ValueError as exc:
        raise SeoSyntaxError(f"line {lineno}: {exc}")


def parse_english(path) -> SeoProgram:
    """Read an English file back into a program; loop ids are checked, then dropped."""
    with open(path) as f:
        raw_lines = f.read().splitlines()
    lines = [(i + 1, ln.split()) for i, ln in enumerate(raw_lines) if ln.strip()]
    if not lines:
        raise SeoSyntaxError("empty file: missing NUM_QUBITS header")
    lineno, header = lines[0]
    if len(header) != 2 or header[0] != "NUM_QUBITS" or not header[1].isdigit():
        raise SeoSyntaxError(f"line {lineno}: expected 'NUM_QUBITS <n>' header")
    program = SeoProgram(num_qubits=int(header[1]))
    stack: list[list] = [program.body]
    open_ids: list[int] = []
    seen_ids: set[int] = set()
    for lineno, tokens in lines[1:]:
        word = tokens[0]
        if word == "LOOP":
            if (
                len(tokens) != 4
                or tokens[2] != "REPS:"
                or not tokens[1].isdigit()
                or not tokens[3].lstrip("-").isdigit()
            ):
                raise SeoSyntaxError(f"line {lineno}: expected 'LOOP <id> REPS: <n>'")
            loop_id, reps = int(tokens[1]), int(tokens[3])
            if loop_id in seen_ids:
                raise SeoSyntaxError(f"line {lineno}: duplicate loop id {loop_id}")
            if reps < 1:
                raise SeoSyntaxError(f"line {lineno}: loop reps must be >= 1")
            seen_ids.add(loop_id)
            loop = Loop(reps)
            stack[-1].append(loop)
            stack.append(loop.body)
            open_ids.append(loop_id)
        elif word == "NEXT":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise SeoSyntaxError(f"line {lineno}: expected 'NEXT <id>'")
            if not open_ids:
                raise SeoSyntaxError(f"line {lineno}: NEXT with no open LOOP")
            if open_ids[-1] != int(tokens[1]):
                raise SeoSyntaxError(
                    f"line {lineno}: NEXT {tokens[1]} does not match open "
                    f"LOOP {open_ids[-1]}"
                )
            open_ids.pop()
            stack.pop()
        elif word in GATE_KINDS:
            stack[-1].append(_parse_gate(tokens, lineno))
        else:
            raise SeoSyntaxError(f"line {lineno}: unknown item {word!r}")
    if open_ids:
        raise SeoSyntaxError(f"unclosed LOOP {open_ids[-1]} at end of file")
    program.validate()
    return program
