"""Dense ground truth: matrix exponentials by eigendecomposition, gate
products for whole programs, and the norms behind the reported error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import SparseSymmetric
# expand stays importable here: perfbench/tracer.py traces nandfruit.verify.expand
from .seo import Gate, Loop, SeoProgram, expand  # noqa: F401

# largest register the dense verifier handles by default (dim 1024).  With
# one BLAS thread (x86-64), the whole CLI run at line and meta order 4 takes
# about 2.6 s at 10 qubits (program_unitary 1.5 s, exp(iH) 0.17 s, 146 MB
# peak RSS) and 16 s at 11 (9.9 s and 1.5 s, 489 MB)
DEFAULT_MAX_VERIFY_QUBITS = 10

# largest cap accepted at all: a 13-qubit dense complex matrix takes 1 GiB,
# and program_unitary holds one matrix per loop-nesting level plus one
# |S|^2 block per distinct loop body and one |S|^2 power per distinct
# (body, reps), where |S| is the number of rows the body touches
MAX_VERIFY_QUBITS = 13


def _as_dense(h) -> np.ndarray:
    if isinstance(h, SparseSymmetric):
        return h.to_dense()
    return np.asarray(h, dtype=float)


def expi_hermitian(h) -> np.ndarray:
    """exp(i*H) for a real symmetric H, via eigendecomposition.

    Accepts a SparseSymmetric or a dense array.  Only the states H couples,
    those whose row is not all zero, go through eigh: every other state has
    a zero row and column, so exp(iH) is exactly 1 on its diagonal entry and
    0 elsewhere in its row and column.
    """
    dense = _as_dense(h)
    if not np.all(np.isfinite(dense)):
        raise ValueError("Hamiltonian has non-finite entries")
    live = np.flatnonzero(dense.any(axis=1))
    block = np.ix_(live, live)
    w, v = np.linalg.eigh(dense[block])
    out = np.eye(dense.shape[0], dtype=complex)
    out[block] = (v * np.exp(1j * w)) @ v.conj().T
    return out


def _rotation_block(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "ROTX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ROTY":
        return np.array([[c, -s], [s, c]])
    if kind == "ROTZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(kind)


def _touched_rows(gate: Gate, dim: int, row_cache: dict):
    """Row indices a gate updates: the control-satisfied rows for PHAS, the
    (lo, hi) pairs differing only in the target bit for the others.

    Keyed by (control mask, control value, target) in row_cache.
    """
    mask = value = 0
    for q, pol in gate.controls:
        mask |= 1 << q
        value |= pol << q
    target = None if gate.kind == "PHAS" else gate.target
    key = (mask, value, target)
    rows = row_cache.get(key)
    if rows is None:
        states = np.arange(dim)
        satisfied = states[(states & mask) == value]
        if target is None:
            rows = satisfied
        else:
            lo = satisfied[((satisfied >> target) & 1) == 0]
            rows = (lo, lo | (1 << target))
        row_cache[key] = rows
    return rows


def apply_gate(u: np.ndarray, gate: Gate, row_cache: dict) -> None:
    """Left-multiply u in place by the dense matrix of one (multiply-controlled)
    gate, updating only the rows it touches.

    row_cache holds the touched rows per control pattern; share one dict
    among calls on matrices of the same dimension.
    """
    rows = _touched_rows(gate, u.shape[0], row_cache)
    if gate.kind == "PHAS":
        # phase on the control-satisfied subspace; target, if any, is inert
        u[rows] *= np.exp(1j * gate.angle)
        return
    lo, hi = rows
    row_lo = u[lo]
    if gate.kind == "SIGX":
        u[lo] = u[hi]
        u[hi] = row_lo
        return
    block = _rotation_block(gate.kind, gate.angle)
    row_hi = u[hi]
    u[lo] = block[0, 0] * row_lo + block[0, 1] * row_hi
    u[hi] = block[1, 0] * row_lo + block[1, 1] * row_hi


def program_unitary(program: SeoProgram) -> np.ndarray:
    """Multiply out all gates; the first listed gate acts first on states.

    A gate changes only the rows it touches and maps them among themselves,
    so a LOOP body is the identity outside its support S: the union of the
    rows its gates touch, nested lists and loops included.  Each distinct
    body is multiplied out once, on the columns S of the identity, and only
    its |S| x |S| block on S is kept.  The block is raised to the rep count
    once per distinct (body, reps) and applied to the rows S of the running
    product, through a basic slice when S is a contiguous range; while that
    product is still the identity, the power is copied into its block on S
    instead, the same numbers without the product (every compiled program
    is one top-level LOOP).  S is read from the gates, so any program works,
    not only a compiled one.  A list item is applied in place, gate by gate;
    it gets no matrix of its own.

    The walk holds one matrix per loop-nesting level (dim x dim at the top,
    dim x |S| inside a body), one |S|^2 block per distinct body and one
    |S|^2 power per distinct (body, reps).
    """
    dim = 2 ** program.num_qubits
    u = np.eye(dim, dtype=complex)
    _apply(program.body, u, _Walk(dim), identity=True)
    return u


@dataclass
class _Walk:
    """What one program_unitary call caches, keyed by the ids of the
    program's objects (alive for the whole call)."""

    dim: int
    row_cache: dict = field(default_factory=dict)  # see _touched_rows
    supports: dict = field(default_factory=dict)  # id(list) -> row mask
    blocks: dict = field(default_factory=dict)  # id(body) -> (rows S, block)
    powers: dict = field(default_factory=dict)  # (id(body), reps) -> power


# The walk recurses through these module-level functions, not through nested
# closures: a closure that calls itself is a reference cycle, which would keep
# every body block alive until the garbage collector next runs.
def _apply(items, u: np.ndarray, walk: _Walk, identity: bool = False) -> bool:
    """Left-multiply u in place by items; identity says u is the identity
    matrix, and the result whether it still is."""
    for item in items:
        if isinstance(item, list):
            identity = _apply(item, u, walk, identity)
            continue
        if isinstance(item, Loop):
            rows, block = _body_block(item.body, walk)
            key = (id(item.body), item.reps)
            power = walk.powers.get(key)
            if power is None:
                power = walk.powers[key] = np.linalg.matrix_power(block, item.reps)
            if identity:  # power @ u[rows] would read back power
                u[(rows, rows) if isinstance(rows, slice) else np.ix_(rows, rows)] = power
            else:
                u[rows] = power @ u[rows]
        else:
            apply_gate(u, item, walk.row_cache)
        identity = False
    return identity


def _body_block(body: list, walk: _Walk):
    """(S, the body's block on S), S as a slice when it is a contiguous range."""
    found = walk.blocks.get(id(body))
    if found is None:
        rows = np.flatnonzero(_support(body, walk))
        w = np.zeros((walk.dim, rows.size), dtype=complex)
        w[rows, np.arange(rows.size)] = 1
        _apply(body, w, walk)
        block = w[rows]
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        found = walk.blocks[id(body)] = rows, block
    return found


def _support(items: list, walk: _Walk) -> np.ndarray:
    """Mask of the rows any gate in items touches, through lists and loops."""
    mask = walk.supports.get(id(items))
    if mask is None:
        mask = walk.supports[id(items)] = np.zeros(walk.dim, dtype=bool)
        for item in items:
            if isinstance(item, list):
                mask |= _support(item, walk)
            elif isinstance(item, Loop):
                mask |= _support(item.body, walk)
            elif item.kind == "PHAS":
                mask[_touched_rows(item, walk.dim, walk.row_cache)] = True
            else:
                lo, hi = _touched_rows(item, walk.dim, walk.row_cache)
                mask[lo] = mask[hi] = True
    return mask


def frobenius_distance(u: np.ndarray, v: np.ndarray) -> float:
    """sqrt(sum_jk |U_jk - V_jk|^2)."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return float(np.linalg.norm(u - v, "fro"))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a), 2))


def verify_compile(h_fruit, program: SeoProgram) -> float:
    """Frobenius distance between exp(i*H) and the program's unitary.

    h_fruit must already be padded to the program's power-of-two dimension;
    exp(i*diag(H, 0)) = diag(exp(i*H), I), so the target is the identity on
    all padding states.
    """
    dense = _as_dense(h_fruit)
    dim = 2 ** program.num_qubits
    if dense.shape != (dim, dim):
        raise ValueError(
            f"Hamiltonian dim {dense.shape[0]} does not match "
            f"{program.num_qubits}-qubit program"
        )
    return frobenius_distance(expi_hermitian(dense), program_unitary(program))
