"""Dense ground truth: matrix exponentials by eigendecomposition, gate
products for whole programs, and the norms behind the reported error.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import SparseSymmetric
# expand stays importable here: perfbench/tracer.py traces nandfruit.verify.expand
from .seo import Gate, Loop, SeoProgram, expand  # noqa: F401

# largest register the dense verifier handles by default (dim 1024)
DEFAULT_MAX_VERIFY_QUBITS = 10

# largest cap accepted at all: a 13-qubit dense complex matrix takes 1 GiB,
# and program_unitary holds one per loop-nesting level and distinct loop body
MAX_VERIFY_QUBITS = 13


def _as_dense(h) -> np.ndarray:
    if isinstance(h, SparseSymmetric):
        return h.to_dense()
    return np.asarray(h, dtype=float)


def expi_hermitian(h) -> np.ndarray:
    """exp(i*H) for a real symmetric H, via eigendecomposition.

    Accepts a SparseSymmetric or a dense array.
    """
    dense = _as_dense(h)
    if not np.all(np.isfinite(dense)):
        raise ValueError("Hamiltonian has non-finite entries")
    w, v = np.linalg.eigh(dense)
    return (v * np.exp(1j * w)) @ v.conj().T


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

    Each LOOP body is multiplied out once and raised to its rep count; a
    body list shared by several loops is multiplied out once per call, so
    the walk holds one dense matrix per loop-nesting level plus one per
    distinct loop body.  A list item is applied in place, gate by gate, on
    the running product; it gets no matrix of its own.
    """
    dim = 2 ** program.num_qubits
    row_cache: dict = {}
    body_products: dict[int, np.ndarray] = {}

    def apply(items, u: np.ndarray) -> None:
        for item in items:
            if isinstance(item, list):
                apply(item, u)
            elif isinstance(item, Loop):
                body = body_products.get(id(item.body))
                if body is None:
                    body = body_products[id(item.body)] = product(item.body)
                # written back so no caller frame holds a stale u
                u[...] = np.linalg.matrix_power(body, item.reps) @ u
            else:
                apply_gate(u, item, row_cache)

    def product(items) -> np.ndarray:
        u = np.eye(dim, dtype=complex)
        apply(items, u)
        return u

    return product(program.body)


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
