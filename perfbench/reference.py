"""Independent reference for the benchmark's output checks.

Nothing here imports nandfruit.  The English file is read by its own parser,
multiplied out loop-aware (each LOOP body once, raised to its rep count) and
compared with scipy.linalg.expm(1j*H), where H is built here from the
paper's definition: a Gray-order line, a heap-order binary tree, the glue
from the line door to the tree root, and the oracle from each leaf whose
input bit is 1 to its marker state.
"""

from __future__ import annotations

import numpy as np

GATE_KINDS = ("SIGX", "ROTX", "ROTY", "ROTZ", "PHAS")


def register_qubits(nb_line: int, nb_tree: int) -> int:
    """Smallest N with 2^nb_line + (3/2) 2^nb_tree <= 2^N."""
    return (2 ** nb_line + 3 * 2 ** (nb_tree - 1) - 1).bit_length()


def hamiltonian(nb_line: int, nb_tree: int, g: float, door: int, x) -> np.ndarray:
    """Dense H of the NAND-formula evaluator, zero-padded to 2^N states.

    Line states are [0, 2^nb_line), linked in Gray order.  Tree node j (heap
    order, dud at 0, root at 1) is global state 2^nb_line + j; leaf k is tree
    node 2^(nb_tree-1) + k and its marker is state 2^nb_line + 2^nb_tree + k.
    """
    ns_line, ns_tree = 2 ** nb_line, 2 ** nb_tree
    dim = 2 ** register_qubits(nb_line, nb_tree)
    h = np.zeros((dim, dim))

    def couple(a, b):
        h[a, b] = h[b, a] = g

    for i in range(ns_line - 1):
        couple(i ^ (i >> 1), (i + 1) ^ ((i + 1) >> 1))
    for j in range(1, ns_tree // 2):
        couple(ns_line + j, ns_line + 2 * j)
        couple(ns_line + j, ns_line + 2 * j + 1)
    couple(door, ns_line + 1)
    for k, bit in enumerate(x):
        if bit:
            couple(ns_line + ns_tree // 2 + k, ns_line + ns_tree + k)
    return h


def parse_english(text: str):
    """(num_qubits, items) from English-file text.

    A gate is (kind, angle, target, control_mask, control_value); a loop is
    ("LOOP", reps, items).  Raises ValueError on anything malformed.
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2 or lines[0][0] != "NUM_QUBITS":
        raise ValueError("missing NUM_QUBITS header")
    num_qubits = int(lines[0][1])
    stack: list[list] = [[]]
    open_ids: list[str] = []
    for tok in lines[1:]:
        word = tok[0]
        if word == "LOOP":
            if len(tok) != 4 or tok[2] != "REPS:" or int(tok[3]) < 1:
                raise ValueError(f"bad loop line {' '.join(tok)!r}")
            body: list = []
            stack[-1].append(("LOOP", int(tok[3]), body))
            stack.append(body)
            open_ids.append(tok[1])
        elif word == "NEXT":
            if not open_ids or open_ids.pop() != tok[1]:
                raise ValueError(f"unmatched {' '.join(tok)!r}")
            stack.pop()
        elif word in GATE_KINDS:
            stack[-1].append(_parse_gate(tok, num_qubits))
        else:
            raise ValueError(f"unknown item {word!r}")
    if open_ids:
        raise ValueError(f"unclosed LOOP {open_ids[-1]}")
    return num_qubits, stack[0]


def _parse_gate(tok, num_qubits):
    kind, pos, angle, target = tok[0], 1, None, None
    if kind != "SIGX":
        angle, pos = float(tok[1]), 2
    if pos < len(tok) and tok[pos] == "AT":
        target, pos = int(tok[pos + 1]), pos + 2
    mask = value = 0
    if pos < len(tok):
        if tok[pos] != "IF" or pos + 1 == len(tok):
            raise ValueError(f"bad controls in {' '.join(tok)!r}")
        for c in tok[pos + 1:]:
            q = int(c[:-1])
            if c[-1] not in "TF" or mask >> q & 1:
                raise ValueError(f"bad control {c!r}")
            mask |= 1 << q
            value |= (c[-1] == "T") << q
    touched = mask | (1 << target if target is not None else 0)
    if touched >> num_qubits or (target is None and kind != "PHAS"):
        raise ValueError(f"bad gate {' '.join(tok)!r}")
    if target is not None and mask >> target & 1:
        raise ValueError(f"target is also a control in {' '.join(tok)!r}")
    return (kind, angle, target, mask, value)


def _block(kind: str, angle) -> tuple:
    """Entries (b00, b01, b10, b11) of a rotation's 2x2 matrix."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "ROTX":
        return c, -1j * s, -1j * s, c
    if kind == "ROTY":
        return c, -s, s, c
    return complex(c, -s), 0, 0, complex(c, s)


def program_unitary(num_qubits: int, items) -> np.ndarray:
    """Dense unitary of a parsed program; the first item acts first on states.

    Each gate updates only the rows it touches, found directly from its
    control mask, and a SIGX only permutes row labels.  Each LOOP body is
    multiplied out once and raised to its rep count with matrix_power.
    """
    dim = 2 ** num_qubits
    states = np.arange(dim)
    row_cache: dict = {}

    def rows(mask, value, target):
        key = (mask, value, target)
        if key not in row_cache:
            sat = states[(states & mask) == value]
            if target is None:
                row_cache[key] = (sat, None)
            else:
                lo = sat[(sat >> target) & 1 == 0]
                row_cache[key] = (lo, lo | (1 << target))
        return row_cache[key]

    def product(items) -> np.ndarray:
        # Row i of the running product is stored as row perm[i] of u, so a
        # SIGX only swaps entries of perm instead of moving whole rows.
        u = np.eye(dim, dtype=complex)
        perm = states.copy()
        for item in items:
            if item[0] == "LOOP":
                u = np.linalg.matrix_power(product(item[2]), item[1]) @ u[perm]
                perm = states.copy()
                continue
            kind, angle, target, mask, value = item
            if kind == "PHAS":
                u[perm[rows(mask, value, None)[0]]] *= np.exp(1j * angle)
                continue
            lo, hi = rows(mask, value, target)
            if kind == "SIGX":
                perm[lo], perm[hi] = perm[hi], perm[lo]
                continue
            b00, b01, b10, b11 = _block(kind, angle)
            lo, hi = perm[lo], perm[hi]
            a, c = u[lo], u[hi]
            u[lo] = b00 * a + b01 * c
            u[hi] = b10 * a + b11 * c
        return u[perm]

    return product(items)


def weighted_ops(items) -> int:
    """Gate count with each loop body weighted by its rep count."""
    return sum(item[1] * weighted_ops(item[2]) if item[0] == "LOOP" else 1
               for item in items)


def frobenius_error(h: np.ndarray, num_qubits: int, items) -> float:
    """Frobenius distance between expm(1j*H) and a parsed program."""
    from scipy.linalg import expm

    if h.shape != (2 ** num_qubits,) * 2:
        raise ValueError(f"H of shape {h.shape} does not fit {num_qubits} qubits")
    return float(np.linalg.norm(expm(1j * h) - program_unitary(num_qubits, items), "fro"))
