"""Hamiltonians for the NAND-formula evolution operator.

The full Hamiltonian glues a line graph (the "runway") to a balanced binary
tree whose leaves are connected, via an oracle, to extra marker states for
every NAND input bit that is 1.  All blocks share one real coupling constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Bad user input.  The message is shown verbatim as the CLI Message."""


# Largest line or tree register accepted.  Measured at the smallest trots and
# orders (Intel Xeon, single-threaded): a 14-qubit line plus a 14-qubit tree
# compiles in 0.17 s and writes its 1,777-op English file in 2 ms at 33 MB
# peak RSS, and one more qubit in each block roughly doubles the time.
# Without a bound, a 40-qubit line ends in a MemoryError inside gray_code
# instead of an InputError.
MAX_BLOCK_QUBITS = 14

# Largest English file accepted, in lines: a file-size budget of about
# 240 MB at the 44 bytes a line of a 14 + 14-qubit file.  The value is what
# an older, looser line bound gave 14 + 14 qubits at the smallest orders, so
# no spec admitted under it is refused.  Each +2 in an order multiplies the
# lines by 5.
MAX_ENGLISH_LINES = 5_470_136

# Largest |g| accepted.  Every rotation angle is -2 g times a product of
# Suzuki coefficients, each at most 1 in magnitude, so angles stay within
# 2^53, past which a double no longer holds every integer and a rotation is
# rounding noise.  Far above it the dense reference overflows: at g = 1e308
# its eigenvalues reach inf and the reported error is nan.
MAX_COUPLING = 2.0 ** 52

# the binary tree always gets this product-formula order
TREE_ORDER = 4


def gray_code(n: int) -> list[int]:
    """Binary-reflected Gray sequence of length 2**n, starting at 0.

    Consecutive entries differ in exactly one bit.
    """
    if n < 1:
        raise ValueError("gray_code needs n >= 1")
    return [i ^ (i >> 1) for i in range(2 ** n)]


@dataclass
class SparseSymmetric:
    """Real symmetric matrix with a zero diagonal, as weighted index pairs.

    Each off-diagonal entry (i, j, w) with i < j stands for both H[i][j]
    and H[j][i].
    """

    dim: int
    off_diagonal: dict[tuple[int, int], float] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, dim: int, edges: list, w: float) -> SparseSymmetric:
        """The matrix with weight w on every edge (i, j) and zeros elsewhere."""
        h = cls(dim)
        for i, j in edges:
            h.set_pair(i, j, w)
        return h

    def set_pair(self, i: int, j: int, w: float) -> None:
        if i == j:
            raise ValueError(f"index pair ({i}, {j}) is on the diagonal, which is zero")
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"index pair ({i}, {j}) out of range for dim {self.dim}")
        key = (min(i, j), max(i, j))
        if key in self.off_diagonal:
            raise ValueError(f"duplicate pair {key}")
        self.off_diagonal[key] = w

    def pairs(self) -> list[tuple[int, int, float]]:
        return [(i, j, w) for (i, j), w in sorted(self.off_diagonal.items())]

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim))
        for (i, j), w in self.off_diagonal.items():
            h[i, j] = h[j, i] = w
        return h

    def embedded(self, dim: int, offset: int = 0) -> "SparseSymmetric":
        """Copy with every index moved up by `offset`, inside a larger matrix."""
        if offset + self.dim > dim:
            raise ValueError("embedding does not fit")
        out = SparseSymmetric(dim)
        for (i, j), w in self.off_diagonal.items():
            out.off_diagonal[(i + offset, j + offset)] = w
        return out

    def __add__(self, other: "SparseSymmetric") -> "SparseSymmetric":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = SparseSymmetric(self.dim, dict(self.off_diagonal))
        for key, w in other.off_diagonal.items():
            out.off_diagonal[key] = out.off_diagonal.get(key, 0.0) + w
        return out


@dataclass
class NandInputs:
    """The boolean inputs of the NAND formula, one per tree leaf."""

    x: list[bool]


@dataclass
class FruitSpec:
    """Complete user input for one compilation run."""

    file_prefix: str
    nb_line: int
    nb_tree: int
    g: float
    door: int
    bands_text: str
    nt_line: int = 1
    r_line: int = 2
    nt_tree: int = 1
    nt_meta: int = 1
    r_meta: int = 2

    def validate(self) -> None:
        if self.nb_line < 1:
            raise InputError("line qubit count must be at least 1")
        if self.nb_tree < 2:
            raise InputError(
                "tree qubit count must be at least 2 (a one-qubit tree has no leaves)"
            )
        for name, value in (("line", self.nb_line), ("tree", self.nb_tree)):
            if value > MAX_BLOCK_QUBITS:
                raise InputError(
                    f"{name} qubit count {value} exceeds {MAX_BLOCK_QUBITS}: larger "
                    "registers take too long and too much memory to compile"
                )
        ns_line = 2 ** self.nb_line
        if not 0 <= self.door <= ns_line - 1:
            raise InputError(
                f"line door must lie in [0, {ns_line - 1}], got {self.door}"
            )
        for name, value in (("line", self.r_line), ("meta", self.r_meta)):
            if value < 2 or value % 2 != 0:
                raise InputError(f"{name} order must be even and positive, got {value}")
        for name, value in (("line", self.nt_line), ("tree", self.nt_tree),
                            ("meta", self.nt_meta)):
            if value < 1:
                raise InputError(f"{name} trot count must be positive, got {value}")
        if not np.isfinite(self.g):
            raise InputError("coupling constant must be finite")
        if abs(self.g) > MAX_COUPLING:
            raise InputError(
                f"coupling constant {self.g:g} exceeds {MAX_COUPLING:g} in magnitude: "
                "larger couplings give rotation angles beyond double precision"
            )
        if self.english_line_bound() > MAX_ENGLISH_LINES:
            raise InputError(
                f"line order {self.r_line} and meta order {self.r_meta} may write "
                f"more than {MAX_ENGLISH_LINES:,} English lines, the most accepted"
            )

    def english_line_bound(self) -> int:
        """Upper bound on the lines of the English file, counted from the
        shapes of the compiler's matching plans without compiling (see
        compilers.english_line_bound)."""
        from .compilers import english_line_bound  # compilers imports this module

        return english_line_bound(self)

    def resolve(self) -> tuple[FruitLayout, NandInputs]:
        """Validate the spec, then build its layout and its NAND inputs."""
        self.validate()
        layout = FruitLayout.from_counts(self.nb_line, self.nb_tree)
        return layout, parse_bands(self.bands_text, layout.ns_lvs)


@dataclass(frozen=True)
class FruitLayout:
    """Derived index geometry of the assembled Hamiltonian.

    Global state indices: the line occupies [0, ns_line); the tree occupies
    [ns_line, ns_line + ns_tree) in heap order with the dud at local 0 and
    the root at local 1; leaf k sits at ns_line + ns_lvs + k and its oracle
    marker state at ns_line + ns_tree + k.
    """

    nb_line: int
    nb_tree: int
    ns_line: int
    ns_tree: int
    ns_lvs: int
    tree_offset: int
    oracle_block_offset: int
    extra_offset: int
    nb_total: int
    ns_total: int

    @classmethod
    def from_counts(cls, nb_line: int, nb_tree: int) -> "FruitLayout":
        ns_line = 2 ** nb_line
        ns_tree = 2 ** nb_tree
        nb_total = num_qubits_required(nb_line, nb_tree)
        return cls(
            nb_line=nb_line,
            nb_tree=nb_tree,
            ns_line=ns_line,
            ns_tree=ns_tree,
            ns_lvs=ns_tree // 2,
            tree_offset=ns_line,
            oracle_block_offset=ns_line + ns_tree // 2,
            extra_offset=ns_line + ns_tree,
            nb_total=nb_total,
            ns_total=2 ** nb_total,
        )

    @property
    def dud_index(self) -> int:
        return self.ns_line

    @property
    def root_index(self) -> int:
        return self.ns_line + 1

    def leaf_index(self, k: int) -> int:
        return self.oracle_block_offset + k

    def extra_index(self, k: int) -> int:
        return self.extra_offset + k


def num_qubits_required(nb_line: int, nb_tree: int) -> int:
    """Smallest N with 2^nb_line + (3/2) 2^nb_tree <= 2^N."""
    if nb_line < 1 or nb_tree < 2:
        raise ValueError("need nb_line >= 1 and nb_tree >= 2")
    need = 2 ** nb_line + 3 * 2 ** (nb_tree - 1)
    return (need - 1).bit_length()


def build_line_hamiltonian(nb_line: int, g: float) -> SparseSymmetric:
    """Weighted incidence matrix of the line graph in Gray order.

    Edge j connects the j-th and (j+1)-th states of the Gray sequence, so
    every edge joins states differing in a single bit.
    """
    return SparseSymmetric.from_edges(2 ** nb_line, line_edges(nb_line), g)


def build_tree_hamiltonian(nb_tree: int, g: float) -> SparseSymmetric:
    """Weighted incidence matrix of a balanced binary tree in heap order.

    Node 0 is the isolated dud; node 1 is the root; children of node j are
    2j and 2j+1.  Leaves are local indices [2^(nb_tree-1), 2^nb_tree).
    """
    if nb_tree < 2:
        raise ValueError("nb_tree must be >= 2")
    return SparseSymmetric.from_edges(2 ** nb_tree, tree_edges(nb_tree), g)


def line_edges(nb_line: int) -> list[tuple[int, int]]:
    """Consecutive pairs of the Gray sequence, in path order."""
    seq = gray_code(nb_line)
    return list(zip(seq, seq[1:]))


def tree_edges(nb_tree: int) -> list[tuple[int, int]]:
    """Parent-child pairs (j, 2j) and (j, 2j+1) in heap order."""
    return [(j, 2 * j + s) for j in range(1, 2 ** (nb_tree - 1)) for s in (0, 1)]


def line_factors(nb_line: int) -> tuple[list, list]:
    """The two product-formula factors of the line, each as its list of
    matchings: the even-indexed edges and the odd-indexed ones, one
    matching each, as alternating edges never share a state."""
    edges = line_edges(nb_line)
    return [edges[0::2]], [edges[1::2]]


def tree_factors(nb_tree: int) -> tuple[list, list]:
    """The two product-formula factors of the tree, each as its list of
    matchings: the edges below even-depth parents and those below odd-depth
    ones, each split into its left-child and its right-child matching."""
    edges = tree_edges(nb_tree)
    return tuple(
        [[(p, c) for p, c in edges
          if (p.bit_length() - 1) % 2 == parity and c % 2 == side]
         for side in (0, 1)]
        for parity in (0, 1)
    )


def tree_label(j: int) -> int:
    """The state of heap node j in the frame the tree block is compiled in:
    2^d | rev_d(j mod 2^d) at depth d = j.bit_length() - 1, where rev_d
    reverses the low d bits, so the path from the root is stored first step
    lowest under the depth's leading one.  An edge from depth d to its right
    child then flips bit d+1 alone, and to its left child bits d and d+1.
    The dud 0 and the root 1 keep their labels, every depth keeps its range
    of states, and labelling twice gives j back."""
    if j < 2:
        return j
    path = format(j, "b")[1:]  # the steps from the root, first step first
    return 1 << len(path) | int(path[::-1], 2)


def glue_edges(layout: FruitLayout, door: int) -> list[tuple[int, int]]:
    """The one pair the glue couples: line node `door` to the tree root."""
    if not 0 <= door < layout.ns_line:
        raise InputError(f"line door must lie in [0, {layout.ns_line - 1}], got {door}")
    return [(door, layout.root_index)]


def oracle_edges(layout: FruitLayout, x: NandInputs) -> list[tuple[int, int]]:
    """Leaf k to its marker state for every set input bit x_k, by leaf."""
    if len(x.x) != layout.ns_lvs:
        raise ValueError(f"expected {layout.ns_lvs} input bits, got {len(x.x)}")
    return [(layout.leaf_index(k), layout.extra_index(k))
            for k, bit in enumerate(x.x) if bit]


# any run of non-digits separates two integers, so "0-3" is 0 and 3
_INT_RE = re.compile(r"\d+")


def parse_bands(bands_text: str, ns_lvs: int) -> NandInputs:
    """Decode band notation "a1,b1 a2,b2 ..." into NAND input bits.

    Integers may be separated by any non-digit symbols.  x_k = 1 iff k lies
    in some closed interval [a_i, b_i].  Bands must be sorted, in range,
    non-decreasing, and separated by at least one unset index.
    """
    values = [int(tok) for tok in _INT_RE.findall(bands_text)]
    if len(values) % 2 != 0:
        raise InputError(
            f"bands must contain an even number of integers, got {len(values)}"
        )
    bands = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    for a, b in bands:
        if b < a:
            raise InputError(f"band ({a}, {b}) is decreasing")
    for (a1, b1), (a2, b2) in zip(bands, bands[1:]):
        gap = a2 - b1
        if gap == 1:
            raise InputError(
                f"bands ({a1}, {b1}) and ({a2}, {b2}) are adjacent and can be merged"
            )
        if gap <= 0:
            raise InputError(f"bands ({a1}, {b1}) and ({a2}, {b2}) overlap")
    if bands and bands[-1][1] > ns_lvs - 1:
        raise InputError(
            f"band endpoint {bands[-1][1]} exceeds the last leaf index {ns_lvs - 1}"
        )
    x = [False] * ns_lvs
    for a, b in bands:
        for k in range(a, b + 1):
            x[k] = True
    return NandInputs(x)


@dataclass
class FruitHamiltonians:
    """All Hamiltonian blocks, each embedded at global indices in dim ns_total."""

    line: SparseSymmetric
    tree: SparseSymmetric
    glue: SparseSymmetric
    ora: SparseSymmetric
    bulk: SparseSymmetric
    corr: SparseSymmetric
    fruit: SparseSymmetric


def assemble_fruit(spec: FruitSpec) -> tuple[FruitLayout, FruitHamiltonians]:
    """Build the layout and every Hamiltonian block from a validated spec.

    The glue couples the line door to the tree root; the oracle couples leaf
    k to its marker state whenever the NAND input x_k is 1.  The full
    Hamiltonian is the entrywise sum of all blocks, padded with zeros up to
    the power-of-two dimension ns_total.
    """
    layout, x = spec.resolve()
    dim = layout.ns_total

    line = build_line_hamiltonian(spec.nb_line, spec.g).embedded(dim)
    tree = build_tree_hamiltonian(spec.nb_tree, spec.g).embedded(
        dim, layout.tree_offset
    )

    glue = SparseSymmetric.from_edges(dim, glue_edges(layout, spec.door), spec.g)
    ora = SparseSymmetric.from_edges(dim, oracle_edges(layout, x), spec.g)

    bulk = line + tree
    corr = glue + ora
    return layout, FruitHamiltonians(
        line=line, tree=tree, glue=glue, ora=ora,
        bulk=bulk, corr=corr, fruit=bulk + corr,
    )
