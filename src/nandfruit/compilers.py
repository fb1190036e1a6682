"""Gate-sequence writers: exact two-state rotations, shift permutations,
product-formula compilers for the line and tree blocks (the tree in a Walsh
frame where each of its two factors is one matching), the Suzuki/Trotter
engine, block embedding via projector padding and state shifting, and the
top-level compiler for the full evolution operator.

Every component realizes its target unitary exactly including global phase:
padding turns global phases into relative ones, so phase-dropping shortcuts
are not allowed anywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .hamiltonian import (
    MAX_ENGLISH_LINES,
    TREE_ORDER,
    FruitLayout,
    FruitSpec,
    InputError,
    NandInputs,
    glue_edges,
    line_edges,
    oracle_edges,
)
from .seo import (
    CompileReport,
    Gate,
    Loop,
    SeoProgram,
    count_elementary_ops,
    count_english_lines,
)


def _rotation_parts(a: int, b: int, num_qubits: int):
    """(pivot, ladder mask, control cube) of the rotation on states a, b.

    The ladder is one CNOT from the pivot (the lowest bit where a and b
    differ) onto each other differing bit, the set bits of the mask; it
    maps a, b to states differing in the pivot alone, where the ROTX acts
    under controls on every other qubit: the cube (care mask, value) of
    those qubits' bits.  Two ladders on one pivot commute, and each is its
    own inverse.
    """
    if a == b:
        raise ValueError("two_state_rotation needs distinct states")
    dim = 2 ** num_qubits
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"states ({a}, {b}) out of range for {num_qubits} qubits")
    diff = a ^ b
    pivot = diff & -diff
    mask = diff ^ pivot
    # image of a after the ladder (other differing bits get absorbed into pivot)
    a_img = a ^ mask if a & pivot else a
    return pivot.bit_length() - 1, mask, ((dim - 1) ^ pivot, a_img & ~pivot)


def _merge_cubes(cubes: set, num_qubits: int) -> list:
    """The disjoint cubes (care mask, value), with every two that differ
    only in one qubit's polarity replaced by their union, qubit by qubit,
    sorted by value.  The union of two disjoint cubes is exact and disjoint
    from the rest.  One pass in ascending qubit order reaches a fixed
    point: were two cubes merged at qubit r to differ only in an earlier
    qubit q, so would their halves, which the pass at q had merged."""
    for q in range(num_qubits):
        bit = 1 << q
        cubes = {(care & ~bit, value & ~bit)
                 if care & bit and (care, value ^ bit) in cubes else (care, value)
                 for care, value in cubes}
    return sorted(cubes, key=lambda cube: (cube[1], cube[0]))


def _ladder(pivot: int, targets: Iterable[int], extra: tuple) -> list:
    """CNOTs from the pivot onto each target, in the order given, each also
    under the controls extra."""
    return [Gate("SIGX", target=j, controls=((pivot, True),) + extra)
            for j in targets]


def _bits(mask: int) -> list[int]:
    """Set bits of mask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


class _Matching:
    """Exact exponential of a disjoint (matching) edge set at weight times
    the time: the constructor builds the plan, per ROTX the CNOTs before
    it, its pivot and its controls, then the CNOTs that undo the last
    ladder; a call at a time t stamps every ROTX with the angle -2 weight
    t, so every call shares the plan's CNOT gates.  The edges are of a
    block on the low block_qubits of the num_qubits register (all of it if
    None), and the body acts on the block where every qubit above it is
    0, as pad_controls would embed it.

    Each edge is a two-state rotation, ladder L, ROTX R, L again.  The
    pairs are disjoint, so the rotations commute and any order is exact.
    Rotations with one (pivot, ladder mask) share the ladder and one ROTX
    per control cube: their cubes merge into their exact union
    (_merge_cubes), and since every ROTX of the plan has one angle and acts
    as exp(i theta X) on each pair its cube covers, a merged ROTX is the
    product of the ones it replaces, phase included.  The groups run sorted
    by (pivot, ladder mask); between two on one pivot only the symmetric
    difference of their ladders is emitted, L1 R1 L1 L2 R2 L2 = L1 R1 (L1 ^
    L2) R2 L2, exact because CNOTs from one control commute and are
    self-inverse.  The ladders and cubes are the block's own; each gate
    then gets an F control on every qubit above the block, which no merge
    can drop.  suzuki fuses the stamps of a _Matching emit_a that meet at
    the seams of its higher orders.
    """

    def __init__(self, edges: list[tuple[int, int]], num_qubits: int,
                 block_qubits: int | None = None, weight: float = 1.0):
        block_qubits = num_qubits if block_qubits is None else block_qubits
        if block_qubits > num_qubits:
            raise ValueError(f"a {block_qubits}-qubit block does not fit a "
                             f"{num_qubits}-qubit register")
        pads = tuple((q, False) for q in range(block_qubits, num_qubits))
        groups: dict[tuple[int, int], set] = {}
        for a, b in edges:
            pivot, mask, cube = _rotation_parts(a, b, block_qubits)
            groups.setdefault((pivot, mask), set()).add(cube)
        self.steps, self.weight = [], weight
        pivot, mask = None, 0
        for (new_pivot, new_mask), cubes in sorted(groups.items()):
            undo, do = mask, new_mask
            if new_pivot == pivot:
                undo, do = mask & ~new_mask, new_mask & ~mask
            cnots = _ladder(pivot, _bits(undo)[::-1], pads)
            pivot, mask = new_pivot, new_mask
            cnots += _ladder(pivot, _bits(do), pads)
            for care, value in _merge_cubes(cubes, block_qubits):
                controls = tuple((q, bool(value >> q & 1))
                                 for q in range(block_qubits) if care >> q & 1)
                self.steps.append((cnots, pivot, controls + pads))
                cnots = []
        self.tail = _ladder(pivot, _bits(mask)[::-1], pads)

    def __call__(self, t: float) -> list:
        angle = -2.0 * (self.weight * t)
        body = []
        for cnots, pivot, controls in self.steps:
            body += cnots
            body.append(Gate("ROTX", target=pivot, angle=angle, controls=controls))
        return body + self.tail


def two_state_rotation(a: int, b: int, theta: float, num_qubits: int) -> SeoProgram:
    """Exact circuit for exp(i*theta*(|a><b| + |b><a|)).

    Identity outside span{|a>, |b>}; on the span it acts as
    [[cos t, i sin t], [i sin t, cos t]].  A CNOT ladder maps a, b to states
    differing in one bit, a single multiply-controlled ROTX(-2*theta) does
    the rotation there, and the ladder is undone: the one-edge _Matching.
    """
    return SeoProgram(num_qubits, _Matching([(a, b)], num_qubits)(theta))


def compile_glue(layout: FruitLayout, door: int, g: float) -> SeoProgram:
    """Exact circuit for the door-to-root coupling exponential."""
    glue = _Matching(glue_edges(layout, door), layout.nb_total)
    return SeoProgram(layout.nb_total, glue(g))


def compile_oracle(layout: FruitLayout, x: NandInputs, g: float) -> SeoProgram:
    """Exact circuit for the oracle exponential.

    One two-state rotation per set input bit, leaf k to its marker state;
    the pairs are disjoint so the product is exact in any order.
    """
    oracle = _Matching(oracle_edges(layout, x), layout.nb_total)
    return SeoProgram(layout.nb_total, oracle(g))


def compile_shift(k: int, num_qubits: int) -> SeoProgram:
    """Exact circuit for the permutation x -> (x + k) mod 2**num_qubits.

    One controlled-NOT cascade per set bit of k (increment by 2**j); the
    individual increments commute.
    """
    if not 0 <= k < 2 ** num_qubits:
        raise ValueError(f"shift {k} out of range for {num_qubits} qubits")
    body = []
    for j in range(num_qubits):
        if not k >> j & 1:
            continue
        for m in range(num_qubits - 1, j - 1, -1):
            controls = tuple((q, True) for q in range(j, m))
            body.append(Gate("SIGX", target=m, controls=controls))
    return SeoProgram(num_qubits, body)


def pad_controls(fragment: SeoProgram, pad_qubits: Iterable[int]) -> SeoProgram:
    """Add an F-polarity control on every pad qubit to every gate.

    The result acts as the original fragment on the subspace where all pad
    qubits are 0 and as the identity elsewhere.
    """
    pads = sorted(set(pad_qubits))
    if not pads:
        return fragment
    extra = tuple((q, False) for q in pads)
    num_qubits = max(fragment.num_qubits, pads[-1] + 1)
    # one rewrite per distinct gate, loop and sub-list, so shared ones stay shared
    return SeoProgram(num_qubits, _rewrite(fragment.body, extra, set(pads), {}))


# Recurses through itself at module level, not as a nested closure: a closure
# that calls itself is a reference cycle, which would keep the rewrite table
# alive until the garbage collector runs.
def _rewrite(item, extra: tuple, pad_set: set, rewritten: dict):
    out = rewritten.get(id(item))
    if out is None:
        if isinstance(item, list):
            out = [_rewrite(sub, extra, pad_set, rewritten) for sub in item]
        elif isinstance(item, Loop):
            out = Loop(item.reps, _rewrite(item.body, extra, pad_set, rewritten))
        else:
            clash = item.qubits() & pad_set
            if clash:
                raise ValueError(f"pad qubits {sorted(clash)} already in use")
            out = item.with_extra_controls(extra)
        rewritten[id(item)] = out
    return out


def _shift_bodies(k: int, num_qubits: int) -> tuple[list, list]:
    """The bodies of shift(-k) and shift(k), which move a block sitting at
    offset 0 into offset k and back out.  shift(-k) is shift(k) reversed,
    exactly, since every gate of it is a self-inverse permutation."""
    out = compile_shift(k, num_qubits).body
    return out[::-1], out


def conjugate_by_shift(fragment: SeoProgram, k: int, num_qubits: int) -> SeoProgram:
    """Relocate a block sitting at offset 0 so it acts at offset k.

    Emits shift(-k), then the fragment, then shift(k); applied to states in
    that order this realizes shift(k) . U . shift(k)^dagger as a matrix,
    which moves the block from offset 0 to offset k.
    """
    if fragment.num_qubits > num_qubits:
        raise ValueError("fragment larger than target register")
    into, out = _shift_bodies(k, num_qubits)
    return SeoProgram(num_qubits, into + fragment.body + out)


def suzuki(order: int, t: float, emit_a: Callable[[float], list],
           emit_b: Callable[[float], list]) -> list:
    """Product-formula approximant of exp((A+B)t), as a program body.

    emit_a(t) and emit_b(t) return bodies realizing the two factors at
    coupling t; for orders above 2 both must be time-symmetric (emitting at
    -t inverts emitting at t).  Order 2 is the symmetric split A(t/2) B(t)
    A(t/2), the one split of the compiler: the meta formula is built from
    it too.  Higher even orders follow the fractal recursion with p = 1/(4
    - 4^(1/(order-1))).  The body is not flattened: each factor and each
    sub-formula is one sub-list, built once, and a repeat is the same list
    again, as in [half, b, half] and [outer, outer, middle, outer, outer].
    So neither an emitted list nor the body may be mutated.

    When emit_a is one matching's exponential (_Matching: line_emitters,
    tree_emitters), the higher orders fuse the two A stamps meeting at each
    seam of the recursion into one, exactly, since a matching's rotations
    commute: A(a) A(b) = A(a + b).  That body is [end, inner, end], where
    inner is the recursion's [outer, both, outer, seam, middle, seam,
    outer, both, outer] over sub-formulas with their end A stamps peeled
    off, both = A(2 h_o) and seam = A(h_o + h_m) at the peeled times h_o and
    h_m.
    """
    if order < 2 or order % 2 != 0:
        raise InputError(f"order must be even, got {order}")
    if order == 2 or not isinstance(emit_a, _Matching):
        return _formula(order, t, emit_a, emit_b, False)[0]
    inner, h = _formula(order, t, emit_a, emit_b, True)
    end = emit_a(h)
    return [end, inner, end]


def _formula(order: int, t: float, emit_a, emit_b, fuse: bool) -> tuple:
    """suzuki's recursion, as (body, None) unfused.  Fused: the body with
    its first and last A stamps peeled off and the two A stamps at each
    seam fused, and the time of the peeled stamps."""
    if order == 2:
        if fuse:  # A(t/2) peeled off both ends
            return emit_b(t), t / 2
        half = emit_a(t / 2)
        return [half, emit_b(t), half], None
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
    outer, h_o = _formula(order - 2, p * t, emit_a, emit_b, fuse)
    middle, h_m = _formula(order - 2, (1.0 - 4.0 * p) * t, emit_a, emit_b, fuse)
    if not fuse:
        return [outer, outer, middle, outer, outer], None
    both, seam = emit_a(2 * h_o), emit_a(h_o + h_m)
    return [outer, both, outer, seam, middle, seam, outer, both, outer], h_o


def trotterize(order: int, emit_a: Callable[[float], list],
               emit_b: Callable[[float], list], g: float, n_trots: int) -> list:
    """The order-`order` formula at g / n_trots, repeated n_trots times via
    a LOOP (Trotter's trick), as a program body."""
    if n_trots < 1:
        raise InputError(f"trot count must be positive, got {n_trots}")
    body = suzuki(order, g / n_trots, emit_a, emit_b)
    return body if n_trots == 1 else [Loop(n_trots, body)]


def line_factors(nb_line: int) -> tuple[list, list]:
    """The two product-formula factors of the line, each one matching: the
    even-indexed edges and the odd-indexed ones, as alternating edges never
    share a state."""
    edges = line_edges(nb_line)
    return edges[0::2], edges[1::2]


def line_emitters(nb_line: int, num_qubits: int) -> tuple:
    """(emit_a, emit_b): the exponentials of the two factors of
    line_factors, for the block on the low nb_line qubits of a num_qubits
    register.  Each factor is one matching of one-bit rotations, and they
    need one ROTX per flipped bit: the even matching flips bit 0 on every
    pair, so it is one ROTX with no control in the block, and the odd one
    flips bit j >= 1 on the pairs whose bits below j read 0...01, one ROTX
    with j controls."""
    return tuple(_Matching(factor, num_qubits, nb_line)
                 for factor in line_factors(nb_line))


def compile_line(
    layout: FruitLayout, g_eff: float, r_line: int, nt_line: int,
    num_qubits: int | None = None,
) -> SeoProgram:
    """Product-formula approximant of the line-block exponential.

    Acts on the nb_line low qubits of a num_qubits register (nb_line if
    None), as pad_controls would embed it; embedding at a global offset is
    done by the caller via conjugate_by_shift.
    """
    num_qubits = layout.nb_line if num_qubits is None else num_qubits
    emitters = line_emitters(layout.nb_line, num_qubits)
    return SeoProgram(num_qubits, trotterize(r_line, *emitters, g_eff, nt_line))


# The tree block is compiled in a Walsh frame: the column reduction of a
# binary tree to weighted paths (Childs, Farhi, Gutmann,
# arXiv:quant-ph/0103020), gate by gate.  A permutation P first puts heap
# node j at depth d on the state tree_label(j) = 2^d | rev_d(j mod 2^d),
# where rev_d reverses the low d bits: there a node's low d bits are its path
# from the root, first step lowest, under the depth's leading one, and the
# two children of a depth-d parent store their step, 0 or 1, at bit d and
# move the leading one to bit d+1.  Then the mixers W apply ROTY(pi/2) to
# every path bit j < k of every depth k >= 1.  W takes two siblings'
# symmetric combination, (|0> + |1>)/sqrt 2 at bit d, to |1> and leaves the
# antisymmetric one uncoupled, while both ends of an edge get the same mixer
# on the parent's path bits.  So the edges below the depth-d parents, the
# heap nodes [2^d, 2^(d+1)), become the pairs (2^d | q, 3 * 2^d | q) for
# q < 2^d: a flip of bit d+1 under bit d set, at weight sqrt 2.  Each of the
# tree's two product-formula factors, the parents at the depths of one
# parity, is then one matching, and the tree formula runs between P + W and
# W^-1 + P.  The Hamiltonian, the layout, the Log and the dense reference
# stay in heap order.

# the weight, times the coupling, of each tree factor's matching in the frame
TREE_FACTOR_WEIGHT = math.sqrt(2)


def tree_label(j: int) -> int:
    """The state P puts heap node j on: 2^d | rev_d(j mod 2^d) at depth
    d = j.bit_length() - 1.  The dud 0 and the root 1 keep their labels,
    every depth keeps its range of states, and labelling twice gives j
    back."""
    if j < 2:
        return j
    path = format(j, "b")[1:]  # the steps from the root, first step first
    return 1 << len(path) | int(path[::-1], 2)


def tree_factors(nb_tree: int) -> tuple[list, list]:
    """The two product-formula factors of the tree in its frame, the edges
    below even-depth parents and those below odd-depth ones: for each
    parent depth d of the parity, the pairs (2^d | q, 3 * 2^d | q), q <
    2^d."""
    return tuple([(1 << d | q, 3 << d | q) for d in range(parity, nb_tree - 1, 2)
                  for q in range(1 << d)]
                 for parity in (0, 1))


def tree_emitters(nb_tree: int, num_qubits: int) -> tuple:
    """(emit_a, emit_b): the exponentials of the two factors of
    tree_factors at TREE_FACTOR_WEIGHT, for the block on the low nb_tree
    qubits of a num_qubits register.  Each needs one ROTX per parent depth
    d of its parity: on bit d+1, under bit d set and every qubit above d+1
    clear."""
    return tuple(_Matching(factor, num_qubits, nb_tree, TREE_FACTOR_WEIGHT)
                 for factor in tree_factors(nb_tree))


def _tree_frame(nb_tree: int, num_qubits: int) -> tuple[list, list]:
    """The gates into the tree's frame, P + W, and back out, W^-1 + P, for
    the block on the low nb_tree qubits of a num_qubits register.  Each
    acts on one depth k >= 1, under the controls qubit k set and every
    qubit above it clear.  P reverses the low k bits as one swap of bits i
    and k-1-i per i < k/2, three CNOTs each; W is one ROTY(pi/2) per bit j
    < k.  The mixers commute with each other, so W^-1 is W with negated
    angles, and P is its own inverse, since its gates are self-inverse
    permutations."""
    perm, mix, unmix = [], [], []
    for k in range(1, nb_tree):
        depth = ((k, True),) + tuple((q, False) for q in range(k + 1, num_qubits))
        for i in range(k // 2):
            there, back = _ladder(i, [k - 1 - i], depth), _ladder(k - 1 - i, [i], depth)
            perm += there + back + there
        for j in range(k):
            mix.append(Gate("ROTY", target=j, angle=math.pi / 2, controls=depth))
            unmix.append(Gate("ROTY", target=j, angle=-math.pi / 2, controls=depth))
    return perm + mix, unmix + perm[::-1]


def _tree_block(nb_tree: int, num_qubits: int,
                nt_tree: int) -> Callable[[float], list]:
    """The tree block's formula at a coupling, as [in, formula, out]: the
    order-TREE_ORDER formula over tree_emitters, repeated nt_tree times,
    between the gates into the frame and back (_tree_frame).  The emitters
    and the frame are built once, here, and every coupling shares them."""
    emitters = tree_emitters(nb_tree, num_qubits)
    into, out = _tree_frame(nb_tree, num_qubits)
    return lambda t: [into, trotterize(TREE_ORDER, *emitters, t, nt_tree), out]


def compile_tree(
    layout: FruitLayout, g_eff: float, nt_tree: int, num_qubits: int | None = None
) -> SeoProgram:
    """Order-4 product-formula approximant of the tree-block exponential,
    compiled in the tree's frame (_tree_block).

    Acts on the nb_tree low qubits in heap indexing (dud at state 0) of a
    num_qubits register (nb_tree if None), as pad_controls would embed it.
    """
    num_qubits = layout.nb_tree if num_qubits is None else num_qubits
    tree = _tree_block(layout.nb_tree, num_qubits, nt_tree)
    return SeoProgram(num_qubits, tree(g_eff))


def compile_fruit(spec: FruitSpec) -> tuple[SeoProgram, CompileReport]:
    """Compile the full evolution operator into one gate program.

    The bulk factor embeds the line block at offset 0 and the tree block,
    compiled in its frame, at offset ns_line (projector padding plus state
    shifting); the corrections factor is the exact glue and oracle
    rotations in global indices.  The two factors feed a meta product
    formula of order r_meta, repeated nt_meta times via Trotter's trick.
    Every product formula is built from suzuki's one symmetric split.

    Each piece is built once per call: the line emitters, the tree block
    (its emitters and frame), the shift bodies into and out of the tree
    offset, and the glue and oracle matchings, so each of the six
    matchings' plans, embedding included, is built once per compile; a
    factor at a time only stamps angles onto them.  Repeated factors and
    half steps are shared by the product-formula recursion, which builds
    each sub-formula once, so the program holds the same Gate, Loop and
    list objects in many places; treat it as immutable.  Since factors stay
    sub-lists spliced in place (see SeoProgram), the program does not
    compare equal to the flat one parse_english reads back from its English
    file, though both write the same file and have the same unitary.

    A spec whose English file would pass MAX_ENGLISH_LINES lines, counted
    from the program, raises an InputError; FruitSpec.validate has already
    refused the orders too large to compile.
    """
    layout, x = spec.resolve()
    nb_total = layout.nb_total
    line = line_emitters(layout.nb_line, nb_total)
    tree = _tree_block(layout.nb_tree, nb_total, spec.nt_tree)
    shift_in, shift_out = _shift_bodies(layout.tree_offset, nb_total)
    glue = _Matching(glue_edges(layout, spec.door), nb_total)
    oracle = _Matching(oracle_edges(layout, x), nb_total)

    def bulk(t: float) -> list:
        return [trotterize(spec.r_line, *line, t, spec.nt_line), shift_in, tree(t),
                shift_out]

    def corr(t: float) -> list:
        return glue(t) + oracle(t)

    body = trotterize(spec.r_meta, bulk, corr, spec.g, spec.nt_meta)
    program = SeoProgram(nb_total, body)
    lines = count_english_lines(program)
    if lines > MAX_ENGLISH_LINES:
        raise InputError(
            f"line order {spec.r_line} and meta order {spec.r_meta} write "
            f"{lines:,} English lines, more than the {MAX_ENGLISH_LINES:,} accepted"
        )
    program.validate()
    return program, CompileReport(nb_total, count_elementary_ops(program))
