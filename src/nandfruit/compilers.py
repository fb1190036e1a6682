"""Gate-sequence writers: exact two-state rotations, shift permutations,
product-formula compilers for the line and tree blocks, the Suzuki/Trotter
engine, block embedding via projector padding and state shifting, and the
top-level compiler for the full evolution operator.

Every component realizes its target unitary exactly including global phase:
padding turns global phases into relative ones, so phase-dropping shortcuts
are not allowed anywhere.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from .hamiltonian import (
    TREE_ORDER,
    FruitLayout,
    FruitSpec,
    InputError,
    NandInputs,
    glue_edges,
    line_factors,
    oracle_edges,
    parse_bands,
    tree_factors,
    tree_label,
)
from .seo import CompileReport, Gate, Loop, SeoProgram, count_elementary_ops


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


def two_state_rotation(a: int, b: int, theta: float, num_qubits: int) -> SeoProgram:
    """Exact circuit for exp(i*theta*(|a><b| + |b><a|)).

    Identity outside span{|a>, |b>}; on the span it acts as
    [[cos t, i sin t], [i sin t, cos t]].  A CNOT ladder maps a, b to states
    differing in one bit, a single multiply-controlled ROTX(-2*theta) does
    the rotation there, and the ladder is undone: the plan of the one-edge
    matching.
    """
    plan = _matching_plan([(a, b)], num_qubits)
    return SeoProgram(num_qubits, _at_time(plan, theta))


def compile_glue(layout: FruitLayout, door: int, g: float) -> SeoProgram:
    """Exact circuit for the door-to-root coupling exponential."""
    plan = _matching_plan(glue_edges(layout, door), layout.nb_total)
    return SeoProgram(layout.nb_total, _at_time(plan, g))


def compile_oracle(layout: FruitLayout, x: NandInputs, g: float) -> SeoProgram:
    """Exact circuit for the oracle exponential.

    One two-state rotation per set input bit, leaf k to its marker state;
    the pairs are disjoint so the product is exact in any order.
    """
    plan = _matching_plan(oracle_edges(layout, x), layout.nb_total)
    return SeoProgram(layout.nb_total, _at_time(plan, g))


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
    A(t/2), the one split of the compiler: the matching chains of the
    emitters and the meta formula are built from it too.  Higher even
    orders follow the fractal recursion with p = 1/(4 - 4^(1/(order-1))).
    The body is not flattened: each factor and each sub-formula is one
    sub-list, built once, and a repeat is the same list again, as in
    [half, b, half] and [outer, outer, middle, outer, outer].  So neither an
    emitted list nor the body may be mutated.

    When emit_a is a matching chain (line_emitters, tree_emitters), whose
    first matching, its edge, begins and ends it, the higher orders fuse
    the two edge stamps meeting at each seam of the recursion into one,
    exactly, since a matching's rotations commute: edge(a) edge(b) =
    edge(a + b).  That body is [edge, inner, edge], where inner is the
    recursion's [outer, both, outer, seam, middle, seam, outer, both, outer]
    over sub-formulas with their end edge stamps peeled off, both = edge(2
    h_o) and seam = edge(h_o + h_m) at the peeled edge times h_o and h_m.
    """
    if order < 2 or order % 2 != 0:
        raise InputError(f"order must be even, got {order}")
    if order == 2 or not isinstance(emit_a, _MatchingChain):
        return _formula(order, t, emit_a, emit_b, None)[0]
    inner, end, edge = _formula(order, t, emit_a, emit_b, emit_a)
    if edge is None:
        edge = _at_time(emit_a.edge, end)
    return [edge, inner, edge]


def _formula(order: int, t: float, emit_a, emit_b, chain) -> tuple:
    """suzuki's recursion, as (body, None, None) with chain None.  With chain
    emit_a: the body with its first and last edge stamps peeled off and the
    two edge stamps at each seam fused, the time of the peeled stamps, and
    the peeled stamp if the body holds one too (else None)."""
    if order == 2:
        if chain is None:
            half = emit_a(t / 2)
            return [half, emit_b(t), half], None, None
        if chain.core is None:  # A(t/2) is edge(t/2) alone
            return emit_b(t), t / 2, None
        core, edge = chain.core(t / 2), _at_time(chain.edge, t / 4)
        return [core, edge, emit_b(t), edge, core], t / 4, edge
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
    outer, h_o, edge = _formula(order - 2, p * t, emit_a, emit_b, chain)
    middle, h_m, _ = _formula(order - 2, (1.0 - 4.0 * p) * t, emit_a, emit_b, chain)
    if chain is None:
        return [outer, outer, middle, outer, outer], None, None
    both, seam = _at_time(chain.edge, 2 * h_o), _at_time(chain.edge, h_o + h_m)
    return [outer, both, outer, seam, middle, seam, outer, both, outer], h_o, edge


def trotterize(order: int, emit_a: Callable[[float], list],
               emit_b: Callable[[float], list], g: float, n_trots: int) -> list:
    """The order-`order` formula at g / n_trots, repeated n_trots times via
    a LOOP (Trotter's trick), as a program body."""
    if n_trots < 1:
        raise InputError(f"trot count must be positive, got {n_trots}")
    body = suzuki(order, g / n_trots, emit_a, emit_b)
    return body if n_trots == 1 else [Loop(n_trots, body)]


def _plan_shape(edges: list[tuple[int, int]], num_qubits: int) -> tuple[list, tuple]:
    """A matching plan as integers, before its gates are made: per (pivot,
    ladder mask) group in order, the (control, targets) of the CNOTs that
    undo the ladder before it, its pivot, the targets of its own ladder and
    its merged control cubes; then the (control, targets) of the CNOTs that
    undo the last ladder.  _matching_plan makes its gates and
    english_line_bound counts them."""
    groups: dict[tuple[int, int], set] = {}
    for a, b in edges:
        pivot, mask, cube = _rotation_parts(a, b, num_qubits)
        groups.setdefault((pivot, mask), set()).add(cube)
    steps = []
    pivot, mask = None, 0
    for (new_pivot, new_mask), cubes in sorted(groups.items()):
        undo, do = mask, new_mask
        if new_pivot == pivot:
            undo, do = mask & ~new_mask, new_mask & ~mask
        steps.append(((pivot, _bits(undo)[::-1]), new_pivot, _bits(do),
                      _merge_cubes(cubes, num_qubits)))
        pivot, mask = new_pivot, new_mask
    return steps, (pivot, _bits(mask)[::-1])


def _matching_plan(
    edges: list[tuple[int, int]], num_qubits: int, block_qubits: int | None = None
) -> tuple[list, list]:
    """Exact exponential of a disjoint (matching) edge set, as a plan that
    _at_time stamps with the angles of one time: per ROTX, the CNOTs before
    it, its pivot and its controls; then the CNOTs that undo the last
    ladder.  The edges are of a block on the low block_qubits of the
    num_qubits register (all of it if None), and the plan acts on the block
    where every qubit above it is 0, as pad_controls would embed it.

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
    self-inverse.  The shape of the plan (_plan_shape) is the block's own;
    each gate then gets an F control on every qubit above the block, which
    no merge can drop.  compile_fruit builds one plan per matching per
    compile, so its CNOT gates are shared by every time.
    """
    if block_qubits is None:
        block_qubits = num_qubits
    if block_qubits > num_qubits:
        raise ValueError(f"a {block_qubits}-qubit block does not fit a "
                         f"{num_qubits}-qubit register")
    pads = tuple((q, False) for q in range(block_qubits, num_qubits))
    shape, (last, tail) = _plan_shape(edges, block_qubits)
    steps = []
    for (before, undo), pivot, do, cubes in shape:
        cnots = _ladder(before, undo, pads) + _ladder(pivot, do, pads)
        for care, value in cubes:
            controls = tuple((q, bool(value >> q & 1))
                             for q in range(block_qubits) if care >> q & 1)
            steps.append((cnots, pivot, controls + pads))
            cnots = []
    return steps, _ladder(last, tail, pads)


def _at_time(plan: tuple[list, list], theta: float) -> list:
    """The gates of a matching plan with every ROTX at angle -2*theta."""
    steps, tail = plan
    body = []
    for cnots, pivot, controls in steps:
        body += cnots
        body.append(Gate("ROTX", target=pivot, angle=-2.0 * theta, controls=controls))
    return body + tail


class _MatchingChain:
    """Emitter of the time-symmetric chain over one or more matchings.

    One matching emits its exact exponential edge(t); more emit the order-2
    split of the first and the chain of the rest, edge(t/2) core(t)
    edge(t/2), so each half step is one shared list.  edge is the first
    matching's plan, built once per compile; emitting at a time only stamps
    the angles.  suzuki reads edge and core to fuse the edge stamps that
    meet at the seams of its higher orders.
    """

    def __init__(self, plans: list):
        self.edge = plans[0]
        self.core = _MatchingChain(plans[1:]) if len(plans) > 1 else None

    def __call__(self, t: float) -> list:
        if self.core is None:
            return _at_time(self.edge, t)
        return suzuki(2, t, partial(_at_time, self.edge), self.core)


def _chain(matchings: list, num_qubits: int,
           block_qubits: int) -> Callable[[float], list]:
    """Emitter of the chain over the nonempty matchings; none emit nothing."""
    plans = [_matching_plan(edges, num_qubits, block_qubits)
             for edges in matchings if edges]
    return _MatchingChain(plans) if plans else lambda t: []


def _framed_tree_factors(nb_tree: int) -> list:
    """tree_factors with every node mapped through tree_label."""
    return [[[(tree_label(p), tree_label(c)) for p, c in edges] for edges in factor]
            for factor in tree_factors(nb_tree)]


def line_emitters(nb_line: int, num_qubits: int) -> tuple:
    """(emit_a, emit_b): the chains over the two factors of line_factors,
    for the block on the low nb_line qubits of a num_qubits register.  Each
    factor is one matching of one-bit rotations, and they need one ROTX per
    flipped bit: the even matching flips bit 0 on every pair, so it is one
    ROTX with no control in the block, and the odd one flips bit j >= 1 on
    the pairs whose bits below j read 0...01, one ROTX with j controls."""
    return tuple(_chain(factor, num_qubits, nb_line)
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


def tree_emitters(nb_tree: int, num_qubits: int) -> tuple:
    """(emit_a, emit_b): the chains over the two factors of tree_factors in
    the frame of tree_label, for the block on the low nb_tree qubits of a
    num_qubits register.  In that frame the edges of one depth and side
    form one control cube, so a right-child matching is one ROTX per depth
    and a left-child one adds a ladder of one CNOT per depth.  A chain stays
    time-symmetric, all the higher-order recursion needs."""
    return tuple(_chain(factor, num_qubits, nb_tree)
                 for factor in _framed_tree_factors(nb_tree))


def _tree_frame(nb_tree: int, num_qubits: int) -> list:
    """The permutation from heap order into the frame of tree_label, for the
    block on the low nb_tree qubits of a num_qubits register; it is its own
    inverse, so it also maps back.  At each depth d >= 2 it reverses the low
    d bits, as one swap of bits i and d-1-i per i < d/2, three CNOTs each,
    under the controls qubit d set and every qubit above it clear."""
    body = []
    for d in range(2, nb_tree):
        depth = ((d, True),) + tuple((q, False) for q in range(d + 1, num_qubits))
        for i in range(d // 2):
            there, back = _ladder(i, [d - 1 - i], depth), _ladder(d - 1 - i, [i], depth)
            body += there + back + there
    return body


def compile_tree(
    layout: FruitLayout, g_eff: float, nt_tree: int, num_qubits: int | None = None
) -> SeoProgram:
    """Order-4 product-formula approximant of the tree-block exponential.

    Acts on the nb_tree low qubits in heap indexing (dud at state 0) of a
    num_qubits register (nb_tree if None), as pad_controls would embed it.
    Inside, the formula runs in the frame of tree_label, between two copies
    of the permutation into that frame and back.
    """
    num_qubits = layout.nb_tree if num_qubits is None else num_qubits
    emitters = tree_emitters(layout.nb_tree, num_qubits)
    frame = _tree_frame(layout.nb_tree, num_qubits)
    return SeoProgram(num_qubits, frame + trotterize(TREE_ORDER, *emitters, g_eff,
                                                     nt_tree) + frame)


def english_line_bound(spec: FruitSpec) -> int:
    """Upper bound on the lines of the English file of a spec whose fields
    are valid, counted from the shapes of its matching plans without
    compiling.

    An order-r formula over factors A and B writes at most 5^(r/2-1) (2
    lines(A) + lines(B)) lines, its LOOP 2 more.  Each matching counts the
    gates of its plan, whose shape is the block's own (the F controls above
    a block add no gate); the shifts and the two copies of the permutation
    into the tree's frame count their gates.  It is an upper bound because
    the line and tree formulas are counted unfused, though at orders >= 4
    the two stamps of A's first matching meeting at each seam are written
    as one.
    """
    layout = FruitLayout.from_counts(spec.nb_line, spec.nb_tree)
    x = parse_bands(spec.bands_text, layout.ns_lvs)
    n = layout.nb_total

    def formula(order, a2b, trots):  # capped: 5**20 lines fail anyway
        return 5 ** min(order // 2 - 1, 20) * a2b + 2 * (trots > 1)

    def gates(edges, block_qubits):  # of the matching's plan at one time
        steps, (_, tail) = _plan_shape(edges, block_qubits)
        return sum(len(undo) + len(do) + len(cubes)
                   for (_, undo), _, do, cubes in steps) + len(tail)

    def lines(factor, block_qubits):  # a chain writes every matching but its last twice
        counts = [gates(edges, block_qubits) for edges in factor]
        return 2 * sum(counts) - counts[-1]

    def a2b(factors, block_qubits):
        a, b = factors
        return 2 * lines(a, block_qubits) + lines(b, block_qubits)

    line = formula(spec.r_line, a2b(line_factors(spec.nb_line), spec.nb_line),
                   spec.nt_line)
    into, _ = _shift_bodies(layout.tree_offset, n)
    tree = (formula(TREE_ORDER, a2b(_framed_tree_factors(spec.nb_tree), spec.nb_tree),
                    spec.nt_tree)
            + 2 * (len(into) + len(_tree_frame(spec.nb_tree, spec.nb_tree))))
    corr = gates(glue_edges(layout, spec.door), n) + gates(oracle_edges(layout, x), n)
    return 1 + formula(spec.r_meta, 2 * (line + tree) + corr, spec.nt_meta)


def compile_fruit(spec: FruitSpec) -> tuple[SeoProgram, CompileReport]:
    """Compile the full evolution operator into one gate program.

    The bulk factor embeds the line block at offset 0 and the tree block at
    offset ns_line (projector padding plus state shifting); the corrections
    factor is the exact glue and oracle rotations in global indices.  The
    two factors feed a meta product formula of order r_meta, repeated
    nt_meta times via Trotter's trick.  Every product formula, the matching
    chains of the tree factors included, is built from suzuki's one
    symmetric split.

    Each piece is built once per call: the line and tree emitters (so each
    matching's plan, embedding included, is built once per compile), the
    shift bodies into and out of the tree offset, each joined with the
    permutation into and out of the tree's frame, and the glue and oracle
    plans; a factor at a time only stamps angles onto them.  Repeated
    factors and half steps are shared by the product-formula recursion,
    which builds each sub-formula once, so the program holds the same Gate,
    Loop and list objects in many places; treat it as immutable.  Since
    factors stay sub-lists spliced in place (see SeoProgram), the program
    does not compare equal to the flat one parse_english reads back from
    its English file, though both write the same file and have the same
    unitary.
    """
    layout, x = spec.resolve()
    nb_total = layout.nb_total
    line = line_emitters(layout.nb_line, nb_total)
    tree = tree_emitters(layout.nb_tree, nb_total)
    into, out = _shift_bodies(layout.tree_offset, nb_total)
    frame = _tree_frame(layout.nb_tree, nb_total)
    shift_in, shift_out = into + frame, frame + out
    glue = _matching_plan(glue_edges(layout, spec.door), nb_total)
    oracle = _matching_plan(oracle_edges(layout, x), nb_total)

    def bulk(t: float) -> list:
        return (trotterize(spec.r_line, *line, t, spec.nt_line) + shift_in
                + trotterize(TREE_ORDER, *tree, t, spec.nt_tree) + shift_out)

    def corr(t: float) -> list:
        return _at_time(glue, t) + _at_time(oracle, t)

    body = trotterize(spec.r_meta, bulk, corr, spec.g, spec.nt_meta)
    program = SeoProgram(nb_total, body)
    program.validate()
    return program, CompileReport(nb_total, count_elementary_ops(program))
