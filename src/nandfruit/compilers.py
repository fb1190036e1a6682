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
    line_edges,
    oracle_edges,
    tree_edges,
)
from .seo import CompileReport, Gate, Loop, SeoProgram, count_elementary_ops


def _rotation_parts(a: int, b: int, num_qubits: int):
    """(pivot, ladder mask, ROTX controls) of the rotation on states a, b.

    The ladder is one CNOT from the pivot (the lowest bit where a and b
    differ) onto each other differing bit, the set bits of the mask; it
    maps a, b to states differing in the pivot alone, where the ROTX acts
    under controls on every other qubit.  Two ladders on one pivot commute,
    and each is its own inverse.
    """
    if a == b:
        raise ValueError("two_state_rotation needs distinct states")
    dim = 2 ** num_qubits
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"states ({a}, {b}) out of range for {num_qubits} qubits")
    diff = a ^ b
    pivot = (diff & -diff).bit_length() - 1
    mask = diff ^ (1 << pivot)
    # image of a after the ladder (other differing bits get absorbed into pivot)
    a_img = a ^ mask if a >> pivot & 1 else a
    controls = tuple(
        (q, bool(a_img >> q & 1)) for q in range(num_qubits) if q != pivot
    )
    return pivot, mask, controls


def _ladder(pivot: int, targets: Iterable[int], extra: tuple = ()) -> list:
    """CNOTs from the pivot onto each target, in the order given."""
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
    the rotation there, and the ladder is undone.  It is the one-edge
    matching of _rotations, the only rotation builder.  compile_fruit does
    not call it: it builds each matching's plan once per compile, and its
    repeated factors share gates through the product-formula recursion.
    """
    return SeoProgram(num_qubits, _rotations([(a, b)], theta, num_qubits))


def compile_glue(layout: FruitLayout, door: int, g: float) -> SeoProgram:
    """Exact circuit for the door-to-root coupling exponential."""
    return SeoProgram(layout.nb_total,
                      _rotations(glue_edges(layout, door), g, layout.nb_total))


def compile_oracle(layout: FruitLayout, x: NandInputs, g: float) -> SeoProgram:
    """Exact circuit for the oracle exponential.

    One two-state rotation per set input bit, leaf k to its marker state;
    the pairs are disjoint so the product is exact in any order.
    """
    return SeoProgram(layout.nb_total,
                      _rotations(oracle_edges(layout, x), g, layout.nb_total))


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
    offset 0 into offset k and back out."""
    out = compile_shift(k, num_qubits).body  # first, to check k is in range
    return compile_shift(-k % 2 ** num_qubits, num_qubits).body, out


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


def _gray_rank(code: int) -> int:
    """Position of code in the reflected Gray sequence (inverse Gray code)."""
    rank = 0
    while code:
        rank ^= code
        code >>= 1
    return rank


def _rotations(
    edges: list[tuple[int, int]], theta: float, num_qubits: int, extra: tuple = ()
) -> list:
    """Exact exponential of a disjoint (matching) edge set.

    Each edge is a two-state rotation, ladder L, ROTX R, L again.  The
    pairs are disjoint, so the rotations commute and any order is exact.
    They run sorted by (pivot, Gray rank of the ladder mask, lower state);
    between two rotations on one pivot only the symmetric difference of
    their ladders is emitted, L1 R1 L1 L2 R2 L2 = L1 R1 (L1 ^ L2) R2 L2,
    exact because CNOTs from one control commute and are self-inverse.
    Gray order makes neighbouring ladders differ in few CNOTs.  The last
    ladder is undone at the end.  extra is appended to every gate's
    controls (the F controls of pad qubits above num_qubits).

    This is the one rotation builder, for one time; compile_fruit instead
    builds each matching's plan once per compile and stamps every time's
    angles onto it with _at_time.  Repeats share their gates because the
    product-formula recursion builds each sub-formula once.
    """
    return _at_time(_matching_plan(edges, num_qubits, extra), theta)


def _matching_plan(
    edges: list[tuple[int, int]], num_qubits: int, extra: tuple = ()
) -> tuple[list, list]:
    """The part of _rotations that does not depend on theta: per rotation,
    the CNOTs before it, its pivot and its controls; then the CNOTs that
    undo the last ladder.  compile_fruit builds it once per matching per
    compile, so its CNOT gates are shared by every time."""
    rots = sorted(
        ((_rotation_parts(min(a, b), max(a, b), num_qubits), min(a, b))
         for a, b in edges),
        key=lambda r: (r[0][0], _gray_rank(r[0][1]), r[1]),
    )
    steps = []
    pivot, mask = None, 0
    for (new_pivot, new_mask, controls), _ in rots:
        undo, do = mask, new_mask
        if new_pivot == pivot:
            undo, do = mask & ~new_mask, new_mask & ~mask
        cnots = (_ladder(pivot, _bits(undo)[::-1], extra)
                 + _ladder(new_pivot, _bits(do), extra))
        steps.append((cnots, new_pivot, controls + extra))
        pivot, mask = new_pivot, new_mask
    return steps, _ladder(pivot, _bits(mask)[::-1], extra)


def _at_time(plan: tuple[list, list], theta: float) -> list:
    """The gates of a matching plan with every ROTX at angle -2*theta."""
    steps, tail = plan
    body = []
    for cnots, pivot, controls in steps:
        body += cnots
        body.append(Gate("ROTX", target=pivot, angle=-2.0 * theta, controls=controls))
    return body + tail


def _pad_extra(num_qubits: int, pads: Iterable[int]) -> tuple:
    """The F controls on pad qubits above a block, as pad_controls would add."""
    pads = sorted(set(pads))
    if pads and pads[0] < num_qubits:
        raise ValueError(f"pad qubits {[q for q in pads if q < num_qubits]} "
                         "already in use")
    return tuple((q, False) for q in pads)


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


def _chain(matchings: list, num_qubits: int, extra: tuple) -> Callable[[float], list]:
    """Emitter of the chain over the nonempty matchings; none emit nothing."""
    plans = [_matching_plan(edges, num_qubits, extra) for edges in matchings if edges]
    return _MatchingChain(plans) if plans else lambda t: []


def line_emitters(nb_line: int, pads: Iterable[int] = ()) -> tuple:
    """(emit_a, emit_b): the even/odd split of the Gray-order line edges.

    Alternating edges never share a node, so each factor is one matching,
    an exact product of one-bit two-state rotations (single
    multiply-controlled ROTX each).  Every gate has an F control on each
    pad qubit above the block.
    """
    extra = _pad_extra(nb_line, pads)
    edges = line_edges(nb_line)
    return _chain([edges[0::2]], nb_line, extra), _chain([edges[1::2]], nb_line, extra)


def compile_line(
    layout: FruitLayout, g_eff: float, r_line: int, nt_line: int,
    pads: Iterable[int] = (),
) -> SeoProgram:
    """Product-formula approximant of the line-block exponential.

    Acts on the nb_line low qubits, each gate with an F control on every
    pad qubit, as pad_controls would add; embedding at a global offset is
    done by the caller via conjugate_by_shift.
    """
    pads = set(pads)
    body = trotterize(r_line, *line_emitters(layout.nb_line, pads), g_eff, nt_line)
    return SeoProgram(max(pads, default=layout.nb_line - 1) + 1, body)


def tree_emitters(nb_tree: int, pads: Iterable[int] = ()) -> tuple:
    """(emit_a, emit_b): tree edges split by parent depth parity.

    Edges sharing a parent land in the same depth class, so each class is
    further split into left-child and right-child matchings and emitted as
    their chain, which stays time-symmetric, all the higher-order recursion
    needs.  Every gate has an F control on each pad qubit above the block.
    """
    extra = _pad_extra(nb_tree, pads)
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for parent, child in tree_edges(nb_tree):
        depth = parent.bit_length() - 1
        key = (depth % 2, child % 2)
        classes.setdefault(key, []).append((parent, child))
    return tuple(
        _chain([classes.get((parity, side), []) for side in (0, 1)], nb_tree, extra)
        for parity in (0, 1)
    )


def compile_tree(
    layout: FruitLayout, g_eff: float, nt_tree: int, pads: Iterable[int] = ()
) -> SeoProgram:
    """Order-4 product-formula approximant of the tree-block exponential.

    Acts on the nb_tree low qubits in heap indexing (dud at state 0), each
    gate with an F control on every pad qubit, as pad_controls would add.
    """
    pads = set(pads)
    body = trotterize(TREE_ORDER, *tree_emitters(layout.nb_tree, pads), g_eff, nt_tree)
    return SeoProgram(max(pads, default=layout.nb_tree - 1) + 1, body)


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
    matching's plan, pad controls included, is built once per compile), the
    shift bodies into and out of the tree offset, and the glue and oracle
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
    line = line_emitters(layout.nb_line, range(layout.nb_line, nb_total))
    tree = tree_emitters(layout.nb_tree, range(layout.nb_tree, nb_total))
    shift_in, shift_out = _shift_bodies(layout.tree_offset, nb_total)
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
