"""Gate-sequence writers: exact two-state rotations, shift permutations,
product-formula compilers for the line and tree blocks, the Suzuki/Trotter
engine, block embedding via projector padding and state shifting, and the
top-level compiler for the full evolution operator.

Every component realizes its target unitary exactly including global phase:
padding turns global phases into relative ones, so phase-dropping shortcuts
are not allowed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def two_state_rotation(a: int, b: int, theta: float, num_qubits: int) -> SeoProgram:
    """Exact circuit for exp(i*theta*(|a><b| + |b><a|)).

    Identity outside span{|a>, |b>}; on the span it acts as
    [[cos t, i sin t], [i sin t, cos t]].  A CNOT ladder maps a, b to states
    differing in one bit, a single multiply-controlled ROTX(-2*theta) does
    the rotation there, and the ladder is undone.
    """
    if a == b:
        raise ValueError("two_state_rotation needs distinct states")
    dim = 2 ** num_qubits
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"states ({a}, {b}) out of range for {num_qubits} qubits")
    diff = a ^ b
    pivot = (diff & -diff).bit_length() - 1
    ladder = [
        Gate("SIGX", target=j, controls=((pivot, True),))
        for j in range(num_qubits)
        if diff >> j & 1 and j != pivot
    ]
    # image of a after the ladder (other differing bits get absorbed into pivot)
    a_img = a ^ (diff ^ (1 << pivot)) if a >> pivot & 1 else a
    controls = tuple(
        (q, bool(a_img >> q & 1)) for q in range(num_qubits) if q != pivot
    )
    rot = Gate("ROTX", target=pivot, angle=-2.0 * theta, controls=controls)
    return SeoProgram(num_qubits, ladder + [rot] + ladder[::-1])


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
    pad_set = set(pads)
    extra = tuple((q, False) for q in pads)
    # one rewrite per distinct gate, loop and sub-list, so shared ones stay shared
    rewritten: dict[int, object] = {}

    def rewrite(item):
        out = rewritten.get(id(item))
        if out is None:
            if isinstance(item, list):
                out = [rewrite(sub) for sub in item]
            elif isinstance(item, Loop):
                out = Loop(item.reps, rewrite(item.body))
            else:
                clash = item.qubits() & pad_set
                if clash:
                    raise ValueError(f"pad qubits {sorted(clash)} already in use")
                out = item.with_extra_controls(extra)
            rewritten[id(item)] = out
        return out

    num_qubits = max(fragment.num_qubits, pads[-1] + 1)
    return SeoProgram(num_qubits, rewrite(fragment.body))


def conjugate_by_shift(fragment: SeoProgram, k: int, num_qubits: int) -> SeoProgram:
    """Relocate a block sitting at offset 0 so it acts at offset k.

    Emits shift(-k), then the fragment, then shift(k); applied to states in
    that order this realizes shift(k) . U . shift(k)^dagger as a matrix,
    which moves the block from offset 0 to offset k.
    """
    dim = 2 ** num_qubits
    if not 0 <= k < dim:
        raise ValueError(f"shift {k} out of range for {num_qubits} qubits")
    if fragment.num_qubits > num_qubits:
        raise ValueError("fragment larger than target register")
    fwd = compile_shift(k, num_qubits)
    back = compile_shift((dim - k) % dim, num_qubits)
    return SeoProgram(num_qubits, back.body + fragment.body + fwd.body)


def _per_time(emit: Callable[[float], list]) -> Callable[[float], list]:
    """emit, evaluated once per distinct time and shared afterwards.

    Keyed on the exact bits of t: 0.0 == -0.0, but the two render
    differently (an order >= 4 formula at zero coupling has both).  The
    cache lives as long as the returned function, which every compile call
    makes afresh.
    """
    bodies: dict[str, list] = {}

    def memo(t: float) -> list:
        key = float(t).hex()
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = emit(t)
        return body

    return memo


@dataclass
class SuzukiEmitters:
    """The two exponential factors a product formula alternates between.

    emit_a(t) and emit_b(t) return program bodies (lists of items) realizing
    the respective factor at coupling t.  Both must be time-symmetric
    (emitter(-t) inverts emitter(t)) for orders above 2 to hold.  An emitter
    may return the same list for equal times; callers must not mutate it.
    """

    num_qubits: int
    emit_a: Callable[[float], list]
    emit_b: Callable[[float], list]


def _suzuki_body(order: int, t: float, em: SuzukiEmitters) -> list:
    """The formula as sub-lists spliced in place; repeats are one list."""
    if order == 2:
        half = em.emit_a(t / 2)
        return [half, em.emit_b(t), half]
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (order - 1)))
    outer = _suzuki_body(order - 2, p * t, em)
    middle = _suzuki_body(order - 2, (1.0 - 4.0 * p) * t, em)
    return [outer, outer, middle, outer, outer]


def suzuki(order: int, t: float, em: SuzukiEmitters) -> SeoProgram:
    """Product-formula approximant of exp((A+B)t) from the two emitters.

    Order 2 is the symmetric split A(t/2) B(t) A(t/2); higher even orders
    follow the fractal recursion with p = 1/(4 - 4^(1/(order-1))).  The body
    is not flattened: each factor and each sub-formula is one sub-list, and
    a repeat is the same list again, as in [outer, outer, middle, outer,
    outer].
    """
    if order < 2 or order % 2 != 0:
        raise InputError(f"order must be even, got {order}")
    return SeoProgram(em.num_qubits, _suzuki_body(order, t, em))


def trotterize(
    builder: Callable[[float], SeoProgram], g: float, n_trots: int
) -> SeoProgram:
    """Raise a scaled approximant to the n_trots-th power via a LOOP."""
    if n_trots < 1:
        raise InputError(f"trot count must be positive, got {n_trots}")
    single = builder(g / n_trots)
    if n_trots == 1:
        return single
    return SeoProgram(single.num_qubits, [Loop(n_trots, single.body)])


def _rotations(
    edges: list[tuple[int, int]], theta: float, num_qubits: int
) -> list:
    """Exact exponential of a disjoint (matching) edge set, ascending order."""
    body = []
    for a, b in sorted(edges, key=lambda e: min(e)):
        body += two_state_rotation(min(a, b), max(a, b), theta, num_qubits).body
    return body


def _symmetric_chain(
    matchings: list[list[tuple[int, int]]], t: float, num_qubits: int
) -> list:
    """Time-symmetric order-2 split over several matchings.

    Emits M1(t/2) ... M_{m-1}(t/2) M_m(t) M_{m-1}(t/2) ... M1(t/2); each
    factor is exact, and the chain inverts under t -> -t so it can feed the
    higher-order recursion.
    """
    matchings = [m for m in matchings if m]
    if not matchings:
        return []
    head, last = matchings[:-1], matchings[-1]
    body = []
    for m in head:
        body += _rotations(m, t / 2, num_qubits)
    body += _rotations(last, t, num_qubits)
    for m in reversed(head):
        body += _rotations(m, t / 2, num_qubits)
    return body


def line_emitters(nb_line: int) -> SuzukiEmitters:
    """Even/odd split of the Gray-order line edges.

    Alternating edges never share a node, so each factor is an exact product
    of one-bit two-state rotations (single multiply-controlled ROTX each).
    """
    edges = line_edges(nb_line)
    even, odd = edges[0::2], edges[1::2]
    return SuzukiEmitters(
        num_qubits=nb_line,
        emit_a=_per_time(lambda t: _rotations(even, t, nb_line)),
        emit_b=_per_time(lambda t: _rotations(odd, t, nb_line)),
    )


def compile_line(
    layout: FruitLayout, g_eff: float, r_line: int, nt_line: int
) -> SeoProgram:
    """Product-formula approximant of the line-block exponential.

    Acts on the nb_line low qubits; embedding at a global offset is done by
    the caller via pad_controls / conjugate_by_shift.
    """
    em = line_emitters(layout.nb_line)
    return trotterize(lambda t: suzuki(r_line, t, em), g_eff, nt_line)


def tree_emitters(nb_tree: int) -> SuzukiEmitters:
    """Split tree edges by parent depth parity, sub-split by child side.

    Edges sharing a parent land in the same depth class, so each class is
    further split into left-child and right-child matchings and emitted as a
    symmetric chain; the chain stays time-symmetric, which is all the
    higher-order recursion needs.
    """
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for parent, child in tree_edges(nb_tree):
        depth = parent.bit_length() - 1
        key = (depth % 2, child % 2)
        classes.setdefault(key, []).append((parent, child))
    even = [classes.get((0, 0), []), classes.get((0, 1), [])]
    odd = [classes.get((1, 0), []), classes.get((1, 1), [])]
    return SuzukiEmitters(
        num_qubits=nb_tree,
        emit_a=_per_time(lambda t: _symmetric_chain(even, t, nb_tree)),
        emit_b=_per_time(lambda t: _symmetric_chain(odd, t, nb_tree)),
    )


def compile_tree(layout: FruitLayout, g_eff: float, nt_tree: int) -> SeoProgram:
    """Order-4 product-formula approximant of the tree-block exponential.

    Acts on the nb_tree low qubits in heap indexing (dud at state 0).
    """
    em = tree_emitters(layout.nb_tree)
    return trotterize(lambda t: suzuki(TREE_ORDER, t, em), g_eff, nt_tree)


def compile_fruit(spec: FruitSpec) -> tuple[SeoProgram, CompileReport]:
    """Compile the full evolution operator into one gate program.

    The bulk factor embeds the line block at offset 0 and the tree block at
    offset ns_line (projector padding plus state shifting); the corrections
    factor is the exact glue and oracle rotations in global indices.  The
    two factors feed a meta product formula of order r_meta, repeated
    nt_meta times via Trotter's trick.

    Each factor is built once per distinct time and shared: the program may
    hold the same Gate, Loop and list objects in many places, so treat it as
    immutable.  Product formulas keep their factors and repeats as sub-lists
    spliced in place (see SeoProgram), so the program does not compare equal
    to the flat one parse_english reads back from its English file, though
    both write the same file and have the same unitary.
    """
    layout, x = spec.resolve()
    nb_total = layout.nb_total
    line_pads = range(spec.nb_line, nb_total)
    tree_pads = range(spec.nb_tree, nb_total)

    @_per_time
    def bulk(t: float) -> list:
        line = pad_controls(compile_line(layout, t, spec.r_line, spec.nt_line),
                            line_pads)
        tree = conjugate_by_shift(
            pad_controls(compile_tree(layout, t, spec.nt_tree), tree_pads),
            layout.tree_offset,
            nb_total,
        )
        return line.body + tree.body

    @_per_time
    def emit_corr(t: float) -> list:
        return (compile_glue(layout, spec.door, t).body
                + compile_oracle(layout, x, t).body)

    em = SuzukiEmitters(num_qubits=nb_total, emit_a=bulk, emit_b=emit_corr)
    program = trotterize(lambda t: suzuki(spec.r_meta, t, em), spec.g, spec.nt_meta)
    program.validate()
    return program, CompileReport(nb_total, count_elementary_ops(program))
