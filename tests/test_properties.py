"""Property tests over small specs: English round trips, op counts and the
unitary of the written file; the merged-ladder rotations of one matching,
and its rotations merged into one ROTX per control cube, against their
dense exponential; the loop-aware gate product against the flat one; the
exact components (two-state rotation, shift, glue, oracle, padding) against
their closed forms, global phase included; product formulas with the edge
stamps fused at their seams against the unfused ones; each tree factor
in the Walsh frame against the exact exponential of its heap-order edges,
and the tree compiled in that frame against the heap-order formula; the
dense error against the meta trot count; and the command line, which ends
every argv in a return code."""

import contextlib
import dataclasses
import io
import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nandfruit import (
    FruitLayout,
    FruitSpec,
    Gate,
    Loop,
    NandInputs,
    SeoProgram,
    assemble_fruit,
    compile_fruit,
    compile_glue,
    compile_oracle,
    compile_shift,
    compile_tree,
    count_elementary_ops,
    count_english_lines,
    expi_hermitian,
    frobenius_distance,
    pad_controls,
    parse_english,
    program_unitary,
    trotterize,
    two_state_rotation,
    verify_compile,
    write_english,
)
from nandfruit.cli import run
from nandfruit.compilers import _Matching, _tree_frame, line_emitters, tree_emitters
from nandfruit.hamiltonian import TREE_ORDER, tree_edges
from nandfruit.seo import GATE_KINDS
from tests.test_verify import flat_unitary


@st.composite
def specs(draw):
    """Specs with line/tree registers <= 3 qubits, orders <= 4, trots <= 3."""
    nb_line = draw(st.integers(1, 3))
    nb_tree = draw(st.integers(2, 3))
    bits = draw(st.lists(st.booleans(), min_size=2 ** (nb_tree - 1),
                         max_size=2 ** (nb_tree - 1)))
    # maximal runs of set bits are sorted bands with unset gaps between them
    edge = [False, *bits, False]
    starts = [k for k in range(len(bits)) if edge[k + 1] and not edge[k]]
    ends = [k for k in range(len(bits)) if edge[k + 1] and not edge[k + 2]]
    return FruitSpec(
        file_prefix="p",
        nb_line=nb_line,
        nb_tree=nb_tree,
        g=draw(st.floats(-2.0, 2.0)),
        door=draw(st.integers(0, 2 ** nb_line - 1)),
        bands_text=";".join(f"{a},{b}" for a, b in zip(starts, ends)),
        nt_line=draw(st.integers(1, 3)),
        r_line=draw(st.sampled_from([2, 4])),
        nt_tree=draw(st.integers(1, 3)),
        nt_meta=draw(st.integers(1, 3)),
        r_meta=draw(st.sampled_from([2, 4])),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=specs())
def test_english_round_trip_and_op_count(spec):
    program, report = compile_fruit(spec)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "eng.txt"
        write_english(program, path)
        written = path.read_bytes()
        parsed = parse_english(path)
        write_english(parsed, path)
        assert path.read_bytes() == written
    assert count_elementary_ops(parsed) == report.num_elementary_ops
    lines = len(written.splitlines())
    assert count_english_lines(program) == count_english_lines(parsed) == lines


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=specs())
def test_written_file_has_the_compiled_unitary(spec):
    # the compiled program shares sub-lists; the file read back is flat
    program, _ = compile_fruit(spec)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "eng.txt"
        write_english(program, path)
        parsed = parse_english(path)
    assert frobenius_distance(program_unitary(program),
                              program_unitary(parsed)) <= 1e-12


@st.composite
def looped_programs(draw):
    """Programs of 2-5 qubits with loops nested up to three deep: loop bodies
    shared by loops of different reps, bodies whose gates all carry F
    controls on the qubits above some level (so they stay in a low range of
    rows, as a compiled block does), bodies of scattered rows, empty bodies,
    and PHAS with and without its inert target."""
    n = draw(st.integers(2, 5))
    bodies = []

    def gate(low):  # on the qubits below low, with F controls above it
        kind = draw(st.sampled_from(GATE_KINDS))
        target = draw(st.integers(0, low - 1))
        if kind == "PHAS" and draw(st.booleans()):
            target = None
        others = [q for q in range(low) if q != target]
        chosen = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        controls = tuple((q, draw(st.booleans())) for q in chosen)
        controls += tuple((q, False) for q in range(low, n))
        angle = None if kind == "SIGX" else draw(st.floats(-3.0, 3.0))
        return Gate(kind, target, angle, controls)

    def items(depth, low):
        out = []
        for _ in range(draw(st.integers(0, 4))):
            choice = draw(st.sampled_from(["gate", "loop", "list"] if depth < 3 else ["gate"]))
            if choice == "gate":
                out.append(gate(low))
            elif choice == "list":
                out.append(items(depth + 1, low))
            elif bodies and draw(st.booleans()):
                out.append(Loop(draw(st.integers(1, 4)), draw(st.sampled_from(bodies))))
            else:
                body = items(depth + 1, draw(st.integers(1, low)))
                bodies.append(body)
                out.append(Loop(draw(st.integers(1, 4)), body))
        return out

    return SeoProgram(n, items(0, n))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(program=looped_programs())
def test_loop_aware_product_is_the_flat_product(program):
    program.validate()
    assert frobenius_distance(program_unitary(program), flat_unitary(program)) <= 1e-12


@st.composite
def matchings(draw):
    """(block, disjoint state pairs, theta, register the block sits in)."""
    n = draw(st.integers(2, 6))
    states = draw(st.permutations(range(2 ** n)))
    k = draw(st.integers(0, 2 ** (n - 1)))
    edges = [(states[2 * i], states[2 * i + 1]) for i in range(k)]
    theta = draw(st.floats(-3.0, 3.0))
    return n, edges, theta, draw(st.integers(n, n + 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=matchings())
def test_merged_ladders_are_the_exact_exponential(case):
    n, edges, theta, m = case
    body = _Matching(edges, m, n)(theta)
    # exp(i theta sum(|a><b| + |b><a|)) on the block where every qubit above
    # it is 0, the identity elsewhere
    h = np.zeros((2 ** m, 2 ** m))
    for a, b in edges:
        h[a, b] = h[b, a] = theta
    assert frobenius_distance(program_unitary(SeoProgram(m, body)),
                              expi_hermitian(h)) <= 1e-12
    unmerged = sum(len(two_state_rotation(a, b, theta, n).body) for a, b in edges)
    assert len(body) <= unmerged


@st.composite
def cube_matchings(draw):
    """(block, disjoint state pairs, theta, register the block sits in),
    drawn as up to four runs of pairs, each kept where it shares no state
    with an earlier pair: a whole subcube of the pairs (s, s ^ d) for one
    flip mask d, a band of pairs (a + k, b + k) for consecutive k as the
    oracle couples leaves to their markers, or random pairs.  A flip mask
    may have several bits."""
    n = draw(st.integers(2, 6))
    dim = 2 ** n
    used, edges = set(), []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cube", "band", "random"]))
        if kind == "cube":
            d = draw(st.integers(1, dim - 1))
            care = draw(st.integers(0, dim - 1)) & ~d
            value = draw(st.integers(0, dim - 1)) & care
            pairs = [(s, s ^ d) for s in range(dim)
                     if s & care == value and not s & d & -d]
        elif kind == "band":
            a, b = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                                 unique=True))
            pairs = [(a + k, b + k)
                     for k in range(draw(st.integers(1, dim - max(a, b))))]
        else:
            pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                            st.integers(0, dim - 1))))
        for a, b in pairs:
            if a != b and not {a, b} & used:
                used |= {a, b}
                edges.append((a, b))
    return n, edges, draw(st.floats(-3.0, 3.0)), draw(st.integers(n, n + 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=cube_matchings())
@example(case=(4, [(s, s ^ 1) for s in range(0, 16, 2)], 0.7, 5))
@example(case=(5, [(24 + k, 8 + k) for k in range(3, 8)], -1.1, 6))
def test_merged_cubes_are_the_exact_exponential(case):
    # the rotations of one (pivot, ladder mask) share one ROTX per control
    # cube; the plan stays exp(i theta sum(|a><b| + |b><a|)), phase included
    n, edges, theta, m = case
    body = _Matching(edges, m, n)(theta)
    h = np.zeros((2 ** m, 2 ** m))
    for a, b in edges:
        h[a, b] = h[b, a] = theta
    assert frobenius_distance(program_unitary(SeoProgram(m, body)),
                              expi_hermitian(h)) <= 1e-12
    assert sum(gate.kind == "ROTX" for gate in body) <= len(edges)


def matching_exp(num_qubits, pairs, theta):
    """exp(i theta sum(|a><b| + |b><a|)) over disjoint pairs, in closed form:
    [[cos, i sin], [i sin, cos]] on each pair and the identity elsewhere."""
    u = np.eye(2 ** num_qubits, dtype=complex)
    for a, b in pairs:
        u[a, a] = u[b, b] = np.cos(theta)
        u[a, b] = u[b, a] = 1j * np.sin(theta)
    return u


@st.composite
def state_pairs(draw):
    """(register, two distinct states, theta)."""
    n = draw(st.integers(1, 5))
    a, b = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=2, max_size=2,
                         unique=True))
    return n, a, b, draw(st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=state_pairs())
def test_two_state_rotation_is_phase_exact_in_either_order(case):
    n, a, b, theta = case
    expected = matching_exp(n, [(a, b)], theta)
    for x, y in ((a, b), (b, a)):
        u = program_unitary(two_state_rotation(x, y, theta, n))
        assert frobenius_distance(u, expected) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), data=st.data())
def test_shift_is_the_exact_permutation(n, data):
    k = data.draw(st.integers(0, 2 ** n - 1))
    expected = np.zeros((2 ** n, 2 ** n))
    expected[[(x + k) % 2 ** n for x in range(2 ** n)], range(2 ** n)] = 1
    assert frobenius_distance(program_unitary(compile_shift(k, n)), expected) <= 1e-12


@st.composite
def layouts(draw):
    """(layout, door, inputs, coupling) with line/tree registers <= 3 qubits."""
    layout = FruitLayout.from_counts(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    door = draw(st.integers(0, layout.ns_line - 1))
    x = NandInputs(draw(st.lists(st.booleans(), min_size=layout.ns_lvs,
                                 max_size=layout.ns_lvs)))
    return layout, door, x, draw(st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=layouts())
def test_glue_and_oracle_are_phase_exact(case):
    layout, door, x, g = case
    n = layout.nb_total
    glue = program_unitary(compile_glue(layout, door, g))
    assert frobenius_distance(
        glue, matching_exp(n, [(door, layout.root_index)], g)) <= 1e-12
    marked = [(layout.leaf_index(k), layout.extra_index(k))
              for k, bit in enumerate(x.x) if bit]
    oracle = program_unitary(compile_oracle(layout, x, g))
    assert frobenius_distance(oracle, matching_exp(n, marked, g)) <= 1e-12


@st.composite
def gates(draw, n):
    """Any gate on n qubits, controls of either polarity; PHAS may be global."""
    kind = draw(st.sampled_from(["SIGX", "ROTX", "ROTY", "ROTZ", "PHAS"]))
    target = draw(st.integers(0, n - 1))
    if kind == "PHAS" and draw(st.booleans()):
        target = None
    angle = None if kind == "SIGX" else draw(st.floats(-3.0, 3.0))
    controls = tuple((q, draw(st.booleans())) for q in range(n)
                     if q != target and draw(st.booleans()))
    return Gate(kind, target, angle, controls)


@st.composite
def fragments(draw):
    """(fragment of gates, a sub-list and a loop on n qubits, pads above n)."""
    n = draw(st.integers(1, 3))
    head, shared, looped = (draw(st.lists(gates(n), max_size=3)) for _ in range(3))
    body = [*head, shared, Loop(draw(st.integers(1, 3)), [*looped, shared])]
    pads = sorted(draw(st.sets(st.integers(n, n + 2), min_size=1)))
    return SeoProgram(n, body), pads


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=fragments())
def test_padding_is_phase_exact(case):
    fragment, pads = case
    n, m = fragment.num_qubits, pads[-1] + 1
    u = program_unitary(fragment)
    # the fragment on every copy of the register whose pad qubits are all 0,
    # the identity on every other; qubits above n that are not pads are free
    expected = np.eye(2 ** m, dtype=complex)
    for high in range(0, 2 ** m, 2 ** n):
        if not any(high >> q & 1 for q in pads):
            expected[high:high + 2 ** n, high:high + 2 ** n] = u
    padded = pad_controls(fragment, pads)
    assert padded.num_qubits == m
    assert frobenius_distance(program_unitary(padded), expected) <= 1e-12


@st.composite
def formulas(draw):
    """(register, emitters of a line or tree block in it, order, time,
    trots)."""
    nb = draw(st.integers(1, 5))
    m = draw(st.integers(nb, nb + 2))
    emitters = draw(st.sampled_from([line_emitters, tree_emitters]))(nb, m)
    return (m, emitters,
            draw(st.sampled_from([2, 4, 6])), draw(st.floats(-2.0, 2.0)),
            draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=formulas())
def test_fused_seams_are_exact(case):
    # plain callables of the same matchings take the unfused path; each of
    # the 5^(r/2-1) - 1 seams of a step fuses two A stamps into one
    n, (emit_a, emit_b), order, g, n_trots = case
    fused = SeoProgram(n, trotterize(order, emit_a, emit_b, g, n_trots))
    unfused = SeoProgram(n, trotterize(order, lambda t: emit_a(t),
                                       lambda t: emit_b(t), g, n_trots))
    assert frobenius_distance(program_unitary(fused),
                              program_unitary(unfused)) <= 1e-12
    seams = 5 ** (order // 2 - 1) - 1
    assert (count_elementary_ops(fused)
            == count_elementary_ops(unfused) - n_trots * seams * len(emit_a(g)))


def parity_class(nb, num_qubits, parity):
    """The tree's heap-order edges below the parents at depths of this
    parity, as a dense Hamiltonian of unit weight on a num_qubits register."""
    h = np.zeros((2 ** num_qubits, 2 ** num_qubits))
    for p, c in tree_edges(nb):
        if (p.bit_length() - 1) % 2 == parity:
            h[p, c] = h[c, p] = 1.0
    return h


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(nb=st.integers(2, 9), extra=st.integers(0, 2), parity=st.sampled_from([0, 1]),
       t=st.floats(-2.0, 2.0))
@example(nb=9, extra=2, parity=1, t=0.7)
@example(nb=2, extra=0, parity=0, t=0.7)
def test_walsh_frame_factor_is_the_exact_exponential(nb, extra, parity, t):
    # in the Walsh frame each tree factor is one matching, so the gates into
    # the frame, one stamp of the factor and the gates out are the exact
    # exponential of its heap-order edges, phase included; the identity on
    # every state outside the block
    m = nb + extra
    into, out = _tree_frame(nb, m)
    body = into + tree_emitters(nb, m)[parity](t) + out
    assert frobenius_distance(program_unitary(SeoProgram(m, body)),
                              expi_hermitian(t * parity_class(nb, m, parity))) <= 1e-12


def formula_unitary(dim, items):
    """The dense product of a body whose items are dense unitaries, the
    first applied first."""
    u = np.eye(dim, dtype=complex)
    for item in items:
        if isinstance(item, Loop):
            item = np.linalg.matrix_power(formula_unitary(dim, item.body), item.reps)
        elif isinstance(item, list):
            item = formula_unitary(dim, item)
        u = item @ u
    return u


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(nb=st.integers(2, 8), extra=st.integers(0, 2), g=st.floats(-2.0, 2.0),
       n_trots=st.integers(1, 3))
@example(nb=8, extra=2, g=0.7, n_trots=3)
def test_relabelled_tree_is_the_heap_order_formula(nb, extra, g, n_trots):
    # compile_tree runs the formula in the Walsh frame between the gates into
    # it and back; the same formula over the exact exponentials of the two
    # heap-order parity classes of the tree's edges is the same unitary,
    # phase included, on the block where every qubit above it is 0
    m = nb + extra
    factors = [lambda t, h=parity_class(nb, nb, parity): [expi_hermitian(t * h)]
               for parity in (0, 1)]
    heap = np.eye(2 ** m, dtype=complex)
    heap[:2 ** nb, :2 ** nb] = formula_unitary(
        2 ** nb, trotterize(TREE_ORDER, *factors, g, n_trots))
    relabelled = compile_tree(FruitLayout.from_counts(1, nb), g, n_trots, m)
    assert frobenius_distance(program_unitary(relabelled), heap) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=specs(), g=st.sampled_from([0.2, 1.0, 3.0]), r_meta=st.sampled_from([2, 4]),
       n_trots=st.integers(1, 7))
def test_error_does_not_grow_with_meta_trots(spec, g, r_meta, n_trots):
    # empirical, not a theorem: one more meta trot never raised the dense
    # error on 420 random steps of small specs with these couplings and orders
    spec = dataclasses.replace(spec, g=g, r_meta=r_meta)
    _, blocks = assemble_fruit(spec)
    programs = (compile_fruit(dataclasses.replace(spec, nt_meta=n))[0]
                for n in (n_trots, n_trots + 1))
    fewer, more = (verify_compile(blocks.fruit, program) for program in programs)
    assert more <= fewer


# the flags of the command line and the valid values each is drawn from;
# registers of at most 5 + 5 qubits compile to at most 7
_TROTS = st.integers(1, 3).map(str)
_ORDERS = st.sampled_from(["2", "4", "6"])
_FLAG_VALUES = {
    "--line-qubits": st.integers(1, 5).map(str),
    "--tree-qubits": st.integers(2, 5).map(str),
    "--coupling": st.floats(-3.0, 3.0).map(repr),
    "--door": st.integers(0, 3).map(str),
    "--bands": st.sampled_from(["", "0,1", "0,1;3,3", "1,1"]),
    "--line-trots": _TROTS,
    "--line-order": _ORDERS,
    "--tree-trots": _TROTS,
    "--meta-trots": _TROTS,
    "--meta-order": _ORDERS,
    "--max-verify-qubits": st.sampled_from(["10", "13", "4", "0"]),
}
# a stray token: no junk one abbreviates a flag other than --help, or holds
# a '='
_JUNK = (st.sampled_from(["-h", "--he", "--no-verify"])
         | st.text(alphabet="-hex0123456789.,; ", max_size=6))
_BAD = st.sampled_from(["-1", "0", "3", "40", "14", "nan", "-inf", "1e308",
                        "4503599627370496.0", "2,1", "0,1;1,2", "0,40"]) | _JUNK


@st.composite
def command_lines(draw, directory):
    """argv of every flag, in any order and as '--flag value' or
    '--flag=value', a few of them missing or with a bad value, maybe a junk
    token; every output file lands in directory."""
    # a file name, a missing directory, the directory itself or a NUL byte
    names = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="/"), max_size=6)
    flags = {flag: draw(values) for flag, values in _FLAG_VALUES.items()}
    flags["--prefix"] = os.path.join(
        directory, draw(st.sampled_from(["run", "no/such/dir/run", "", "nul\0"]) | names))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2)):
        if draw(st.booleans()):
            flags.pop(flag, None)
        else:
            bad = draw(_BAD)
            # a bad prefix still lands in directory
            flags[flag] = os.path.join(directory, bad) if flag == "--prefix" else bad
    argv = []
    for flag in draw(st.permutations(sorted(flags))):
        argv += ([f"{flag}={flags[flag]}"] if draw(st.booleans())
                 else [flag, flags[flag]])
    if draw(st.booleans()):
        argv.append("--no-verify")
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_never_raises(data):
    with tempfile.TemporaryDirectory() as d:
        argv = data.draw(command_lines(d))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert isinstance(code, int)
    if code:
        assert "Message: " in out.getvalue(), argv
