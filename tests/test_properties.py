"""Property tests over small specs: English round trips, op counts and the
unitary of the written file; the merged-ladder rotations of one matching
against their dense exponential; and the exact components (two-state
rotation, shift, glue, oracle, padding) against their closed forms,
global phase included."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nandfruit import (
    FruitLayout,
    FruitSpec,
    Gate,
    Loop,
    NandInputs,
    SeoProgram,
    compile_fruit,
    compile_glue,
    compile_oracle,
    compile_shift,
    count_elementary_ops,
    expi_hermitian,
    frobenius_distance,
    pad_controls,
    parse_english,
    program_unitary,
    two_state_rotation,
    write_english,
)
from nandfruit.compilers import _rotations


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
    assert len(written.splitlines()) <= spec.english_line_bound()


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
def matchings(draw):
    """(register, disjoint state pairs, theta, pad qubits above the register)."""
    n = draw(st.integers(2, 6))
    states = draw(st.permutations(range(2 ** n)))
    k = draw(st.integers(0, 2 ** (n - 1)))
    edges = [(states[2 * i], states[2 * i + 1]) for i in range(k)]
    theta = draw(st.floats(-3.0, 3.0))
    pads = sorted(draw(st.sets(st.integers(n, n + 1))))
    return n, edges, theta, pads


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=matchings())
def test_merged_ladders_are_the_exact_exponential(case):
    n, edges, theta, pads = case
    extra = tuple((q, False) for q in pads)
    body = _rotations(edges, theta, n, extra)
    m = max([n] + [q + 1 for q in pads])
    # exp(i theta sum(|a><b| + |b><a|)) on every copy of the register whose
    # pad qubits are all 0; qubits above n that are not pads are free
    h = np.zeros((2 ** m, 2 ** m))
    for high in range(0, 2 ** m, 2 ** n):
        if not any(high >> q & 1 for q in pads):
            for a, b in edges:
                h[high | a, high | b] = h[high | b, high | a] = theta
    assert frobenius_distance(program_unitary(SeoProgram(m, body)),
                              expi_hermitian(h)) <= 1e-12
    unmerged = sum(len(two_state_rotation(a, b, theta, n).body) for a, b in edges)
    assert len(body) <= unmerged


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
