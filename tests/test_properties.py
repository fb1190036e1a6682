"""Property tests over small specs: English round trips, op counts and the
unitary of the written file; and the merged-ladder rotations of one
matching against their dense exponential."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nandfruit import (
    FruitSpec,
    SeoProgram,
    compile_fruit,
    count_elementary_ops,
    expi_hermitian,
    frobenius_distance,
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
