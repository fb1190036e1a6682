"""Property tests over small specs: English round trips and op counts."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nandfruit import (
    FruitSpec,
    compile_fruit,
    count_elementary_ops,
    parse_english,
    write_english,
)


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
