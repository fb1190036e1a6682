import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from nandfruit import (
    FruitLayout,
    FruitSpec,
    InputError,
    Loop,
    SeoProgram,
    assemble_fruit,
    build_line_hamiltonian,
    build_tree_hamiltonian,
    compile_fruit,
    compile_glue,
    compile_line,
    compile_oracle,
    compile_shift,
    compile_tree,
    conjugate_by_shift,
    count_elementary_ops,
    expand,
    expi_hermitian,
    frobenius_distance,
    pad_controls,
    parse_bands,
    parse_english,
    program_unitary,
    suzuki,
    trotterize,
    two_state_rotation,
    verify_compile,
    write_english,
    write_picture,
)
from nandfruit import compilers
from nandfruit.compilers import _at_time, _matching_plan, tree_emitters
from nandfruit.hamiltonian import (
    SparseSymmetric,
    line_factors,
    tree_edges,
    tree_factors,
    tree_label,
)
from nandfruit.seo import Gate


def inline(items):
    """items with every sub-list spliced in place; Loop objects stay as they are."""
    out = []
    for item in items:
        if isinstance(item, list):
            out += inline(item)
        else:
            out.append(item)
    return out


def flat(items):
    """The body parse_english reads back: sub-lists spliced at every depth."""
    return [Loop(item.reps, flat(item.body)) if isinstance(item, Loop) else item
            for item in inline(items)]


def sharing(items):
    """Each object's order of first appearance, by identity, nested as the
    sub-lists are: equal for two bodies that share objects alike."""
    seen: dict[int, int] = {}

    def walk(item):
        at = seen.setdefault(id(item), len(seen))
        return (at, tuple(walk(sub) for sub in item)) if isinstance(item, list) else at

    return walk(items)


def pair_exp(dim, a, b, theta):
    h = np.zeros((dim, dim))
    h[a, b] = h[b, a] = theta
    return expi_hermitian(h)


class TestTwoStateRotation:
    def test_zero_angle_is_identity(self):
        u = program_unitary(two_state_rotation(3, 5, 0.0, 3))
        assert frobenius_distance(u, np.eye(8)) <= 1e-12

    def test_one_bit_pair_is_single_rotation(self):
        prog = two_state_rotation(4, 6, 0.3, 3)
        gates = expand(prog)
        assert len(gates) == 1
        assert gates[0].kind == "ROTX"
        u = program_unitary(prog)
        assert frobenius_distance(u, pair_exp(8, 4, 6, 0.3)) <= 1e-12

    def test_far_pair_matches_dense_oracle(self):
        u = program_unitary(two_state_rotation(2, 9, 0.3, 5))
        assert frobenius_distance(u, pair_exp(32, 2, 9, 0.3)) <= 1e-12

    @pytest.mark.parametrize("a,b,theta", [(0, 7, -0.9), (5, 6, 1.3), (1, 14, 0.2)])
    def test_random_pairs(self, a, b, theta):
        u = program_unitary(two_state_rotation(a, b, theta, 4))
        assert frobenius_distance(u, pair_exp(16, a, b, theta)) <= 1e-12

    def test_rejects_equal_states(self):
        with pytest.raises(ValueError):
            two_state_rotation(3, 3, 0.1, 3)


class TestShift:
    def test_zero_shift_empty(self):
        assert compile_shift(0, 3).body == []

    def test_two_qubit_increment(self):
        prog = compile_shift(1, 2)
        lines = [(g.kind, g.target, g.controls) for g in prog.body]
        assert lines == [("SIGX", 1, ((0, True),)), ("SIGX", 0, ())]
        u = program_unitary(prog)
        for x in range(4):
            assert u[(x + 1) % 4, x] == 1

    @pytest.mark.parametrize("k", [1, 7, 12, 31])
    def test_permutation(self, k):
        u = program_unitary(compile_shift(k, 5))
        expected = np.zeros((32, 32))
        expected[[(x + k) % 32 for x in range(32)], range(32)] = 1
        assert np.array_equal(u.real, expected)
        assert np.all(u.imag == 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compile_shift(8, 3)


class TestPadControls:
    def test_empty_pad_unchanged(self):
        prog = two_state_rotation(0, 1, 0.5, 2)
        assert pad_controls(prog, []) is prog

    def test_single_sigx(self):
        prog = SeoProgram(1, [Gate("SIGX", 0)])
        padded = pad_controls(prog, [2])
        gate = padded.body[0]
        assert gate.controls == ((2, False),)
        u = program_unitary(SeoProgram(3, padded.body))
        x = np.array([[0, 1], [1, 0]])
        expected = np.eye(8, dtype=complex)
        expected[np.ix_([0, 1], [0, 1])] = x
        expected[np.ix_([2, 3], [2, 3])] = x
        assert frobenius_distance(u, expected) <= 1e-12

    def test_padded_glue_is_block_diagonal(self):
        layout = FruitLayout.from_counts(3, 3)
        frag = compile_glue(layout, 2, 0.4)
        padded = pad_controls(frag, [layout.nb_total])
        u = program_unitary(SeoProgram(layout.nb_total + 1, padded.body))
        expected = np.eye(64, dtype=complex)
        expected[:32, :32] = pair_exp(32, 2, 9, 0.4)
        assert frobenius_distance(u, expected) <= 1e-12

    def test_collision_rejected(self):
        prog = SeoProgram(2, [Gate("SIGX", 0, None, ((1, True),))])
        with pytest.raises(ValueError, match="pad"):
            pad_controls(prog, [1])

    @pytest.mark.parametrize("r_meta", [2, 4])
    def test_blocks_built_padded_equal_padded_blocks(self, r_meta):
        # compile_fruit builds the line and tree gates in the whole register
        layout = FruitLayout.from_counts(3, 4)
        line_pads, tree_pads = range(3, layout.nb_total), range(4, layout.nb_total)
        line = compile_line(layout, 0.3, r_meta, 2, layout.nb_total)
        tree = compile_tree(layout, 0.3, 2, layout.nb_total)
        assert line.num_qubits == tree.num_qubits == layout.nb_total
        assert expand(line) == expand(
            pad_controls(compile_line(layout, 0.3, r_meta, 2), line_pads))
        assert expand(tree) == expand(
            pad_controls(compile_tree(layout, 0.3, 2), tree_pads))

    def test_pads_inside_the_block_rejected(self):
        layout = FruitLayout.from_counts(3, 3)
        with pytest.raises(ValueError, match="3-qubit block does not fit a 2-qubit"):
            compile_line(layout, 0.3, 2, 1, 2)

    def test_empty_register_rejected_like_a_small_one(self):
        # 0 qubits is a register size given, not the block's default
        layout = FruitLayout.from_counts(3, 4)
        with pytest.raises(ValueError, match="3-qubit block does not fit a 0-qubit"):
            compile_line(layout, 0.3, 2, 1, 0)
        with pytest.raises(ValueError, match="4-qubit block does not fit a 0-qubit"):
            compile_tree(layout, 0.3, 1, 0)


class TestConjugateByShift:
    def test_zero_shift_noop(self):
        frag = two_state_rotation(0, 1, 0.2, 2)
        out = conjugate_by_shift(frag, 0, 2)
        assert frobenius_distance(
            program_unitary(out), program_unitary(frag)
        ) <= 1e-12

    def test_direction_pinned_on_two_qubits(self):
        # X on the low qubit, padded so it acts on states {0, 1}, shifted by 2:
        # must act as X on {2, 3} and identity on {0, 1}
        frag = pad_controls(SeoProgram(1, [Gate("SIGX", 0)]), [1])
        u = program_unitary(conjugate_by_shift(frag, 2, 2))
        expected = np.eye(4, dtype=complex)
        expected[np.ix_([2, 3], [2, 3])] = np.array([[0, 1], [1, 0]])
        assert frobenius_distance(u, expected) <= 1e-12

    def test_glue_padded_and_shifted(self):
        layout = FruitLayout.from_counts(2, 2)
        frag = pad_controls(compile_glue(layout, 1, 0.3), [layout.nb_total])
        u = program_unitary(conjugate_by_shift(frag, 16, layout.nb_total + 1))
        h = np.zeros((32, 32))
        h[16 + 1, 16 + layout.root_index] = h[16 + layout.root_index, 16 + 1] = 0.3
        assert frobenius_distance(u, expi_hermitian(h)) <= 1e-10


class TestGlueOracle:
    def test_glue_states(self):
        layout = FruitLayout.from_counts(3, 3)
        u = program_unitary(compile_glue(layout, 2, 0.6))
        assert frobenius_distance(u, pair_exp(32, 2, 9, 0.6)) <= 1e-10

    def test_glue_zero_coupling(self):
        layout = FruitLayout.from_counts(3, 3)
        u = program_unitary(compile_glue(layout, 0, 0.0))
        assert frobenius_distance(u, np.eye(32)) <= 1e-12

    def test_glue_rejects_door_outside_line(self):
        layout = FruitLayout.from_counts(3, 3)
        with pytest.raises(InputError, match="door"):
            compile_glue(layout, layout.ns_line, 0.3)

    def test_oracle_empty(self):
        layout = FruitLayout.from_counts(3, 3)
        prog = compile_oracle(layout, parse_bands("", 4), 0.5)
        assert prog.body == []

    def test_oracle_pairs_and_dense(self):
        layout = FruitLayout.from_counts(3, 3)
        x = parse_bands("0,0;3,3", 4)
        u = program_unitary(compile_oracle(layout, x, 0.5))
        h = np.zeros((32, 32))
        for a, b in [(12, 16), (15, 19)]:
            h[a, b] = h[b, a] = 0.5
        assert frobenius_distance(u, expi_hermitian(h)) <= 1e-10

    def test_oracle_order_irrelevant(self):
        layout = FruitLayout.from_counts(3, 3)
        x = parse_bands("0,0;2,3", 4)
        fwd = program_unitary(compile_oracle(layout, x, 0.7))
        rev_body = []
        for k in reversed(range(4)):
            if x.x[k]:
                rev_body += two_state_rotation(
                    layout.leaf_index(k), layout.extra_index(k), 0.7, layout.nb_total
                ).body
        rev = program_unitary(SeoProgram(layout.nb_total, rev_body))
        assert frobenius_distance(fwd, rev) <= 1e-12


def empty_emitter(t):
    return []


def marker(name):
    """An emitter whose factor stands in the body as its (name, time)."""
    return lambda t: [(name, t)]


def rotation(a, b):
    """Emitter of the two-state rotation on states a, b of two qubits."""
    return lambda t: two_state_rotation(a, b, t, 2).body


class TestSuzuki:
    def test_rejects_odd_order(self):
        with pytest.raises(InputError, match="even"):
            suzuki(3, 1.0, empty_emitter, empty_emitter)

    def test_order_two_sequence(self):
        body = suzuki(2, 0.8, marker("a"), marker("b"))
        assert inline(body) == [("a", 0.4), ("b", 0.8), ("a", 0.4)]
        # both half steps are one list
        assert body[0] is body[2]

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_coefficients_sum_to_t(self, order):
        # equal-time sub-bodies are built once, so the body is read, not
        # the calls
        body = inline(suzuki(order, 0.37, marker("a"), marker("b")))
        assert len(body) == 3 * 5 ** (order // 2 - 1)
        for name in "ab":
            times = [t for factor, t in body if factor == name]
            assert math.isclose(sum(times), 0.37, rel_tol=1e-12)

    def test_order_six_body_shares_its_sub_formulas(self):
        prog = SeoProgram(2, suzuki(6, 0.3, rotation(0, 1), rotation(1, 2)))
        # [outer, outer, middle, outer, outer]
        assert len(prog.body) == 5
        assert len({id(item) for item in prog.body}) == 2
        assert prog.body[0] is prog.body[1] is prog.body[3] is prog.body[4]
        padded = pad_controls(prog, [2])
        assert sharing(padded.body) == sharing(prog.body)
        assert expand(padded) == [gate.with_extra_controls(((2, False),))
                                  for gate in expand(prog)]

    def test_trivial_emitters_identity(self):
        prog = SeoProgram(1, suzuki(2, 1.0, empty_emitter, empty_emitter))
        assert frobenius_distance(program_unitary(prog), np.eye(2)) == 0

    def test_order_four_scaling(self):
        # noncommuting pair on two qubits: H = (|0><1| + h.c.) + (|1><2| + h.c.)
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = h[1, 2] = h[2, 1] = 1.0
        errs = []
        ts = [0.4, 0.2, 0.1]
        for t in ts:
            body = suzuki(4, t, rotation(0, 1), rotation(1, 2))
            u = program_unitary(SeoProgram(2, body))
            errs.append(frobenius_distance(u, expi_hermitian(t * h)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert abs(slope - 5.0) <= 0.3

    def test_trotterize_rejects_nonpositive_trots(self):
        with pytest.raises(InputError, match="trot count"):
            trotterize(2, empty_emitter, empty_emitter, 1.0, 0)


class TestLine:
    def test_single_edge_exact(self):
        layout = FruitLayout.from_counts(1, 2)
        target = expi_hermitian(build_line_hamiltonian(1, 0.9))
        for r, nt in [(2, 1), (4, 3)]:
            u = program_unitary(compile_line(layout, 0.9, r, nt))
            assert frobenius_distance(u, target) <= 1e-12

    def test_second_order_trotter_law(self):
        layout = FruitLayout.from_counts(3, 3)
        target = expi_hermitian(build_line_hamiltonian(3, 0.5))
        errs = {
            nt: frobenius_distance(
                target, program_unitary(compile_line(layout, 0.5, 2, nt))
            )
            for nt in (4, 8, 16)
        }
        assert 3.2 <= errs[4] / errs[8] <= 4.8
        assert 3.2 <= errs[8] / errs[16] <= 4.8

    def test_line_matchings_are_one_rotx_per_flipped_bit(self):
        # the even Gray matching flips bit 0 on every pair: one ROTX with
        # no block control; the odd one flips bit j >= 1 on the pairs whose
        # bits below j read 0...01: one ROTX per j, with j controls.  Each
        # also carries an F control on every qubit above the block
        nb_line, num_qubits = 5, 7
        pads = [(q, False) for q in range(nb_line, num_qubits)]
        (even,), (odd,) = line_factors(nb_line)
        (rotx,) = _at_time(_matching_plan(even, num_qubits, nb_line), 0.5)
        assert (rotx.kind, rotx.target) == ("ROTX", 0)
        assert sorted(rotx.controls) == pads
        gates = _at_time(_matching_plan(odd, num_qubits, nb_line), 0.5)
        assert [(gate.kind, gate.target) for gate in gates] == [
            ("ROTX", j) for j in range(1, nb_line)]
        for j, gate in enumerate(gates, 1):
            assert sorted(gate.controls) == sorted(
                [(i, False) for i in range(j - 1)] + [(j - 1, True)] + pads)
        layout = FruitLayout.from_counts(nb_line, 3)
        assert all(gate.kind == "ROTX"
                   for gate in expand(compile_line(layout, 0.5, 2, 1)))


class TestTree:
    def test_small_tree_near_exact_tiny_coupling(self):
        layout = FruitLayout.from_counts(1, 2)
        target = expi_hermitian(build_tree_hamiltonian(2, 0.01))
        u = program_unitary(compile_tree(layout, 0.01, 16))
        assert frobenius_distance(u, target) <= 1e-10

    def test_error_decreases_with_trots(self):
        layout = FruitLayout.from_counts(3, 3)
        target = expi_hermitian(build_tree_hamiltonian(3, 0.3))
        errs = [
            frobenius_distance(target, program_unitary(compile_tree(layout, 0.3, nt)))
            for nt in (1, 2, 4, 8)
        ]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_sweep_gate_count_at_7_qubits(self):
        # the four matchings of tree_factors, each emitted once: merged
        # ladders keep 448 of 768 gates in heap order, and in the frame of
        # tree_label, where the edges of one depth and side form one cube,
        # one ROTX per depth and side plus two CNOTs per left-child depth
        unmerged = sum(len(two_state_rotation(p, c, 0.1, 7).body)
                       for p, c in tree_edges(7))
        assert unmerged == 768

        def merged(label):
            return sum(len(_at_time(_matching_plan(
                [(label(p), label(c)) for p, c in edges], 7), 0.1))
                for factor in tree_factors(7) for edges in factor)

        assert merged(lambda j: j) == 448
        assert merged(tree_label) == 6 * 2 + 2 * 6
        # as the product formula uses them: A(t) + B(t) with a symmetric chain
        # each, the left-child matching twice
        emit_a, emit_b = tree_emitters(7, 7)
        sweep = SeoProgram(7, emit_a(0.1) + emit_b(0.1))
        assert count_elementary_ops(sweep) == 42

    def test_chain_half_steps_are_one_list(self):
        # each depth class is the order-2 split of its left-child matching
        # and its right-child matching: both half steps are one list.  In a
        # fused order-4 formula the half steps of each order-2 sub-formula
        # lose their outer edge stamps to the seams; what is left of them,
        # core then edge and edge then core, is one core list and one edge
        # list again
        def rotations(edges, t):  # in a 6-qubit register
            return _at_time(_matching_plan(edges, 6, 5), t)

        factors = [[[(tree_label(p), tree_label(c)) for p, c in edges]
                    for edges in factor] for factor in tree_factors(5)]
        emitters = tree_emitters(5, 6)
        for (left, right), emit in zip(factors, emitters):
            body = emit(0.3)
            assert len(body) == 3
            assert body[0] is body[2]
            assert body[0] == rotations(left, 0.15)
            assert body[1] == rotations(right, 0.3)
        edge, inner, edge_again = suzuki(4, 0.3, *emitters)
        assert edge is edge_again
        outer = inner[0]
        assert [item is sub for item, sub in zip(outer, outer[::-1])] == [
            True, True, True, True, True]
        core, half_edge, _, _, _ = outer
        p = 1 / (4 - 4 ** (1 / 3))
        assert half_edge is edge
        assert edge == rotations(factors[0][0], p * 0.3 / 4)
        assert core == rotations(factors[0][1], p * 0.3 / 2)

    def test_zero_coupling_identity(self):
        layout = FruitLayout.from_counts(3, 3)
        u = program_unitary(compile_tree(layout, 0.0, 2))
        assert frobenius_distance(u, np.eye(8)) <= 1e-12


def make_spec(**kw):
    base = dict(
        file_prefix="t", nb_line=3, nb_tree=3, g=0.2, door=0, bands_text="0,3",
        nt_line=4, r_line=2, nt_tree=4, nt_meta=4, r_meta=2,
    )
    base.update(kw)
    return FruitSpec(**base)


class TestFruit:
    def test_qubit_count(self):
        _, report = compile_fruit(make_spec())
        assert report.num_qubits == 5

    def test_zero_coupling_identity(self):
        prog, _ = compile_fruit(make_spec(g=0.0))
        assert frobenius_distance(program_unitary(prog), np.eye(32)) <= 1e-12

    def test_meta_trotter_convergence(self):
        spec = make_spec()
        _, blocks = assemble_fruit(spec)
        errs = []
        for ntm in (1, 2, 4):
            prog, _ = compile_fruit(make_spec(nt_meta=ntm))
            errs.append(verify_compile(blocks.fruit, prog))
        assert errs[0] > errs[1] > errs[2]

    def test_op_count_scales_with_meta_trots(self):
        _, r1 = compile_fruit(make_spec(nt_meta=1))
        _, r8 = compile_fruit(make_spec(nt_meta=8))
        assert r8.num_elementary_ops == 8 * r1.num_elementary_ops

    def test_loop_ids_unique(self, tmp_path):
        # shared Loop objects stand in several places; the written file
        # gives each place its own id, which parse_english checks
        prog, _ = compile_fruit(make_spec(r_meta=4))
        write_english(prog, tmp_path / "eng.txt")
        text = (tmp_path / "eng.txt").read_text()
        loop_ids = re.findall(r"^LOOP (\d+) ", text, re.M)
        assert len(loop_ids) == len(set(loop_ids)) > 1
        # the file holds the compiled program with its sub-lists spliced
        assert parse_english(tmp_path / "eng.txt") == SeoProgram(
            prog.num_qubits, flat(prog.body))

    @pytest.mark.parametrize("r_meta", [2, 4])
    def test_written_loop_ids_count_up_in_next_order(self, r_meta, tmp_path):
        prog, _ = compile_fruit(make_spec(r_meta=r_meta))
        write_english(prog, tmp_path / "eng.txt")
        text = (tmp_path / "eng.txt").read_text()
        next_ids = [int(i) for i in re.findall(r"^NEXT (\d+)$", text, re.M)]
        assert next_ids == list(range(len(next_ids))) and next_ids
        assert sorted(re.findall(r"^LOOP (\d+) ", text, re.M)) == sorted(
            re.findall(r"^NEXT (\d+)$", text, re.M))

    def test_line_bound_covers_the_written_file(self, tmp_path):
        path = tmp_path / "eng.txt"
        for nb_line, nb_tree, (r_line, r_meta), trots, bands in itertools.product(
            (1, 3), (2, 3), ((2, 2), (4, 2), (2, 4)), (1, 3), ("", "0,1")
        ):
            spec = make_spec(nb_line=nb_line, nb_tree=nb_tree, door=1, r_line=r_line,
                             r_meta=r_meta, nt_line=trots, nt_tree=trots,
                             nt_meta=trots, bands_text=bands)
            write_english(compile_fruit(spec)[0], path)
            assert len(path.read_text().splitlines()) <= spec.english_line_bound(), spec

    def test_deterministic(self):
        p1, _ = compile_fruit(make_spec())
        p2, _ = compile_fruit(make_spec())
        assert expand(p1) == expand(p2)

    def test_invalid_spec_raises_input_error(self):
        with pytest.raises(InputError):
            compile_fruit(make_spec(bands_text="0,1 2,3"))


class TestEmbeddingIdentity:
    @pytest.mark.parametrize("offset", [0, 8, 12])
    def test_line_block_relocation(self, offset):
        layout = FruitLayout.from_counts(3, 3)
        frag = compile_line(layout, 0.4, 2, 4)
        u_block = program_unitary(frag)
        embedded = conjugate_by_shift(
            pad_controls(frag, range(3, layout.nb_total)), offset, layout.nb_total
        )
        u = program_unitary(embedded)
        expected = np.eye(32, dtype=complex)
        expected[offset:offset + 8, offset:offset + 8] = u_block
        assert frobenius_distance(u, expected) <= 1e-12


def readme_spec(**kw):
    """The README example; kw overrides fields."""
    base = dict(
        file_prefix="t", nb_line=3, nb_tree=3, g=0.2, door=2, bands_text="0,1;3,3",
        nt_line=4, r_line=2, nt_tree=4, nt_meta=4, r_meta=2,
    )
    base.update(kw)
    return FruitSpec(**base)


def relabel_loops(data: bytes) -> bytes:
    """The file with its loop ids renumbered 0, 1, ... by first LOOP line."""
    ids: dict[bytes, int] = {}
    return re.sub(
        rb"^(LOOP|NEXT) (\d+)",
        lambda m: b"%s %d" % (m[1], ids.setdefault(m[2], len(ids))),
        data, flags=re.M,
    )


def file_hashes(spec, tmp_path, relabel=True):
    program, _ = compile_fruit(spec)
    write_english(program, tmp_path / "eng.txt")
    write_picture(program, tmp_path / "pic.txt")
    return tuple(
        hashlib.sha256((relabel_loops if relabel else bytes)(
            (tmp_path / name).read_bytes())).hexdigest()
        for name in ("eng.txt", "pic.txt")
    )


# SHA-256 of the English and Picture files of the README example.  First
# pinned while loop ids were still drawn as the loops were built (at meta
# order 2 that is the NEXT order the writers number by); re-pinned when the
# rotations of a matching began to share their CNOT ladders, which removed
# 32 of 5592 ops and left the dense error bit-identical; re-pinned when the
# order-4 tree formula began to fuse the edge stamps at its seams (ops 5560
# -> 5176, dense error 2.513340538285027e-04 -> 2.513340538285294e-04); re-pinned
# when the shift into the tree offset became the shift out of it reversed
# (ops 5176 -> 5168, dense error bit-identical); re-pinned when the tree
# block began to be compiled in the frame of tree_label (ops 5168 -> 3936,
# dense error 2.513340538285294e-04 -> 2.5133405382852505e-04); re-pinned
# when the rotations of a matching that share a ladder began to share one
# ROTX per control cube (ops 3936 -> 3228, dense error bit-identical)
README_FILES = (
    "614c3b13753efcaf19a4f4c68e30e21734fa3c4f20ceb190fe9821c4a2e4c6d2",
    "824e5b3e7153a87c029baa437d1db56500c26ac4e62dc2a906e3d32ae7591e60",
)

# SHA-256 of the English and Picture files with loop ids relabelled by first
# LOOP line (at meta orders >= 4 the writers' NEXT-order ids permute the
# build-order ones); the zero-coupling spec has both 0.0 and -0.0 angles.
# First pinned from the compiler before it shared repeated bodies; re-pinned
# when the rotations of a matching began to share their CNOT ladders (ops
# 27960 -> 27800, 29640 -> 29560 and 175000 -> 174200, dense errors
# bit-identical), and again when the higher-order formulas began to fuse the
# edge stamps at their seams (ops 27800 -> 25880, 29560 -> 27640 and 174200
# -> 151800; dense errors moved by at most 3e-17, the zero-coupling one
# stays 0.0), and again when the shift into the tree offset became the shift
# out of it reversed (ops 25880 -> 25840 and 151800 -> 151600, the line-4
# spec unchanged; dense errors bit-identical), and again when the tree block
# began to be compiled in the frame of tree_label (ops 25840 -> 19680, 27640
# -> 21480 and 151600 -> 120800; dense errors moved by at most 9e-18, the
# zero-coupling one stays 0.0), and again when the rotations of a matching
# that share a ladder began to share one ROTX per control cube (ops 19680 ->
# 16140, 21480 -> 16180 and 120800 -> 90300; dense errors bit-identical)
GOLDEN = {
    "readme-meta4": (
        dict(r_meta=4),
        "e40b63d6a1253cf5728bcb270c4d4fc371eac834480ebb87b511acf5eb9db047",
        "dcc64a52a96dff2218fbd585a1adb1ffc2e73e01f8d6d804ad40ca4a9b35f6b4",
    ),
    "readme-meta4-line4": (
        dict(r_meta=4, nb_line=4),
        "e7ebbaf616377bd3225de26a8748f96e4b8789b41ce5ff854a3624d27443ae9e",
        "702ac6fe4013b03f5769018dbbf692cdf1c21e09a7c87709dfd42a337f1978ea",
    ),
    "zero-coupling-meta6": (
        dict(g=0.0, r_line=4, r_meta=6),
        "0a01d82a64b60e9d7fcc96e1fcf4e261050b4f48a7636c586b65dead69051424",
        "b7b5598eab91c7d79c584f9800cd9717ed5036b68924c4b16f0ef6e2b8d4fad5",
    ),
}


def meta_body_loops(program):
    """The line and tree loops of the bulk copies inside the meta loop."""
    (meta,) = program.body
    return [item for item in inline(meta.body) if isinstance(item, Loop)]


class TestSharedBodies:
    def test_readme_files_byte_identical(self, tmp_path):
        assert file_hashes(readme_spec(), tmp_path, relabel=False) == README_FILES

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_files_byte_identical_to_unshared_compiler(self, name, tmp_path):
        # byte for byte once both sides' loop ids are relabelled
        over, eng, pic = GOLDEN[name]
        assert file_hashes(readme_spec(**over), tmp_path) == (eng, pic)

    def test_equal_time_line_loops_share_one_body(self, tmp_path):
        # meta order 2: bulk(t/2) corr(t) bulk(t/2), so both bulk copies
        # hold the same line loop and the same tree loop
        program, _ = compile_fruit(readme_spec())
        line_a, tree_a, line_b, tree_b = meta_body_loops(program)
        assert line_a is line_b and line_a.body is line_b.body
        assert tree_a is tree_b and tree_a.body is tree_b.body
        assert line_a.body is not tree_a.body
        # written, the four places still get four ids inside the meta loop
        write_english(program, tmp_path / "eng.txt")
        text = (tmp_path / "eng.txt").read_text()
        assert len(set(re.findall(r"^LOOP (\d+) ", text, re.M))) == 5

    def test_meta_order_4_builds_two_bulk_bodies(self):
        # ten bulk copies at two distinct times: 20 loops, 4 distinct bodies
        loops = meta_body_loops(compile_fruit(readme_spec(r_meta=4))[0])
        assert len(loops) == 20
        assert len({id(loop.body) for loop in loops}) == 4

    @pytest.mark.parametrize("spec", [
        FruitSpec("c9", 7, 7, 0.2, 5, "0,20;40,60", nt_line=4, r_line=4,
                  nt_tree=4, nt_meta=4, r_meta=4),
        readme_spec(r_meta=6),
    ], ids=["compile-9q", "readme-meta6"])
    def test_each_matching_plan_is_built_once_per_compile(self, spec, monkeypatch):
        # two line matchings, four tree matchings, the glue and the oracle,
        # whatever the number of distinct times the meta formula has
        calls = []
        build = compilers._matching_plan
        monkeypatch.setattr(compilers, "_matching_plan",
                            lambda *args: calls.append(args) or build(*args))
        compile_fruit(spec)
        assert len(calls) == 8

    def test_no_cache_outlives_a_compile_call(self, tmp_path):
        # B has A's times on a larger register, so a cache kept between
        # calls would hand one spec's gates to the other: to B if the first
        # entry wins, to the second A if the last one does
        a, b = "readme-meta4", "readme-meta4-line4"
        for name in (a, b, a):
            over, eng, pic = GOLDEN[name]
            assert file_hashes(readme_spec(**over), tmp_path) == (eng, pic), name

    def test_pad_controls_pads_each_shared_gate_once(self):
        gate = Gate("ROTX", 0, 0.3, ((1, True),))
        padded = pad_controls(SeoProgram(2, [gate, gate]), [2, 3])
        assert padded.body[0] is padded.body[1]
        assert padded.body[0].controls == ((3, False), (2, False), (1, True))
