import hashlib
import itertools
import math

import numpy as np
import pytest

from nandfruit import (
    FruitLayout,
    FruitSpec,
    InputError,
    Loop,
    SeoProgram,
    SuzukiEmitters,
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
    expand,
    expi_hermitian,
    frobenius_distance,
    pad_controls,
    parse_bands,
    program_unitary,
    suzuki,
    two_state_rotation,
    verify_compile,
    write_english,
    write_picture,
)
from nandfruit.hamiltonian import SparseSymmetric
from nandfruit.seo import Gate


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


def recording_emitters(calls_a, calls_b):
    def emit_a(t):
        calls_a.append(t)
        return []

    def emit_b(t):
        calls_b.append(t)
        return []

    return SuzukiEmitters(num_qubits=1, emit_a=emit_a, emit_b=emit_b)


class TestSuzuki:
    def test_rejects_odd_order(self):
        em = recording_emitters([], [])
        with pytest.raises(InputError, match="even"):
            suzuki(3, 1.0, em)

    def test_order_two_sequence(self):
        calls_a, calls_b = [], []
        suzuki(2, 0.8, recording_emitters(calls_a, calls_b))
        assert calls_a == [0.4, 0.4]
        assert calls_b == [0.8]

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_coefficients_sum_to_t(self, order):
        calls_a, calls_b = [], []
        suzuki(order, 0.37, recording_emitters(calls_a, calls_b))
        assert math.isclose(sum(calls_a), 0.37, rel_tol=1e-12)
        assert math.isclose(sum(calls_b), 0.37, rel_tol=1e-12)

    def test_trivial_emitters_identity(self):
        em = recording_emitters([], [])
        prog = suzuki(2, 1.0, em)
        assert frobenius_distance(program_unitary(prog), np.eye(2)) == 0

    def test_order_four_scaling(self):
        # noncommuting pair on two qubits: H = (|0><1| + h.c.) + (|1><2| + h.c.)
        def em():
            return SuzukiEmitters(
                num_qubits=2,
                emit_a=lambda t: two_state_rotation(0, 1, t, 2).body,
                emit_b=lambda t: two_state_rotation(1, 2, t, 2).body,
            )

        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = h[1, 2] = h[2, 1] = 1.0
        errs = []
        ts = [0.4, 0.2, 0.1]
        for t in ts:
            u = program_unitary(suzuki(4, t, em()))
            errs.append(frobenius_distance(u, expi_hermitian(t * h)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert abs(slope - 5.0) <= 0.3


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

    def test_all_rotations_single_controlled_rotx(self):
        layout = FruitLayout.from_counts(3, 3)
        gates = expand(compile_line(layout, 0.5, 2, 1))
        assert all(gate.kind == "ROTX" for gate in gates)
        assert all(len(gate.controls) == layout.nb_line - 1 for gate in gates)


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

    def test_loop_ids_unique(self):
        prog, _ = compile_fruit(make_spec())
        prog.validate()

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


def file_hashes(spec, tmp_path):
    program, _ = compile_fruit(spec)
    write_english(program, tmp_path / "eng.txt")
    write_picture(program, tmp_path / "pic.txt")
    return tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("eng.txt", "pic.txt")
    )


# SHA-256 of the English and Picture files from before the compiler shared
# repeated bodies; the zero-coupling spec has both 0.0 and -0.0 angles
GOLDEN = {
    "readme-meta4": (
        dict(r_meta=4),
        "af9b5af6e29228bc185d285c704e83cb7d012bc54fa8693e0090c5e6f83829a9",
        "aa1601e5457de93b8d53d7e7ad0e04c3e97d5e2f0d2f383355a3bebaa0f26767",
    ),
    "readme-meta4-line4": (
        dict(r_meta=4, nb_line=4),
        "9476b2bf33c22c76eb96c35a6d1a747e6d797b9438be792cd0f501ac45eb1d5e",
        "15311d0bb70b55f50ad91ab54ef43c309090260d24791f467e37c27d801e94e9",
    ),
    "zero-coupling-meta6": (
        dict(g=0.0, r_line=4, r_meta=6),
        "18e5e570183245ea400b262d7313706899c5c2dba08305d45fa7b2d1f8114bbb",
        "bd9f739d9789032d448408848375f35beaf8465d5f0782c57071972916a943a6",
    ),
}


def meta_body_loops(program):
    """The line and tree loops of the bulk copies inside the meta loop."""
    (meta,) = program.body
    return [item for item in meta.body if isinstance(item, Loop)]


class TestSharedBodies:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_files_byte_identical_to_unshared_compiler(self, name, tmp_path):
        over, eng, pic = GOLDEN[name]
        assert file_hashes(readme_spec(**over), tmp_path) == (eng, pic)

    def test_equal_time_line_loops_share_one_body(self):
        # meta order 2: bulk(t/2) corr(t) bulk(t/2), so both bulk copies
        # hold a line loop and a tree loop at the same time
        loops = meta_body_loops(compile_fruit(readme_spec())[0])
        line_a, tree_a, line_b, tree_b = loops
        assert line_a.body is line_b.body
        assert tree_a.body is tree_b.body
        assert len({loop.id for loop in loops}) == 4

    def test_meta_order_4_builds_two_bulk_bodies(self):
        # ten bulk copies at two distinct times: 20 loops, 4 distinct bodies
        loops = meta_body_loops(compile_fruit(readme_spec(r_meta=4))[0])
        assert len(loops) == 20
        assert len({id(loop.body) for loop in loops}) == 4

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
