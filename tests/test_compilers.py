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
    parse_english,
    program_unitary,
    suzuki,
    two_state_rotation,
    verify_compile,
    write_english,
    write_picture,
)
from nandfruit.hamiltonian import SparseSymmetric
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


def recording_emitters(calls_a, calls_b):
    def emit_a(t):
        calls_a.append(t)
        return []

    def emit_b(t):
        calls_b.append(t)
        return []

    return SuzukiEmitters(num_qubits=1, emit_a=emit_a, emit_b=emit_b)


def marker_emitters():
    """Each factor stands in the body as its (name, time)."""
    return SuzukiEmitters(num_qubits=1, emit_a=lambda t: [("a", t)],
                          emit_b=lambda t: [("b", t)])


class TestSuzuki:
    def test_rejects_odd_order(self):
        em = recording_emitters([], [])
        with pytest.raises(InputError, match="even"):
            suzuki(3, 1.0, em)

    def test_order_two_sequence(self):
        body = suzuki(2, 0.8, marker_emitters()).body
        assert inline(body) == [("a", 0.4), ("b", 0.8), ("a", 0.4)]
        # both half steps are one list
        assert body[0] is body[2]

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_coefficients_sum_to_t(self, order):
        # equal-time sub-bodies are built once, so the body is read, not
        # the calls
        body = inline(suzuki(order, 0.37, marker_emitters()).body)
        assert len(body) == 3 * 5 ** (order // 2 - 1)
        for name in "ab":
            times = [t for factor, t in body if factor == name]
            assert math.isclose(sum(times), 0.37, rel_tol=1e-12)

    def test_order_six_body_shares_its_sub_formulas(self):
        em = SuzukiEmitters(
            num_qubits=2,
            emit_a=lambda t: two_state_rotation(0, 1, t, 2).body,
            emit_b=lambda t: two_state_rotation(1, 2, t, 2).body,
        )
        prog = suzuki(6, 0.3, em)
        # [outer, outer, middle, outer, outer]
        assert len(prog.body) == 5
        assert len({id(item) for item in prog.body}) == 2
        assert prog.body[0] is prog.body[1] is prog.body[3] is prog.body[4]
        padded = pad_controls(prog, [2])
        assert sharing(padded.body) == sharing(prog.body)
        assert expand(padded) == [gate.with_extra_controls(((2, False),))
                                  for gate in expand(prog)]

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


# SHA-256 of the English and Picture files of the README example, written
# while loop ids were still drawn as the loops were built; at meta order 2
# that order is the NEXT order the writers number by, so every byte stays
README_FILES = (
    "83aca53eb8f659e28d37e882f9b34a29c3351febaa414236009bf69aa3fec13f",
    "2fcb6240be6a3aa1a23ef32c03ac9e815c082ee60636f48c033374155cf19301",
)

# SHA-256 of the English and Picture files written before the compiler
# shared repeated bodies, with loop ids relabelled by first LOOP line (at
# meta orders >= 4 the writers' NEXT-order ids permute the build-order ones);
# the zero-coupling spec has both 0.0 and -0.0 angles
GOLDEN = {
    "readme-meta4": (
        dict(r_meta=4),
        "654910a3b0cff3d255495a801fffefb324783c6cbf5d9cdc7be7e85f0218abc3",
        "960b1632dd229ff1393b744a723fc62d8b8806a97af8a57d83298b5c66f0c574",
    ),
    "readme-meta4-line4": (
        dict(r_meta=4, nb_line=4),
        "18d67c5cb7fda79a185e26a1c04a9f58ce178ba4388414b06caf4dfd7cb9bcd0",
        "cf9c7a42cdb9ed0e9b104f9a3ee70ead4bf64f34277233911af21bafba659c1f",
    ),
    "zero-coupling-meta6": (
        dict(g=0.0, r_line=4, r_meta=6),
        "1a67c794d820f3cbfd137509578970beee9b66c5e1184821d4c9e4a923d4a959",
        "78387dd5da44370f4783e11f18a48ecd73cf0f73b42e00eda0a3b9a8afa03e85",
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
