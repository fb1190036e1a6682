import gc
import re

import numpy as np
import pytest
from scipy.linalg import expm

from nandfruit import (
    FruitSpec,
    Gate,
    Loop,
    SeoProgram,
    build_line_hamiltonian,
    compile_fruit,
    compile_shift,
    expand,
    expi_hermitian,
    frobenius_distance,
    pad_controls,
    parse_english,
    program_unitary,
    spectral_norm,
    verify_compile,
    write_english,
    write_picture,
)
from nandfruit.hamiltonian import SparseSymmetric
from nandfruit.verify import _apply, _Walk


class TestExpi:
    def test_zero_hamiltonian(self):
        assert np.array_equal(expi_hermitian(np.zeros((4, 4))), np.eye(4))

    def test_sigma_x_closed_form(self):
        g = 0.37
        h = g * np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array(
            [[np.cos(g), 1j * np.sin(g)], [1j * np.sin(g), np.cos(g)]]
        )
        assert frobenius_distance(expi_hermitian(h), expected) <= 1e-14

    def test_line_exponential_unitary_and_symmetric(self):
        u = expi_hermitian(build_line_hamiltonian(3, 0.5))
        assert frobenius_distance(u @ u.conj().T, np.eye(8)) <= 1e-12
        assert frobenius_distance(u, u.T) <= 1e-12

    def test_negation_gives_adjoint(self):
        h = build_line_hamiltonian(3, 0.8).to_dense()
        assert frobenius_distance(expi_hermitian(-h), expi_hermitian(h).conj().T) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expi_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_accepts_sparse(self):
        h = SparseSymmetric(2, {(0, 1): 0.5})
        assert frobenius_distance(
            expi_hermitian(h), expi_hermitian(h.to_dense())
        ) == 0

    def test_isolated_zero_states_are_exactly_one(self):
        # states 1, 4 and 6 have an all-zero row and column; state 3 has
        # only a diagonal entry, so it is live
        rng = np.random.default_rng(2)
        h = rng.normal(size=(8, 8))
        h = h + h.T
        dead = [1, 4, 6]
        h[dead, :] = h[:, dead] = 0
        h[3, :] = h[:, 3] = 0
        h[3, 3] = 0.7
        u = expi_hermitian(h)
        assert frobenius_distance(u, expm(1j * h)) <= 1e-12
        assert np.array_equal(u[dead][:, dead], np.eye(3))
        live = [0, 2, 3, 5, 7]
        assert not u[dead][:, live].any() and not u[live][:, dead].any()


class TestProgramUnitary:
    def test_empty_program(self):
        assert np.array_equal(program_unitary(SeoProgram(2)), np.eye(4))

    def test_single_sigx(self):
        u = program_unitary(SeoProgram(1, [Gate("SIGX", 0)]))
        assert np.array_equal(u.real, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_shift_permutation(self):
        u = program_unitary(compile_shift(12, 5))
        expected = np.zeros((32, 32))
        expected[[(x + 12) % 32 for x in range(32)], range(32)] = 1
        assert np.array_equal(u.real, expected)

    def test_application_order(self):
        # SIGX then ROTZ: states pass through X first
        prog = SeoProgram(1, [Gate("SIGX", 0), Gate("ROTZ", 0, 0.7)])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rz = np.diag([np.exp(-0.35j), np.exp(0.35j)])
        assert frobenius_distance(program_unitary(prog), rz @ x) <= 1e-14

    def test_phase_gate_controlled(self):
        prog = SeoProgram(2, [Gate("PHAS", None, 0.9, ((1, True),))])
        u = program_unitary(prog)
        expected = np.diag([1, 1, np.exp(0.9j), np.exp(0.9j)])
        assert frobenius_distance(u, expected) <= 1e-14

    def test_all_gate_kinds_unitary(self):
        prog = SeoProgram(3, [
            Gate("SIGX", 0, None, ((2, True),)),
            Gate("ROTX", 1, 0.3),
            Gate("ROTY", 2, -1.1, ((0, False),)),
            Gate("ROTZ", 0, 2.2),
            Gate("PHAS", None, 0.4),
        ])
        u = program_unitary(prog)
        assert frobenius_distance(u.conj().T @ u, np.eye(8)) <= 1e-10


_PAULI = {
    "ROTX": np.array([[0, 1], [1, 0]], dtype=complex),
    "ROTY": np.array([[0, -1j], [1j, 0]]),
    "ROTZ": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _gate_matrix(gate, num_qubits):
    """Dense matrix of one gate, column by column from its definition."""
    dim = 2 ** num_qubits
    if gate.kind == "SIGX":
        block = _PAULI["ROTX"]
    elif gate.kind != "PHAS":
        block = (np.cos(gate.angle / 2) * np.eye(2)
                 - 1j * np.sin(gate.angle / 2) * _PAULI[gate.kind])
    g = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        if not all(((s >> q) & 1) == pol for q, pol in gate.controls):
            g[s, s] = 1
        elif gate.kind == "PHAS":
            g[s, s] = np.exp(1j * gate.angle)
        else:
            t = gate.target
            bit, base = (s >> t) & 1, s & ~(1 << t)
            g[base, s] = block[0, bit]
            g[base | (1 << t), s] = block[1, bit]
    return g


def flat_unitary(program):
    """Unroll every loop and multiply the per-gate matrices one at a time."""
    matrices = {}
    u = np.eye(2 ** program.num_qubits, dtype=complex)
    for gate in expand(program):
        if gate not in matrices:
            matrices[gate] = _gate_matrix(gate, program.num_qubits)
        u = matrices[gate] @ u
    return u


class TestLoopAwareProduct:
    def test_nested_loops_all_gate_kinds(self):
        inner = Loop(2, [
            Gate("ROTY", 0, -1.1, ((2, False),)),
            Gate("PHAS", None, 0.4),
            Gate("ROTZ", 1, 2.2, ((0, True), (2, True))),
        ])
        outer = Loop(3, [
            Gate("SIGX", 1, None, ((0, True),)),
            inner,
            Gate("PHAS", 2, -0.7, ((1, False),)),
        ])
        prog = SeoProgram(3, [Gate("ROTX", 2, 0.3), outer, Gate("SIGX", 0)])
        prog.validate()
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    def test_body_shared_by_loops_with_different_reps(self):
        body = [Gate("ROTX", 0, 0.7, ((1, True),)), Gate("SIGX", 1, None, ((0, False),))]
        prog = SeoProgram(2, [
            Loop(3, body), Gate("ROTY", 1, 0.2), Loop(2, body),
        ])
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    @pytest.mark.parametrize("controls,support", [
        (((3, False), (2, False)), list(range(4))),
        (((1, True),), [2, 3, 6, 7, 10, 11, 14, 15]),
    ], ids=["contiguous", "strided"])
    def test_identity_outside_a_lone_loops_support(self, controls, support):
        body = [Gate("ROTX", 0, 0.3, controls), Gate("SIGX", 0, None, controls),
                Gate("PHAS", 0, -0.8, controls)]
        prog = SeoProgram(4, [Loop(3, body)])
        u = program_unitary(prog)
        outside = np.setdiff1d(np.arange(16), support)
        assert np.array_equal(u[outside], np.eye(16)[outside])
        assert np.array_equal(u[:, outside], np.eye(16)[:, outside])
        assert frobenius_distance(u, flat_unitary(prog)) <= 1e-12

    def test_empty_loop_body(self):
        prog = SeoProgram(2, [
            Gate("ROTX", 0, 0.5), Loop(4, []), Gate("SIGX", 1, None, ((0, True),)),
        ])
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    def test_compiled_program_with_out_of_order_loop_ids(self, tmp_path):
        # shared bodies and shared Loop objects at two distinct times; the
        # written file numbers loops as they close, so its LOOP lines run
        # out of order, and the program read back from it is checked
        spec = FruitSpec("t", 3, 3, 0.2, 2, "0,1;3,3", nt_line=4, r_line=2,
                         nt_tree=4, nt_meta=4, r_meta=4)
        prog, _ = compile_fruit(spec)
        path = tmp_path / "eng.txt"
        write_english(prog, path)
        ids = [int(i) for i in re.findall(r"^LOOP (\d+) ", path.read_text(), re.M)]
        assert ids != sorted(ids)
        prog = parse_english(path)
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    @pytest.mark.parametrize("items", [
        lambda body: [Loop(3, body)],
        lambda body: [[[Loop(2, body)], Loop(3, body)]],
        lambda body: [Loop(3, [Loop(2, body)]), Gate("ROTY", 1, 0.2)],
        lambda body: [Gate("ROTY", 1, 0.2), Loop(3, body)],
    ], ids=["lone", "in-sub-lists", "nested-then-gate", "gate-then-loop"])
    @pytest.mark.parametrize("controls", [((3, False), (2, False)), ((1, True),)],
                             ids=["contiguous", "strided"])
    def test_leading_loop_into_the_identity_is_bit_identical(self, items, controls):
        # while the running product is still the identity, a loop's power is
        # copied into it instead of multiplied onto it: the same numbers
        body = [Gate("ROTX", 0, 0.3, controls), Gate("SIGX", 0, None, controls),
                Gate("PHAS", 0, -0.8, controls)]
        prog = SeoProgram(4, items(body))
        multiplied = np.eye(16, dtype=complex)
        _apply(prog.body, multiplied, _Walk(16))
        assert np.array_equal(program_unitary(prog), multiplied)
        assert frobenius_distance(multiplied, flat_unitary(prog)) <= 1e-12

    def test_compiled_program_into_the_identity_is_bit_identical(self, tmp_path):
        spec = FruitSpec("t", 3, 3, 0.2, 2, "0,1;3,3", nt_line=4, r_line=2,
                         nt_tree=4, nt_meta=4, r_meta=4)
        prog, _ = compile_fruit(spec)
        write_english(prog, tmp_path / "eng.txt")
        for program in (prog, parse_english(tmp_path / "eng.txt")):
            multiplied = np.eye(32, dtype=complex)
            _apply(program.body, multiplied, _Walk(32))
            assert np.array_equal(program_unitary(program), multiplied)

    def test_cli_walkers_leave_no_reference_cycle(self, tmp_path):
        # a cycle would keep the program, its text and the body products
        # alive until the collector next runs, and so raise the peak memory
        spec = FruitSpec("t", 3, 3, 0.2, 2, "0,1;3,3", nt_line=4, r_line=2,
                         nt_tree=4, nt_meta=4, r_meta=4)
        gc.collect()
        gc.disable()
        try:
            prog, _ = compile_fruit(spec)
            write_english(prog, tmp_path / "eng.txt")
            write_picture(prog, tmp_path / "pic.txt")
            program_unitary(prog)
            del prog
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("walk", [expand, lambda prog: pad_controls(prog, [5])],
                             ids=["expand", "pad_controls"])
    def test_library_walkers_leave_no_reference_cycle(self, walk):
        spec = FruitSpec("t", 3, 3, 0.2, 2, "0,1;3,3", nt_line=4, r_line=2,
                         nt_tree=4, nt_meta=4, r_meta=4)
        prog, _ = compile_fruit(spec)
        gc.collect()
        gc.disable()
        try:
            walk(prog)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNorms:
    def test_equal_matrices(self):
        u = np.eye(3)
        assert frobenius_distance(u, u) == 0

    def test_closed_form(self):
        assert frobenius_distance(np.eye(2), np.diag([1.0, -1.0])) == 2

    def test_frobenius_matches_elementwise_definition(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        direct = np.sqrt(np.sum((a - b) * np.conj(a - b))).real
        assert abs(frobenius_distance(a, b) - direct) <= 1e-12

    def test_spectral_below_frobenius(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            assert spectral_norm(a) <= np.linalg.norm(a, "fro") + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.eye(2), np.eye(3))


class TestVerifyCompile:
    def test_identity_vs_zero(self):
        assert verify_compile(np.zeros((4, 4)), SeoProgram(2)) == 0

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="does not match"):
            verify_compile(np.zeros((4, 4)), SeoProgram(3))

    def test_padded_target_identity_off_block(self):
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = 0.6
        u = expi_hermitian(h)
        assert frobenius_distance(u[2:, 2:], np.eye(2)) == 0
