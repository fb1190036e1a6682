import numpy as np
import pytest

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
    program_unitary,
    spectral_norm,
    verify_compile,
)
from nandfruit.hamiltonian import SparseSymmetric


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
        inner = Loop(2, 2, [
            Gate("ROTY", 0, -1.1, ((2, False),)),
            Gate("PHAS", None, 0.4),
            Gate("ROTZ", 1, 2.2, ((0, True), (2, True))),
        ])
        outer = Loop(1, 3, [
            Gate("SIGX", 1, None, ((0, True),)),
            inner,
            Gate("PHAS", 2, -0.7, ((1, False),)),
        ])
        prog = SeoProgram(3, [Gate("ROTX", 2, 0.3), outer, Gate("SIGX", 0)])
        prog.validate()
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    def test_empty_loop_body(self):
        prog = SeoProgram(2, [
            Gate("ROTX", 0, 0.5), Loop(1, 4, []), Gate("SIGX", 1, None, ((0, True),)),
        ])
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12

    def test_compiled_program_with_out_of_order_loop_ids(self):
        spec = FruitSpec("t", 3, 3, 0.2, 2, "0,1;3,3", nt_line=4, r_line=2,
                         nt_tree=4, nt_meta=4, r_meta=4)
        prog, _ = compile_fruit(spec)
        ids = []

        def collect(items):
            for item in items:
                if isinstance(item, Loop):
                    ids.append(item.id)
                    collect(item.body)

        collect(prog.body)
        assert ids != sorted(ids)
        assert frobenius_distance(program_unitary(prog), flat_unitary(prog)) <= 1e-12


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
