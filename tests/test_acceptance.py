"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import random

import numpy as np
import pytest

from nandfruit import (
    FruitLayout,
    FruitSpec,
    NandInputs,
    assemble_fruit,
    build_line_hamiltonian,
    compile_fruit,
    compile_glue,
    compile_line,
    compile_oracle,
    compile_shift,
    conjugate_by_shift,
    count_elementary_ops,
    expand,
    expi_hermitian,
    frobenius_distance,
    num_qubits_required,
    pad_controls,
    parse_english,
    program_unitary,
    spectral_norm,
    verify_compile,
    write_english,
    write_picture,
)
from nandfruit.seo import Gate, Loop, SeoProgram
from tests.test_seo import random_program


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def grid():
    for nb_line, nb_tree in itertools.product((1, 2, 3), (2, 3)):
        yield nb_line, nb_tree, FruitLayout.from_counts(nb_line, nb_tree)


def test_criterion_1_exact_components():
    rng = random.Random(2024)
    couplings = (-0.7, 0.3, 1.1)
    worst = 0.0
    checks = 0
    for nb_line, nb_tree, layout in grid():
        dim = layout.ns_total
        for g in couplings:
            for door in range(layout.ns_line):
                h = np.zeros((dim, dim))
                h[door, layout.root_index] = h[layout.root_index, door] = g
                err = frobenius_distance(
                    expi_hermitian(h),
                    program_unitary(compile_glue(layout, door, g)),
                )
                worst = max(worst, err)
                checks += 1
        for _ in range(20):
            x = NandInputs([rng.random() < 0.5 for _ in range(layout.ns_lvs)])
            g = rng.choice(couplings)
            h = np.zeros((dim, dim))
            for k, bit in enumerate(x.x):
                if bit:
                    a, b = layout.leaf_index(k), layout.extra_index(k)
                    h[a, b] = h[b, a] = g
            err = frobenius_distance(
                expi_hermitian(h), program_unitary(compile_oracle(layout, x, g))
            )
            worst = max(worst, err)
            checks += 1
        for k in {0, 1, dim - 1, layout.tree_offset, layout.extra_offset}:
            perm = np.zeros((dim, dim))
            perm[[(s + k) % dim for s in range(dim)], range(dim)] = 1
            err = frobenius_distance(
                perm, program_unitary(compile_shift(k, layout.nb_total))
            )
            worst = max(worst, err)
            checks += 1
    assert worst <= 1e-9
    report(1, f"{checks} exact-component checks, worst Frobenius error {worst:.3e}")


def test_criterion_2_trotter_order_law():
    layout = FruitLayout.from_counts(3, 3)
    target = expi_hermitian(build_line_hamiltonian(3, 0.5))

    def err(r, nt):
        return frobenius_distance(
            target, program_unitary(compile_line(layout, 0.5, r, nt))
        )

    r2 = {nt: err(2, nt) for nt in (4, 8, 16)}
    assert 3.2 <= r2[4] / r2[8] <= 4.8
    assert 3.2 <= r2[8] / r2[16] <= 4.8

    nts = (2, 4, 8)
    errs = [err(4, nt) for nt in nts]
    slope = np.polyfit(np.log([1 / nt for nt in nts]), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.5
    report(2, f"order-2 ratios {r2[4] / r2[8]:.2f}, {r2[8] / r2[16]:.2f}; "
              f"order-4 slope {slope:.2f}")


def test_criterion_3_end_to_end(tmp_path):
    for door in (0, 2):
        errors = []
        for nt_meta in (1, 2, 4):
            spec = FruitSpec(
                file_prefix=str(tmp_path / f"d{door}m{nt_meta}"),
                nb_line=3, nb_tree=3, g=0.2, door=door, bands_text="0,3",
                nt_line=4, r_line=2, nt_tree=4, nt_meta=nt_meta, r_meta=2,
            )
            program, rep = compile_fruit(spec)
            _, blocks = assemble_fruit(spec)
            reported = verify_compile(blocks.fruit, program)
            path = f"{spec.file_prefix}_qfru_eng.txt"
            write_english(program, path)
            reparsed = parse_english(path)
            recomputed = frobenius_distance(
                expi_hermitian(blocks.fruit), program_unitary(reparsed)
            )
            assert abs(reported - recomputed) <= 1e-12
            errors.append(reported)
        assert errors[0] > errors[1] > errors[2]
        report(3, f"door {door}: errors {['%.3e' % e for e in errors]} "
                  "strictly decreasing; file recomputation matches")


def test_criterion_4_commutation_facts():
    checked = 0
    for nb_line, nb_tree, layout in grid():
        for g in (-0.7, 0.3, 1.1):
            for door in range(layout.ns_line):
                spec = FruitSpec("t", nb_line, nb_tree, g, door,
                                 f"0,{layout.ns_lvs - 1}")
                _, blocks = assemble_fruit(spec)
                hl, ht = blocks.line.to_dense(), blocks.tree.to_dense()
                hg, ho = blocks.glue.to_dense(), blocks.ora.to_dense()
                assert np.all(hl @ ht - ht @ hl == 0)
                assert np.all(hg @ ho - ho @ hg == 0)
                checked += 1
    report(4, f"both commutators exactly zero on {checked} assembled instances")


def test_criterion_5_file_round_trip(tmp_path):
    rng = random.Random(99)
    for i in range(50):
        prog = random_program(rng, max_qubits=5, max_depth=3)
        eng = tmp_path / f"p{i}_eng.txt"
        pic = tmp_path / f"p{i}_pic.txt"
        write_english(prog, eng)
        write_picture(prog, pic)
        back = parse_english(eng)
        assert expand(back) == expand(prog)
        assert len(eng.read_text().splitlines()) == len(pic.read_text().splitlines())
        assert count_elementary_ops(prog) == len(expand(prog))
    spot = SeoProgram(1, [
        Gate("SIGX", 0), Gate("SIGX", 0),
        Loop(5, [Gate("SIGX", 0)] * 3),
    ])
    assert count_elementary_ops(spot) == 17
    report(5, "50 random programs round-tripped; loop counting spot value 17")


def test_criterion_6_qubit_count_formula():
    cases = {(3, 3): 5, (2, 3): 4, (1, 2): 3}
    for (nb_line, nb_tree), expected in cases.items():
        assert num_qubits_required(nb_line, nb_tree) == expected
        need = 2 ** nb_line + 3 * 2 ** (nb_tree - 1)
        brute = next(n for n in range(1, 30) if 2 ** n >= need)
        assert brute == expected
    report(6, f"qubit counts {cases} reproduced, each minimal by direct search")


def test_criterion_7_norm_relations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        fro = np.sqrt(np.sum(a * np.conj(a))).real
        assert spectral_norm(a) <= fro + 1e-12
        assert abs(frobenius_distance(a, np.zeros((8, 8))) - fro) <= 1e-12
    report(7, "spectral <= Frobenius on 100 random matrices; "
              "Frobenius matches elementwise definition")


def test_criterion_8_padding_shift_identity():
    layout = FruitLayout.from_counts(3, 3)
    frag = compile_line(layout, 0.4, 2, 4)
    u_block = program_unitary(frag)
    worst = 0.0
    for offset in (0, layout.tree_offset, layout.oracle_block_offset):
        embedded = conjugate_by_shift(
            pad_controls(frag, range(3, layout.nb_total)),
            offset, layout.nb_total,
        )
        expected = np.eye(layout.ns_total, dtype=complex)
        expected[offset:offset + 8, offset:offset + 8] = u_block
        worst = max(worst, frobenius_distance(program_unitary(embedded), expected))
    assert worst <= 1e-12
    report(8, f"embedded line block matches diag(I, U, I), worst error {worst:.3e}")
