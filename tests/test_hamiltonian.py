import time

import networkx as nx
import numpy as np
import pytest

from nandfruit import (
    FruitLayout,
    FruitSpec,
    InputError,
    assemble_fruit,
    build_line_hamiltonian,
    build_tree_hamiltonian,
    gray_code,
    num_qubits_required,
    parse_bands,
)
from nandfruit.hamiltonian import (
    MAX_COUPLING,
    MAX_ENGLISH_LINES,
    SparseSymmetric,
    line_edges,
    tree_edges,
    tree_factors,
    tree_label,
)


def pair_set(h):
    return {(i, j) for i, j, _ in h.pairs()}


class TestGrayCode:
    def test_one_qubit(self):
        assert gray_code(1) == [0, 1]

    def test_two_qubits_reflected(self):
        assert gray_code(2) == [0, 1, 3, 2]

    def test_three_qubits(self):
        assert gray_code(3) == [0, 1, 3, 2, 6, 7, 5, 4]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_properties(self, n):
        seq = gray_code(n)
        assert sorted(seq) == list(range(2 ** n))
        assert seq[0] == 0
        for u, v in zip(seq, seq[1:]):
            assert bin(u ^ v).count("1") == 1


class TestLineHamiltonian:
    def test_three_qubit_pairs(self):
        h = build_line_hamiltonian(3, 1.0)
        assert pair_set(h) == {(0, 1), (1, 3), (2, 3), (2, 6), (4, 5), (5, 7), (6, 7)}

    def test_edges_in_gray_path_order(self):
        # the compiler's even/odd split needs path order, not sorted pairs
        assert line_edges(3) == [(0, 1), (1, 3), (3, 2), (2, 6), (6, 7), (7, 5), (5, 4)]

    def test_single_qubit(self):
        h = build_line_hamiltonian(1, 0.4)
        assert h.pairs() == [(0, 1, 0.4)]

    def test_dense_matches_adjacency(self):
        # 8x8 adjacency of the three-qubit Gray-order line graph
        adj = np.zeros((8, 8))
        for u, v in [(0, 1), (1, 3), (2, 3), (2, 6), (4, 5), (5, 7), (6, 7)]:
            adj[u, v] = adj[v, u] = 1.0
        assert np.array_equal(build_line_hamiltonian(3, 0.7).to_dense(), 0.7 * adj)

    @pytest.mark.parametrize("nb", range(1, 7))
    def test_connected_path(self, nb):
        h = build_line_hamiltonian(nb, 1.0)
        dense = h.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        row_degrees = (dense != 0).sum(axis=1)
        assert set(row_degrees) <= {1, 2}
        g = nx.Graph(pair_set(h))
        assert g.number_of_edges() == 2 ** nb - 1
        assert nx.is_connected(g)


class TestTreeHamiltonian:
    def test_three_qubit_pairs(self):
        h = build_tree_hamiltonian(3, 1.0)
        assert pair_set(h) == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}

    def test_two_qubit_pairs(self):
        assert pair_set(build_tree_hamiltonian(2, 1.0)) == {(1, 2), (1, 3)}

    def test_dud_row_empty(self):
        dense = build_tree_hamiltonian(3, 1.0).to_dense()
        assert np.all(dense[0, :] == 0)
        assert np.all(dense[:, 0] == 0)

    @pytest.mark.parametrize("nb", range(2, 7))
    def test_tree_shape(self, nb):
        g = nx.Graph(pair_set(build_tree_hamiltonian(nb, 1.0)))
        assert 0 not in g
        assert nx.is_tree(g)
        assert set(g) == set(range(1, 2 ** nb))

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_factors_split_the_edges_into_matchings(self, nb):
        matchings = [m for factor in tree_factors(nb) for m in factor]
        assert sorted(edge for m in matchings for edge in m) == sorted(tree_edges(nb))
        for m in matchings:
            states = [s for edge in m for s in edge]
            assert len(set(states)) == len(states)

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_tree_label_permutes_each_depth(self, nb):
        assert tree_label(0) == 0 and tree_label(1) == 1
        for d in range(nb):
            depth = range(2 ** d, 2 ** (d + 1))
            assert sorted(tree_label(j) for j in depth) == list(depth)
        leaves = range(2 ** (nb - 1), 2 ** nb)
        assert {tree_label(j) for j in leaves} == set(leaves)
        assert all(tree_label(tree_label(j)) == j for j in range(2 ** nb))

    @pytest.mark.parametrize("nb", range(2, 11))
    def test_tree_label_edges_flip_one_mask_per_depth(self, nb):
        # right child: bit d+1 alone; left child: bits d and d+1
        for p, c in tree_edges(nb):
            d = p.bit_length() - 1
            flip = 1 << d + 1 if c % 2 else 3 << d
            assert tree_label(p) ^ tree_label(c) == flip, (p, c)


class TestParseBands:
    def test_basic(self):
        assert parse_bands("0,1;3,3", 4).x == [True, True, False, True]

    def test_empty(self):
        assert parse_bands("", 4).x == [False] * 4

    def test_arbitrary_separators(self):
        assert parse_bands("0 -- 1 ## 3 & 3", 4).x == [True, True, False, True]

    def test_mergeable(self):
        with pytest.raises(InputError, match="can be merged"):
            parse_bands("0,2 3,3", 4)

    def test_overlap(self):
        with pytest.raises(InputError, match="overlap"):
            parse_bands("0,2 2,3", 4)

    def test_decreasing(self):
        with pytest.raises(InputError, match="decreasing"):
            parse_bands("3,1", 4)

    def test_odd_count(self):
        with pytest.raises(InputError, match="even number"):
            parse_bands("0,1,2", 4)

    def test_out_of_range(self):
        with pytest.raises(InputError, match="exceeds"):
            parse_bands("0,4", 4)

    def test_dash_separates_integers(self):
        # a dash is a separator like any other non-digit, never a sign
        dashed = parse_bands("0-3", 4).x
        assert dashed == parse_bands("0,3", 4).x == parse_bands("0 3", 4).x
        assert dashed == [True] * 4
        assert parse_bands("-1,2", 4).x == [False, True, True, False]


class TestQubitCount:
    @pytest.mark.parametrize("nb_line,nb_tree,expected", [(3, 3, 5), (2, 3, 4), (1, 2, 3)])
    def test_examples(self, nb_line, nb_tree, expected):
        assert num_qubits_required(nb_line, nb_tree) == expected

    @pytest.mark.parametrize("nb_line", range(1, 6))
    @pytest.mark.parametrize("nb_tree", range(2, 6))
    def test_minimality(self, nb_line, nb_tree):
        need = 2 ** nb_line + 3 * 2 ** (nb_tree - 1)
        brute = next(n for n in range(1, 20) if 2 ** n >= need)
        assert num_qubits_required(nb_line, nb_tree) == brute


def make_spec(**kw):
    base = dict(file_prefix="t", nb_line=3, nb_tree=3, g=0.5, door=0, bands_text="")
    base.update(kw)
    return FruitSpec(**base)


class TestLayout:
    def test_indices(self):
        layout = FruitLayout.from_counts(3, 3)
        assert layout.ns_line == 8
        assert layout.dud_index == 8
        assert layout.root_index == 9
        assert layout.leaf_index(0) == 12
        assert layout.extra_index(0) == 16
        assert layout.nb_total == 5

    def test_fits_minimally(self):
        for nb_line in range(1, 5):
            for nb_tree in range(2, 5):
                lay = FruitLayout.from_counts(nb_line, nb_tree)
                used = lay.ns_line + 3 * lay.ns_tree // 2
                assert used <= lay.ns_total
                assert lay.ns_total < 2 * used


class TestAssemble:
    def test_glue_pair(self):
        _, blocks = assemble_fruit(make_spec(door=2))
        assert blocks.glue.pairs() == [(2, 9, 0.5)]

    def test_oracle_pairs(self):
        _, blocks = assemble_fruit(make_spec(bands_text="0,0;3,3"))
        assert pair_set(blocks.ora) == {(12, 16), (15, 19)}

    def test_zero_coupling(self):
        _, blocks = assemble_fruit(make_spec(g=0.0, bands_text="0,3"))
        assert np.all(blocks.fruit.to_dense() == 0)

    def test_sum_decomposition(self):
        _, blocks = assemble_fruit(make_spec(door=2, bands_text="0,1"))
        total = (
            blocks.line.to_dense() + blocks.tree.to_dense()
            + blocks.glue.to_dense() + blocks.ora.to_dense()
        )
        assert np.array_equal(blocks.fruit.to_dense(), total)
        assert np.array_equal(
            blocks.fruit.to_dense(), blocks.bulk.to_dense() + blocks.corr.to_dense()
        )

    def test_coupling_scaling(self):
        _, b1 = assemble_fruit(make_spec(g=0.3, door=2, bands_text="1,2"))
        _, b2 = assemble_fruit(make_spec(g=0.6, door=2, bands_text="1,2"))
        assert np.allclose(b2.fruit.to_dense(), 2 * b1.fruit.to_dense())

    def test_commutators_vanish(self):
        _, blocks = assemble_fruit(make_spec(door=2, bands_text="0,1"))
        hl, ht = blocks.line.to_dense(), blocks.tree.to_dense()
        hg, ho = blocks.glue.to_dense(), blocks.ora.to_dense()
        assert np.all(hl @ ht - ht @ hl == 0)
        assert np.all(hg @ ho - ho @ hg == 0)

    def test_pair_on_the_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            SparseSymmetric(4).set_pair(2, 2, 0.5)


class TestSpecValidation:
    def test_rejects_one_qubit_tree(self):
        with pytest.raises(InputError, match="tree"):
            make_spec(nb_tree=1).validate()

    def test_rejects_odd_order(self):
        with pytest.raises(InputError, match="order must be even"):
            make_spec(r_line=3).validate()

    def test_rejects_bad_door(self):
        with pytest.raises(InputError, match="door"):
            make_spec(door=8).validate()

    def test_rejects_zero_trots(self):
        with pytest.raises(InputError, match="trot"):
            make_spec(nt_meta=0).validate()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_coupling_beyond_double_precision(self, sign):
        make_spec(g=sign * MAX_COUPLING).validate()
        with pytest.raises(InputError, match="coupling constant"):
            make_spec(g=sign * np.nextafter(MAX_COUPLING, np.inf)).validate()

    def test_accepts_single_qubit_line(self):
        make_spec(nb_line=1, door=1).validate()

    @pytest.mark.parametrize("name", ["line", "meta"])
    @pytest.mark.parametrize("order", [20, 10 ** 9])
    def test_rejects_order_writing_too_many_lines(self, name, order):
        start = time.perf_counter()
        with pytest.raises(InputError, match="English lines") as err:
            make_spec(**{f"r_{name}": order}).validate()
        assert f"{name} order {order} " in str(err.value)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("spec,bound", [
        (make_spec(door=2, bands_text="0,1;3,3", nt_line=4, nt_tree=4, nt_meta=4),
         260),
        (make_spec(nb_line=6, nb_tree=5, door=2, bands_text="0,1;3,3;6,12",
                   nt_line=4, nt_tree=4, nt_meta=4), 509),
        (make_spec(nb_line=7, nb_tree=7, door=5, bands_text="0,20;40,60",
                   nt_line=4, r_line=4, nt_tree=4, nt_meta=4, r_meta=4), 4243),
    ], ids=["readme", "verify-7q", "compile-9q"])
    def test_line_bound_pinned(self, spec, bound):
        assert spec.english_line_bound() == bound

    def test_line_limit_is_the_largest_register_at_smallest_orders(self):
        # the budget admits every register admitted before orders were
        # bounded, and the largest one at line order 4 up to meta order 10
        # (at line and meta order 4 it writes 9,446 lines); at meta order 12
        # its bound passes 6 M
        largest = make_spec(nb_line=14, nb_tree=14, nt_line=2, nt_tree=2, nt_meta=2)
        assert largest.english_line_bound() <= MAX_ENGLISH_LINES
        largest.validate()
        make_spec(nb_line=14, nb_tree=14, r_line=4, r_meta=10).validate()
        with pytest.raises(InputError, match="English lines"):
            make_spec(nb_line=14, nb_tree=14, r_line=4, r_meta=12).validate()

    def test_resolve(self):
        layout, x = make_spec(bands_text="1,2").resolve()
        assert layout == FruitLayout.from_counts(3, 3)
        assert x.x == [False, True, True, False]
        with pytest.raises(InputError, match="door"):
            make_spec(door=8).resolve()
