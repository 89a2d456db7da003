import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpha_extremal.graphs import (
    CliqueJoinCliques,
    CliqueJoinMatching,
    CliqueJoinRegular,
    CompleteSplit,
    Graph,
    construct,
)
from alpha_extremal.spectral import (
    SpectralResult,
    alpha_index,
    alpha_matrix,
    collatz_wielandt_bound,
    jacobi_eigensystem,
    quotient_alpha_index,
    quotient_matrix,
    require_weight,
)
from conftest import delete_edge

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def rayleigh_quotient(g, alpha, x):
    """Edgewise Rayleigh quotient of a*D + (1-a)*A at the vector x.

    Sum over edges uv of a*x_u^2 + 2(1-a)*x_u*x_v + a*x_v^2, normalized by
    the squared norm. Never exceeds the alpha index.
    """
    a = require_weight(alpha)
    vec = [float(t) for t in x]
    if len(vec) != g.n:
        raise ValueError(f"vector length {len(vec)} != order {g.n}")
    norm2 = sum(t * t for t in vec)
    if norm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    total = 0.0
    for u, v in g.edges():
        total += a * (vec[u] * vec[u] + vec[v] * vec[v]) + 2.0 * (1.0 - a) * vec[u] * vec[v]
    return total / norm2


def eigh_oracle(g, a):
    """Independent dense eigensolver (LAPACK) for cross-checks."""
    return float(np.linalg.eigvalsh(alpha_matrix(g, a))[-1])


class TestAlphaMatrix:
    def test_empty_graph_matrix_is_zero(self):
        assert not alpha_matrix(Graph.empty(3), 0.7).any()

    def test_path_matrix_at_half(self):
        mat = alpha_matrix(Graph.path(3), 0.5)
        want = np.array([[0.5, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.array_equal(mat, want)

    def test_weight_zero_is_adjacency(self):
        mat = alpha_matrix(Graph.complete(3), 0.0)
        assert np.array_equal(mat, np.ones((3, 3)) - np.eye(3))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            alpha_matrix(Graph.complete(2), 1.5)
        with pytest.raises(ValueError):
            alpha_matrix(Graph.complete(2), -0.1)


class TestAlphaIndex:
    def test_complete_graphs(self):
        for n in (1, 2, 4, 7):
            for a in ALPHAS:
                assert alpha_index(Graph.complete(n), a).alpha_index == pytest.approx(
                    n - 1, abs=1e-11
                )

    def test_star_values(self):
        assert alpha_index(Graph.star(3), 0.5).alpha_index == pytest.approx(2.0, abs=1e-11)
        assert alpha_index(Graph.star(3), 0.0).alpha_index == pytest.approx(
            math.sqrt(3), abs=1e-11
        )

    def test_oracle_agreement_and_residual(self, graphs_by_order):
        for n in (1, 2, 3, 4, 5, 6):
            for g in graphs_by_order[n]:
                for a in ALPHAS:
                    result = alpha_index(g, a)
                    assert result.residual <= 1e-10
                    assert result.alpha_index == pytest.approx(eigh_oracle(g, a), abs=1e-9)

    def test_row_sum_and_max_degree_bounds(self, graphs_by_order):
        for g in graphs_by_order[6]:
            for a in ALPHAS:
                rho = alpha_index(g, a).alpha_index
                assert 2 * g.edge_count() / g.n <= rho + 1e-10
                assert rho <= g.max_degree() + 1e-10

    def test_regular_graphs_have_degree_index_and_flat_vector(self, graphs_by_order):
        seen = 0
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                degs = set(g.degrees())
                if len(degs) != 1:
                    continue
                d = degs.pop()
                seen += 1
                for a in (0.2, 0.5, 0.8):
                    result = alpha_index(g, a)
                    assert result.alpha_index == pytest.approx(d, abs=1e-10)
                    if g.is_connected():
                        flat = 1.0 / math.sqrt(g.n)
                        assert all(x == pytest.approx(flat, abs=1e-8) for x in result.vector)
        assert seen > 20

    def test_perron_vector_positive_connected(self, graphs_by_order):
        for g in graphs_by_order[6][::10]:
            if not g.is_connected():
                continue
            result = alpha_index(g, 0.4)
            assert all(x > 0 for x in result.vector)

    def test_strict_subgraph_monotonicity(self, graphs_by_order):
        rng = np.random.default_rng(3)
        connected = [g for g in graphs_by_order[7] if g.is_connected() and g.edge_count() > 6]
        picks = rng.choice(len(connected), size=25, replace=False)
        for idx in picks:
            g = connected[int(idx)]
            edges = g.edges()
            u, v = edges[int(rng.integers(len(edges)))]
            smaller = delete_edge(g, u, v)
            for a in (0.25, 0.5, 0.75):
                assert alpha_index(g, a).alpha_index > alpha_index(smaller, a).alpha_index + 1e-9

    def test_signless_laplacian_bridge(self, graphs_by_order):
        # Q = D + A assembled independently; q(G) must equal twice the
        # half-weight index.
        for g in graphs_by_order[5] + graphs_by_order[6][::5]:
            adj = np.zeros((g.n, g.n))
            for u, v in g.edges():
                adj[u, v] = adj[v, u] = 1.0
            q_matrix = np.diag(adj.sum(axis=1)) + adj
            q = float(np.linalg.eigvalsh(q_matrix)[-1])
            assert 2 * alpha_index(g, 0.5).alpha_index == pytest.approx(q, abs=1e-9)

    def test_deterministic_repeat(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)])
        first = alpha_index(g, 0.37)
        second = alpha_index(g, 0.37)
        assert first == second

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError):
            alpha_index(Graph.empty(0), 0.5)

    def test_large_instance_self_consistency(self):
        rng = np.random.default_rng(7)
        edges = [(i, j) for i in range(200) for j in range(i + 1, 200) if rng.random() < 0.08]
        result = alpha_index(Graph.from_edges(200, edges), 0.4)
        assert result.residual <= 1e-10

    def test_json_shape(self):
        result = alpha_index(Graph.complete(3), 0.5)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert set(data) == {"rho", "residual", "vector"}
        assert len(data["vector"]) == 3


class TestCollatzWielandtBound:
    def test_bounds_alpha_index(self, graphs_by_order):
        with_isolated = 0
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                with_isolated += 0 in g.degrees()
                for a in (0.1, 0.25, 0.5, 0.75, 0.9):
                    assert collatz_wielandt_bound(g, a, 0) >= alpha_index(g, a).alpha_index - 1e-12
        assert with_isolated == 1 + 1 + 2 + 4 + 11 + 34 + 156  # the graphs of order n - 1

    def test_exact_on_regular_components(self):
        assert collatz_wielandt_bound(Graph.cycle(7), 0.3, 0) == 2.0
        assert collatz_wielandt_bound(Graph.complete(5), 0.8, 0) == pytest.approx(4.0, abs=1e-15)
        assert collatz_wielandt_bound(Graph.empty(4), 0.5, 0) == 0.0

    def test_star_closed_form(self):
        # Centre: 3a + (1-a)*3/3; leaves: a + (1-a)*3. The index is below both.
        for a in (0.2, 0.5, 0.7):
            bound = collatz_wielandt_bound(Graph.star(3), a, 0)
            assert bound == pytest.approx(max(1 + 2 * a, 3 - 2 * a), abs=1e-15)
            assert bound >= alpha_index(Graph.star(3), a).alpha_index

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            collatz_wielandt_bound(Graph.complete(3), 1.5, 0)

    def test_power_steps_tighten_and_stay_above(self, graphs_by_order):
        with_isolated = 0
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                with_isolated += 0 in g.degrees()
                for a in (0.1, 0.25, 0.5, 0.75, 0.9):
                    tight = collatz_wielandt_bound(g, a, 2)
                    assert alpha_index(g, a).alpha_index - 1e-12 <= tight
                    assert tight <= collatz_wielandt_bound(g, a, 0)
        assert with_isolated == 209

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))),
        st.floats(0.0, 1.0), st.integers(0, 4))
    def test_power_steps_property(self, graph, a, steps):
        n, pairs = graph
        g = Graph.from_edges(n, {(min(p), max(p)) for p in pairs if p[0] != p[1]})
        tight = collatz_wielandt_bound(g, a, steps)
        assert alpha_index(g, a).alpha_index - 1e-12 <= tight <= collatz_wielandt_bound(g, a, 0)


class TestJacobi:
    def test_diagonal_matrix_zero_sweeps(self):
        values, vectors, sweeps = jacobi_eigensystem(np.diag([3.0, 1.0, 2.0]))
        assert sweeps == 0
        assert list(values) == [3.0, 1.0, 2.0]
        assert np.array_equal(vectors, np.eye(3))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
        min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))))
    def test_eigensystem_reconstructs_matrix(self, matrix):
        # Exactly symmetric input: the solver copies rotated rows into columns.
        n, entries = matrix
        upper = np.zeros((n, n))
        upper[np.triu_indices(n)] = entries
        sym = upper + np.triu(upper, 1).T
        values, vectors, _ = jacobi_eigensystem(sym)
        again = vectors @ np.diag(values) @ vectors.T
        assert np.allclose(again, sym, atol=1e-11)
        assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-12)

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", [CliqueJoinMatching(100, 3), CliqueJoinCliques(100, 2, 3, 33)])
    def test_order_100_joins_converge(self, spec):
        # The paper's many-block joins: 310 and 410 sweeps at weight 1/2.
        g = construct(spec)
        result = alpha_index(g, 0.5)
        assert result.residual <= 1e-10
        oracle = np.linalg.eigvalsh(alpha_matrix(g, 0.5))[-1]
        assert abs(result.alpha_index - oracle) <= 1e-9

    def test_high_multiplicity_spectrum(self):
        # Joins of many equal blocks: the slow-draining case for Jacobi.
        g = construct(CliqueJoinCliques(41, 2, 4, 10))
        result = alpha_index(g, 0.3)
        assert result.residual <= 1e-10


class TestQuotient:
    FAMILIES = [
        CompleteSplit(4, 1),
        CompleteSplit(9, 3),
        CompleteSplit(6, 6),
        CliqueJoinCliques(10, 2, 3, 3),
        CliqueJoinCliques(13, 4, 5, 2),
        CliqueJoinMatching(9, 2),  # even matching part
        CliqueJoinMatching(10, 2),  # odd part, needs the third class
        CliqueJoinMatching(11, 3),  # odd part with a real clique
        CliqueJoinRegular(12, 3, 4),
        CliqueJoinRegular(20, 2, 3),
    ]

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_quotient_matches_dense(self, spec):
        g = construct(spec)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert quotient_alpha_index(spec, a) == pytest.approx(
                alpha_index(g, a).alpha_index, abs=1e-9
            )

    def test_known_values(self):
        assert quotient_alpha_index(CompleteSplit(3, 1), 0.5) == pytest.approx(1.5, abs=1e-11)
        assert quotient_alpha_index(CompleteSplit(4, 1), 0.5) == pytest.approx(2.0, abs=1e-11)
        assert quotient_alpha_index(CliqueJoinCliques(10, 2, 3, 3), 0.5) == pytest.approx(
            (7 + math.sqrt(13)) / 2, abs=1e-11
        )

    def test_matrix_shape(self):
        assert quotient_matrix(CompleteSplit(9, 3), 0.5).shape == (2, 2)
        assert quotient_matrix(CliqueJoinMatching(10, 2), 0.5).shape == (3, 3)
        assert quotient_matrix(CompleteSplit(6, 6), 0.5).shape == (1, 1)


class TestRayleigh:
    def test_perron_vector_reaches_index(self, graphs_by_order):
        for g in graphs_by_order[5][::3]:
            result = alpha_index(g, 0.6)
            assert rayleigh_quotient(g, 0.6, result.vector) == pytest.approx(
                result.alpha_index, abs=1e-9
            )

    def test_flat_vector_on_edge(self):
        assert rayleigh_quotient(Graph.complete(2), 0.5, (1.0, 1.0)) == pytest.approx(1.0)

    def test_single_end_vertex_on_path(self):
        # x = e_1 picks out the diagonal entry a*d(end) = 1/2.
        assert rayleigh_quotient(Graph.path(3), 0.5, (1.0, 0.0, 0.0)) == pytest.approx(0.5)

    def test_never_exceeds_index(self, graphs_by_order):
        rng = np.random.default_rng(5)
        for g in graphs_by_order[6][::12]:
            rho = alpha_index(g, 0.3).alpha_index
            for _ in range(5):
                x = rng.normal(size=g.n)
                assert rayleigh_quotient(g, 0.3, x) <= rho + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            rayleigh_quotient(Graph.complete(3), 0.5, (0.0, 0.0, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(Graph.complete(3), 0.5, (1.0, 1.0))
