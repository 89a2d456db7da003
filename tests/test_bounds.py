import math

import pytest

from alpha_extremal.bounds import (
    QuadraticBound,
    StarForestSpec,
    biclique_q_bound,
    clique_join_order_minimum,
    clique_join_quadratic,
    complete_split_lower_bounds,
    complete_split_quadratic,
    lower_bound_crossover,
    lower_bound_gap,
    second_lower_bound_threshold,
    star_forest_edge_bound,
    star_forest_order_threshold,
    star_forest_order_threshold_connected,
    star_forest_q_bound,
    star_minor_edge_bound,
)
from alpha_extremal.graphs import Graph, join, regular_circulant
from alpha_extremal.spectral import alpha_index


def evaluate(q: QuadraticBound, x: float) -> float:
    return x * x + q.b * x + q.c


def smallest_root(q: QuadraticBound) -> float:
    # Companion root via c/r avoids cancellation when |r| dominates.
    r = q.largest_root
    if r != 0.0:
        return q.c / r
    return (-q.b - math.sqrt(q.discriminant())) / 2.0


class TestQuadraticBound:
    def test_roots(self):
        q = QuadraticBound(-3.0, 2.0)  # (x-1)(x-2)
        assert q.largest_root == pytest.approx(2.0)
        assert smallest_root(q) == pytest.approx(1.0)
        assert evaluate(q, q.largest_root) == pytest.approx(0.0, abs=1e-12)

    def test_no_real_root(self):
        with pytest.raises(ValueError):
            _ = QuadraticBound(0.0, 1.0).largest_root

    def test_stability_for_large_parameters(self):
        # Coefficients of the size the harness produces at large n.
        q = complete_split_quadratic(10**6, 6, 0.5)
        r = q.largest_root
        assert evaluate(q, r) == pytest.approx(0.0, abs=1e-3 * abs(r))
        assert smallest_root(q) < r


class TestStarForestSpec:
    def test_sorted_nonincreasing(self):
        spec = StarForestSpec((1, 3, 2))
        assert spec.degrees == (3, 2, 1)
        assert spec.k == 3
        assert spec.degree_sum == 6
        assert spec.min_degree == 1
        assert spec.label() == "S3+S2+S1"

    def test_needs_two_stars(self):
        with pytest.raises(ValueError):
            StarForestSpec((2,))

    def test_degrees_positive(self):
        with pytest.raises(ValueError):
            StarForestSpec((2, 0))


class TestCompleteSplitQuadratic:
    def test_adjacency_case(self):
        # Weight 0 reduces to the adjacency matrix; the star K_{1,3}.
        q = complete_split_quadratic(4, 2, 0.0)
        assert (q.b, q.c) == (0.0, -3.0)
        assert q.largest_root == pytest.approx(math.sqrt(3))

    def test_path_case(self):
        q = complete_split_quadratic(3, 2, 0.5)
        assert (q.b, q.c) == (-1.5, 0.0)
        assert q.largest_root == pytest.approx(1.5)

    def test_k3_case(self):
        q = complete_split_quadratic(10, 3, 0.5)
        assert (q.b, q.c) == (-6.0, 1.0)
        assert q.largest_root == pytest.approx(3 + 2 * math.sqrt(2))

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_split_quadratic(10, 1, 0.5)
        with pytest.raises(ValueError):
            complete_split_quadratic(1, 3, 0.5)
        with pytest.raises(ValueError):
            complete_split_quadratic(10, 3, 1.0)

    def test_root_matches_eigensolver_above_degenerate_boundary(self, graphs_by_order):
        from alpha_extremal.graphs import CompleteSplit, construct

        for k in (2, 3, 4):
            for n in range(k, 9):
                g = construct(CompleteSplit(n, k - 1))
                for a in (0.25, 0.5, 0.75):
                    assert complete_split_quadratic(n, k, a).largest_root == pytest.approx(
                        alpha_index(g, a).alpha_index, abs=1e-9
                    )

    def test_degenerate_boundary_overshoots(self):
        # At n = k-1 the independent part is empty: K_2's index is 1 but the
        # quadratic's largest root exceeds it.
        root = complete_split_quadratic(2, 3, 0.6).largest_root
        assert root == pytest.approx(1.2)
        assert alpha_index(Graph.complete(2), 0.6).alpha_index == pytest.approx(1.0)


class TestLowerBounds:
    def test_plug_in_values(self):
        low1, low2 = complete_split_lower_bounds(100, 2, 0.5)
        assert low1 == pytest.approx(49.5)
        assert low2 == pytest.approx(49.5)

    def test_second_bound_absent_below_threshold(self):
        # k=3 at weight 0.1 needs n >= 327.
        assert second_lower_bound_threshold(3, 0.1) == pytest.approx(450 - 135 + 12)
        low1, low2 = complete_split_lower_bounds(100, 3, 0.1)
        assert low2 is None
        _, low2 = complete_split_lower_bounds(330, 3, 0.1)
        assert low2 is not None

    def test_small_order_high_weight_keeps_second_bound(self):
        # The threshold expression evaluates to ~2.56 here, so n=5 qualifies.
        assert second_lower_bound_threshold(3, 0.9) == pytest.approx(
            9 / 1.62 - 27 / 1.8 + 12
        )
        low1, low2 = complete_split_lower_bounds(5, 3, 0.9)
        assert low2 is not None
        root = complete_split_quadratic(5, 3, 0.9).largest_root
        assert low1 <= root + 1e-9 and low2 <= root + 1e-9

    def test_bounds_below_root_on_grid(self):
        for k in range(2, 7):
            for n in (k, k + 3, 20, 60):
                for ai in range(1, 10):
                    a = ai / 10
                    root = complete_split_quadratic(n, k, a).largest_root
                    low1, low2 = complete_split_lower_bounds(n, k, a)
                    assert low1 <= root + 1e-9
                    if low2 is not None:
                        assert low2 <= root + 1e-9


class TestLowerBoundGap:
    def test_crossover_zero(self):
        assert lower_bound_gap(3, 0.75) == pytest.approx(0.0, abs=1e-15)
        assert lower_bound_crossover(3) == pytest.approx(0.75)

    def test_plug_in(self):
        assert lower_bound_gap(3, 0.5) == pytest.approx(0.5)
        assert lower_bound_gap(2, 0.9) == pytest.approx(0.8 * -0.1 / 1.8)

    def test_gap_equals_direct_subtraction(self):
        for k in (2, 3, 5):
            for a in (0.2, 0.5, 0.77):
                n = 500
                low1, low2 = complete_split_lower_bounds(n, k, a)
                assert low2 is not None
                assert lower_bound_gap(k, a) == pytest.approx(low2 - low1, abs=1e-9)

    def test_sign_pattern(self):
        for k in range(2, 7):
            cross = lower_bound_crossover(k)
            assert lower_bound_gap(k, cross - 0.05) > 0
            assert lower_bound_gap(k, cross + 0.05 if cross + 0.05 < 1 else 0.99) < 0


class TestCliqueJoinQuadratic:
    def test_coefficients_for_biclique_instance(self):
        q = clique_join_quadratic(10, 2, 3, 0.5)
        assert (q.b, q.c) == (-7.0, 9.0)
        assert q.largest_root == pytest.approx((7 + math.sqrt(13)) / 2)
        assert evaluate(q, q.largest_root) == pytest.approx(0.0, abs=1e-12)

    def test_equality_on_regular_part(self):
        # K_1 joined to the 19-cycle attains the bound exactly.
        g = join(Graph.complete(1), regular_circulant(19, 2))
        root = clique_join_quadratic(20, 2, 3, 0.5).largest_root
        assert root == pytest.approx(10.1231, abs=5e-5)
        assert alpha_index(g, 0.5).alpha_index == pytest.approx(root, abs=1e-9)

    def test_order_minimum(self):
        assert clique_join_order_minimum(2, 3, 0.5) == pytest.approx(6.0)
        with pytest.raises(ValueError, match="n >="):
            clique_join_quadratic(5, 2, 3, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            clique_join_quadratic(10, 2, 1, 0.5)
        with pytest.raises(ValueError):
            clique_join_quadratic(10, 0, 3, 0.5)
        with pytest.raises(ValueError):
            clique_join_quadratic(10, 2, 3, 0.0)


class TestEdgeBounds:
    def test_star_forest_values(self):
        assert star_forest_edge_bound(StarForestSpec((2, 2)), 10) == pytest.approx(22.5)
        assert star_forest_edge_bound(StarForestSpec((1, 1)), 4) == pytest.approx(4.5)
        assert star_forest_edge_bound(StarForestSpec((2, 2)), 6) == pytest.approx(12.5)

    def test_star_forest_boundary(self):
        with pytest.raises(ValueError, match="n >="):
            star_forest_edge_bound(StarForestSpec((2, 2)), 5)

    def test_star_minor_values(self):
        assert star_minor_edge_bound(6, 3) == pytest.approx(6.0)
        assert star_minor_edge_bound(7, 4) == pytest.approx(9.0)

    def test_star_minor_boundary(self):
        # h = t+2 is the smallest legal order: 5 passes for t=3, 4 refuses.
        assert star_minor_edge_bound(5, 3) == pytest.approx(5.0)
        with pytest.raises(ValueError, match="t\\+2"):
            star_minor_edge_bound(4, 3)
        with pytest.raises(ValueError):
            star_minor_edge_bound(6, 1)


class TestQBounds:
    def test_biclique_values(self):
        assert biclique_q_bound(10, 2, 3) == pytest.approx(7 + math.sqrt(13))
        assert biclique_q_bound(6, 2, 2) == pytest.approx(4 + math.sqrt(6))

    def test_star_forest_value(self):
        want = (20 + 4 + 6 - 6 + math.sqrt(16**2 + 16)) / 2
        assert star_forest_q_bound(20, StarForestSpec((3, 3))) == pytest.approx(want)
        assert want == pytest.approx(20.2462, abs=5e-5)

    def test_twice_the_join_root(self):
        for n, s, t in [(10, 2, 2), (10, 2, 3), (14, 2, 4), (25, 3, 3), (40, 3, 5), (60, 4, 4)]:
            assert biclique_q_bound(n, s, t) == pytest.approx(
                2 * clique_join_quadratic(n, s, t, 0.5).largest_root, abs=1e-9
            )
        for n, degrees in [(12, (2, 2)), (20, (3, 3)), (30, (4, 3, 3)), (60, (5, 4))]:
            spec = StarForestSpec(degrees)
            assert star_forest_q_bound(n, spec) == pytest.approx(
                2 * clique_join_quadratic(n, spec.k, spec.min_degree, 0.5).largest_root,
                abs=1e-9,
            )

    def test_domains(self):
        with pytest.raises(ValueError):
            biclique_q_bound(10, 1, 3)
        with pytest.raises(ValueError):
            biclique_q_bound(3, 2, 3)
        with pytest.raises(ValueError):
            star_forest_q_bound(10, StarForestSpec((1, 1)))


class TestOrderThresholds:
    def test_values(self):
        spec = StarForestSpec((2, 2))
        assert star_forest_order_threshold(spec, 0.5) == pytest.approx(640.0)
        assert star_forest_order_threshold_connected(spec, 0.5) == pytest.approx(320.0)

    def test_connected_is_weaker(self):
        spec = StarForestSpec((3, 2, 2))
        for a in (0.1, 0.5, 0.9):
            assert star_forest_order_threshold_connected(spec, a) <= star_forest_order_threshold(
                spec, a
            )
