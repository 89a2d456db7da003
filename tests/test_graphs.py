import itertools

import pytest

from alpha_extremal.canon import canonical_form
from alpha_extremal.graphs import (
    CliqueJoinCliques,
    CliqueJoinMatching,
    CliqueJoinRegular,
    CompleteSplit,
    FeasibilityError,
    Graph,
    construct,
    disjoint_union,
    join,
    quotient_classes,
    regular_circulant,
    union_of_copies,
)


def induced_subgraph(g, vertices):
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in itertools.combinations(keep, 2) if g.has_edge(u, v)]
    return Graph.from_edges(len(keep), edges)


def brute_force_join_edges(g, h):
    """Independent oracle: build the joined adjacency directly and count."""
    n = g.n + h.n
    count = 0
    for u in range(n):
        for v in range(u + 1, n):
            if u < g.n and v < g.n:
                count += g.has_edge(u, v)
            elif u >= g.n and v >= g.n:
                count += h.has_edge(u - g.n, v - g.n)
            else:
                count += 1
    return count


class TestGraphBasics:
    def test_from_edges_symmetry_and_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == (1, 2, 2, 1)
        assert sum(g.degrees()) == 2 * g.edge_count()
        assert g.has_edge(1, 0) and g.has_edge(0, 1)

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_edges_sorted(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2), (1, 3)]

    def test_connectivity_and_forest(self):
        assert Graph.path(5).is_connected()
        assert Graph.path(5).is_forest()
        assert not Graph.cycle(4).is_forest()
        assert not disjoint_union(Graph.path(2), Graph.path(2)).is_connected()
        assert Graph.empty(1).is_connected()

    def test_relabel_roundtrip(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        perm = (2, 0, 4, 1, 3)
        back = [0] * 5
        for v, p in enumerate(perm):
            back[p] = v
        assert g.relabel(perm).relabel(tuple(back)) == g

    def test_induced_subgraph(self):
        g = Graph.cycle(5)
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.edges() == [(0, 1), (1, 2)]


class TestJoin:
    def test_star_is_join_of_point_and_coclique(self):
        s3 = join(Graph.empty(1), Graph.empty(3))
        assert s3.edge_count() == 3
        assert sorted(s3.degrees(), reverse=True) == [3, 1, 1, 1]

    def test_k2_join_coclique(self):
        g = join(Graph.complete(2), Graph.empty(2))
        assert g.edge_count() == 5
        assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2]

    def test_point_join_two_triangles(self):
        g = join(Graph.empty(1), union_of_copies(2, Graph.complete(3)))
        assert g.n == 7
        # e(g) + e(h) + |g||h| = 0 + 6 + 6
        assert g.edge_count() == 12
        assert g.edge_count() == brute_force_join_edges(
            Graph.empty(1), union_of_copies(2, Graph.complete(3))
        )

    def test_edge_count_formula_exhaustive(self, graphs_by_order):
        for ng, nh in itertools.product(range(1, 7), repeat=2):
            for g in graphs_by_order[ng][:: max(1, ng)]:
                for h in graphs_by_order[nh][:: max(1, nh)]:
                    joined = join(g, h)
                    assert joined.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n
                    assert joined.edge_count() == brute_force_join_edges(g, h)

    def test_join_symmetric_up_to_isomorphism(self, graphs_by_order):
        for g in graphs_by_order[3]:
            for h in graphs_by_order[4]:
                assert canonical_form(join(g, h)) == canonical_form(join(h, g))

    def test_empty_operands(self):
        assert join(Graph.empty(0), Graph.complete(3)) == Graph.complete(3)
        assert join(Graph.complete(3), Graph.empty(0)) == Graph.complete(3)


class TestConstructions:
    def test_complete_split_star(self):
        g = construct(CompleteSplit(4, 1))
        assert canonical_form(g) == canonical_form(Graph.star(3))

    def test_clique_join_cliques(self):
        g = construct(CliqueJoinCliques(10, 2, 3, 3))
        assert g.n == 10
        assert g.edge_count() == 18  # 3*e(K3) + 1*9
        assert canonical_form(g) == canonical_form(
            join(Graph.empty(1), union_of_copies(3, Graph.complete(3)))
        )

    def test_clique_join_matching(self):
        g = construct(CliqueJoinMatching(6, 3))
        assert sorted(g.degrees(), reverse=True) == [5, 5, 3, 3, 3, 3]
        # Odd part leaves one isolated vertex in the matching side.
        g10 = construct(CliqueJoinMatching(10, 2))
        assert sorted(g10.degrees(), reverse=True) == [9, 2, 2, 2, 2, 2, 2, 2, 2, 1]

    def test_clique_join_regular_degrees(self):
        for n, k, d in [(10, 2, 3), (12, 3, 4), (9, 1, 2), (14, 4, 5)]:
            m = n - k + 1
            if (d - 1) * m % 2 or d - 1 >= m:
                continue
            g = construct(CliqueJoinRegular(n, k, d))
            degs = sorted(g.degrees(), reverse=True)
            assert degs[: k - 1] == [n - 1] * (k - 1)
            assert degs[k - 1 :] == [k + d - 2] * m

    def test_regular_part_connected_for_degree_two_plus(self):
        g = regular_circulant(9, 2)
        assert g.is_connected() and g.is_regular(2)
        g = regular_circulant(8, 3)
        assert g.is_connected() and g.is_regular(3)

    def test_infeasible_specs_name_the_violation(self):
        for build in (construct, quotient_classes):
            with pytest.raises(FeasibilityError, match="p\\*t"):
                build(CliqueJoinCliques(10, 2, 3, 2))
            with pytest.raises(FeasibilityError, match="parity"):
                build(CliqueJoinRegular(8, 2, 2))  # 1-regular part on 7 vertices
            with pytest.raises(FeasibilityError, match="d-1"):
                build(CliqueJoinRegular(5, 3, 5))
            with pytest.raises(FeasibilityError):
                build(CompleteSplit(4, 5))

    def test_quotient_does_not_build_the_graph(self, monkeypatch):
        from alpha_extremal import graphs
        from alpha_extremal.bounds import complete_split_quadratic
        from alpha_extremal.spectral import quotient_alpha_index

        def refuse(spec):
            raise AssertionError(f"construct({spec}) called")

        monkeypatch.setattr(graphs, "construct", refuse)
        value = quotient_alpha_index(CompleteSplit(9, 3), 0.5)
        assert value == pytest.approx(complete_split_quadratic(9, 4, 0.5).largest_root, abs=1e-10)

    def test_quotient_classes_structure(self):
        clique, parts = quotient_classes(CliqueJoinMatching(10, 2))
        assert clique == 1
        assert parts == [(8, 1), (1, 0)]
        clique, parts = quotient_classes(CompleteSplit(6, 6))
        assert clique == 6 and parts == []
