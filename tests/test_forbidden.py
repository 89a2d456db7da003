import networkx as nx
import numpy as np
import pytest

from alpha_extremal import minors
from alpha_extremal.bounds import StarForestSpec
from alpha_extremal.graphs import (
    CliqueJoinCliques,
    CliqueJoinMatching,
    CliqueJoinRegular,
    CompleteSplit,
    Graph,
    construct,
    disjoint_union,
    union_of_copies,
)
from alpha_extremal.minors import (
    BicliqueMinor,
    CliqueMinor,
    MinorEmbedding,
    MinorSearchCapError,
    has_minor,
    is_minor_free,
    pattern_graph,
    verify_minor_embedding,
)
from alpha_extremal.star_forests import (
    StarForestEmbedding,
    contains_star_forest,
    is_star_forest_free,
    verify_star_forest_embedding,
)
from conftest import delete_edge

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestMinorBasics:
    def test_cycle_has_triangle_minor_with_certificate(self):
        emb = has_minor(Graph.cycle(5), CliqueMinor(3))
        assert emb is not None
        assert verify_minor_embedding(Graph.cycle(5), CliqueMinor(3), emb)

    def test_forests_are_exactly_triangle_minor_free(self, graphs_by_order, graphs_order_8):
        # Dual route: the branch-set search, with three distinct groups and so
        # no symmetry breaking, must agree with leaf stripping on every graph
        # of order <= 8.
        def triangle_free(g):
            return minors._branch_set_search(g, Graph.complete(3), [0, 1, 2]) is None

        for n in range(1, 8):
            for g in graphs_by_order[n]:
                assert triangle_free(g) == g.is_forest()
        for g in graphs_order_8:
            assert triangle_free(g) == g.is_forest()

    def test_split_graph_is_k4_minor_free(self):
        g = construct(CompleteSplit(6, 2))
        assert is_minor_free(g, CliqueMinor(4))
        assert has_minor(g, CliqueMinor(3)) is not None

    def test_cycle_has_no_biclique_minor(self):
        assert is_minor_free(Graph.cycle(6), BicliqueMinor(2, 3))

    def test_theorem_construction_is_biclique_minor_free(self):
        g = construct(CliqueJoinCliques(10, 2, 3, 3))
        assert is_minor_free(g, BicliqueMinor(2, 3))

    def test_petersen(self):
        assert is_minor_free(PETERSEN, CliqueMinor(6))
        emb = has_minor(PETERSEN, CliqueMinor(5))
        assert emb is not None and verify_minor_embedding(PETERSEN, CliqueMinor(5), emb)

    def test_small_patterns(self):
        assert has_minor(Graph.empty(3), CliqueMinor(1)) is not None
        assert has_minor(Graph.empty(3), CliqueMinor(2)) is None
        assert has_minor(Graph.path(2), CliqueMinor(2)) is not None

    def test_pattern_larger_than_host(self):
        assert has_minor(Graph.complete(3), CliqueMinor(4)) is None
        assert is_minor_free(Graph.complete(3), BicliqueMinor(2, 3))

    def test_complete_graph_contains_its_own_bicliques(self):
        emb = has_minor(Graph.complete(5), BicliqueMinor(2, 3))
        assert emb is not None
        assert verify_minor_embedding(Graph.complete(5), BicliqueMinor(2, 3), emb)

    def test_host_cap_refusal(self):
        with pytest.raises(MinorSearchCapError, match="12"):
            has_minor(Graph.path(13), CliqueMinor(4))

    def test_fast_path_ignores_cap(self):
        # is_minor_free stops at the acyclicity decider at any order; a
        # certificate needs the search, which the cap bounds.
        assert is_minor_free(Graph.path(30), CliqueMinor(3))
        with pytest.raises(MinorSearchCapError):
            has_minor(Graph.cycle(13), CliqueMinor(3))

    def test_deciders_ignore_cap(self):
        # No search is needed, so no host order is refused: a 13-vertex
        # path has no K4 minor, and a wheel on 13 vertices has one.
        wheel = Graph.from_edges(13, list(Graph.cycle(12).edges()) + [(v, 12) for v in range(12)])
        assert is_minor_free(Graph.path(13), CliqueMinor(4))
        assert not is_minor_free(wheel, CliqueMinor(4))
        assert is_minor_free(Graph.cycle(13), BicliqueMinor(2, 3))
        assert not is_minor_free(wheel, BicliqueMinor(2, 3))
        assert is_minor_free(Graph.path(13), BicliqueMinor(2, 2))
        assert not is_minor_free(Graph.cycle(13), BicliqueMinor(2, 2))


class TestMinorInvariance:
    def test_relabeling_invariance(self, graphs_by_order):
        rng = np.random.default_rng(9)
        for g in graphs_by_order[6][::7]:
            for pattern in (CliqueMinor(4), BicliqueMinor(2, 2)):
                want = is_minor_free(g, pattern)
                for _ in range(3):
                    perm = tuple(int(v) for v in rng.permutation(6))
                    assert is_minor_free(g.relabel(perm), pattern) == want

    def test_subgraph_monotonicity(self, graphs_by_order):
        for g in graphs_by_order[6][::5] + graphs_by_order[7][::40]:
            for pattern in (CliqueMinor(4), BicliqueMinor(2, 2)):
                if not is_minor_free(g, pattern):
                    continue
                for u, v in g.edges():
                    assert is_minor_free(delete_edge(g, u, v), pattern)

    def test_certificate_tampering_detected(self):
        emb = has_minor(Graph.cycle(5), CliqueMinor(3))
        bad = MinorEmbedding((emb.branch_sets[0], emb.branch_sets[0], emb.branch_sets[2]))
        assert not verify_minor_embedding(Graph.cycle(5), CliqueMinor(3), bad)
        disconnected = MinorEmbedding(((0,), (2,), (1, 3)))
        assert not verify_minor_embedding(Graph.cycle(5), CliqueMinor(3), disconnected)


DECIDED = (CliqueMinor(3), CliqueMinor(4), BicliqueMinor(2, 2), BicliqueMinor(2, 3))
DECIDED_IDS = ("K3", "K4", "K22", "K23")


def branch_set_free(g, pattern):
    """The exhaustive search alone: the oracle for the exact deciders."""
    return minors._branch_set_search(g, pattern_graph(pattern), minors._tie_groups(pattern)) is None


class TestExactDeciders:
    @pytest.mark.parametrize("pattern", DECIDED, ids=DECIDED_IDS)
    def test_agree_with_branch_set_search(self, graphs_by_order, pattern):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                assert is_minor_free(g, pattern) == branch_set_free(g, pattern), g

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern", DECIDED, ids=DECIDED_IDS)
    def test_agree_on_order_eight(self, graphs_order_8, pattern):
        for g in graphs_order_8:
            assert is_minor_free(g, pattern) == branch_set_free(g, pattern), g

    @pytest.mark.parametrize("pattern", DECIDED, ids=DECIDED_IDS)
    def test_present_minor_keeps_its_certificate(self, graphs_by_order, pattern):
        present = 0
        for g in graphs_by_order[7]:
            emb = has_minor(g, pattern)
            if emb is not None:
                present += 1
                assert verify_minor_embedding(g, pattern, emb)
        free = {CliqueMinor(3): 37, CliqueMinor(4): 360, BicliqueMinor(2, 2): 96, BicliqueMinor(2, 3): 302}[pattern]
        assert present == 1044 - free

    @pytest.mark.parametrize("pattern", DECIDED, ids=DECIDED_IDS)
    def test_absence_needs_no_search(self, monkeypatch, pattern):
        def never(*args):
            raise AssertionError("branch-set search run for a minor-free host")

        monkeypatch.setattr(minors, "_branch_set_search", never)
        hosts = {
            CliqueMinor(3): [Graph.path(12), Graph.star(11),
                             disjoint_union(Graph.star(5), Graph.path(6))],
            CliqueMinor(4): [construct(CompleteSplit(12, 2)), Graph.cycle(12), Graph.star(11)],
            BicliqueMinor(2, 2): [construct(CliqueJoinMatching(11, 2)), Graph.path(12),
                                  union_of_copies(4, Graph.complete(3))],
            BicliqueMinor(2, 3): [construct(CliqueJoinCliques(10, 2, 3, 3)), Graph.cycle(12),
                                  union_of_copies(3, Graph.complete(4))],
        }[pattern]
        for g in hosts:
            assert is_minor_free(g, pattern)

    @pytest.mark.parametrize("pattern", DECIDED, ids=DECIDED_IDS)
    def test_presence_needs_no_search(self, monkeypatch, pattern):
        hosts = {
            CliqueMinor(3): [Graph.complete(3), Graph.cycle(12)],
            CliqueMinor(4): [Graph.complete(5), Graph.complete(4)],
            BicliqueMinor(2, 2): [Graph.cycle(4), Graph.complete(4)],
            BicliqueMinor(2, 3): [Graph.complete(5), Graph.complete_bipartite(2, 3)],
        }[pattern]
        certificates = [has_minor(g, pattern) for g in hosts]

        def never(*args):
            raise AssertionError("branch-set search run for a membership answer")

        monkeypatch.setattr(minors, "_branch_set_search", never)
        for g, emb in zip(hosts, certificates):
            assert not is_minor_free(g, pattern)
            assert emb is not None and verify_minor_embedding(g, pattern, emb)

    def test_k4_blocks_are_k23_minor_free(self):
        # Two K4 blocks sharing a cut vertex have no K_{2,3} minor; an ear
        # between two vertices of one K4 block makes one.
        two_blocks = Graph.from_edges(7, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                                      + [(u, v) for u in range(3, 7) for v in range(u + 1, 7)])
        assert is_minor_free(two_blocks, BicliqueMinor(2, 3))
        assert not is_minor_free(two_blocks, CliqueMinor(4))
        eared = Graph.from_edges(5, list(Graph.complete(4).edges()) + [(0, 4), (1, 4)])
        emb = has_minor(eared, BicliqueMinor(2, 3))
        assert emb is not None and verify_minor_embedding(eared, BicliqueMinor(2, 3), emb)


class TestStarForests:
    def test_matching_in_k4(self):
        emb = contains_star_forest(Graph.complete(4), StarForestSpec((1, 1)))
        assert emb is not None
        assert verify_star_forest_embedding(Graph.complete(4), StarForestSpec((1, 1)), emb)

    def test_star_has_no_two_disjoint_edges(self):
        assert is_star_forest_free(Graph.star(5), StarForestSpec((1, 1)))

    def test_path_five(self):
        emb = contains_star_forest(Graph.path(5), StarForestSpec((2, 1)))
        assert emb is not None

    def test_matching_construction_is_free(self):
        f92 = construct(CliqueJoinMatching(9, 2))
        assert is_star_forest_free(f92, StarForestSpec((2, 2)))

    def test_two_disjoint_paths_need_six_vertices(self):
        # S2+S2 occupies six vertices, so K_5 cannot contain it while K_6 does.
        spec = StarForestSpec((2, 2))
        assert is_star_forest_free(Graph.complete(5), spec)
        emb = contains_star_forest(Graph.complete(6), spec)
        assert emb is not None and verify_star_forest_embedding(Graph.complete(6), spec, emb)

    def test_empty_graphs_are_always_free(self):
        for spec in (StarForestSpec((1, 1)), StarForestSpec((3, 2))):
            assert is_star_forest_free(Graph.empty(8), spec)

    def test_relabeling_invariance(self, graphs_by_order):
        rng = np.random.default_rng(13)
        spec = StarForestSpec((2, 1))
        for g in graphs_by_order[6][::9]:
            want = is_star_forest_free(g, spec)
            for _ in range(3):
                perm = tuple(int(v) for v in rng.permutation(6))
                assert is_star_forest_free(g.relabel(perm), spec) == want

    def test_certificate_tampering_detected(self):
        spec = StarForestSpec((1, 1))
        emb = contains_star_forest(Graph.complete(4), spec)
        shared = StarForestEmbedding(emb.centers, (emb.leaves[0], emb.leaves[0]))
        assert not verify_star_forest_embedding(Graph.complete(4), spec, shared)

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 1), (2, 2), (2, 1, 1)])
    def test_anchored_certificates_use_the_anchor(self, graphs_by_order, degrees):
        spec = StarForestSpec(degrees)
        found = 0
        for n in range(2, 8):
            for g in graphs_by_order[n]:
                for v in range(n):
                    emb = contains_star_forest(g, spec, anchor=v)
                    if emb is None:
                        continue
                    found += 1
                    assert verify_star_forest_embedding(g, spec, emb)
                    assert v in emb.centers or any(v in leaves for leaves in emb.leaves)
        assert found


class TestStarForestOracle:
    SPECS = [StarForestSpec((1, 1)), StarForestSpec((2, 1)), StarForestSpec((2, 2))]

    @staticmethod
    def nx_forest(spec):
        forest = nx.Graph()
        base = 0
        for d in spec.degrees:
            forest.add_edges_from((base, base + i) for i in range(1, d + 1))
            base += d + 1
        return forest

    def test_agrees_with_networkx_monomorphism(self, graphs_by_order):
        for spec in self.SPECS:
            forest = self.nx_forest(spec)
            for n in range(2, 7):
                for g in graphs_by_order[n]:
                    matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), forest)
                    assert matcher.subgraph_is_monomorphic() == (
                        contains_star_forest(g, spec) is not None
                    )

    def test_agrees_on_order_seven(self, graphs_by_order):
        for spec in self.SPECS:
            forest = self.nx_forest(spec)
            for g in graphs_by_order[7]:
                matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), forest)
                assert matcher.subgraph_is_monomorphic() == (
                    contains_star_forest(g, spec) is not None
                )


class TestConstructionMembership:
    def test_complete_split_is_clique_minor_free(self):
        for r in (3, 4, 5):
            for n in range(max(r - 1, 3), 11):
                g = construct(CompleteSplit(n, r - 2))
                assert is_minor_free(g, CliqueMinor(r))
                if n >= r:
                    assert not is_minor_free(g, CliqueMinor(r - 1))

    def test_clique_join_cliques_is_biclique_minor_free(self):
        for s, t in [(2, 2), (2, 3), (3, 3)]:
            for n in range(s + t, 11):
                p, rem = divmod(n - s + 1, t)
                if rem or p < 1:
                    continue
                g = construct(CliqueJoinCliques(n, s, t, p))
                assert is_minor_free(g, BicliqueMinor(s, t))

    def test_regular_join_is_star_forest_free(self):
        for degrees in [(2, 1), (2, 2), (3, 2)]:
            spec = StarForestSpec(degrees)
            k, d = spec.k, spec.min_degree
            for n in range(k + 2, 11):
                m = n - k + 1
                if d == 2:
                    g = construct(CliqueJoinMatching(n, k))
                elif 0 <= d - 1 < m and (d - 1) * m % 2 == 0:
                    g = construct(CliqueJoinRegular(n, k, d))
                else:
                    continue
                assert is_star_forest_free(g, spec)

    def test_pattern_graph_shapes(self):
        assert pattern_graph(CliqueMinor(4)) == Graph.complete(4)
        assert pattern_graph(BicliqueMinor(2, 3)) == Graph.complete_bipartite(2, 3)
        assert pattern_graph(CliqueMinor(4)) is pattern_graph(CliqueMinor(4))  # built once
