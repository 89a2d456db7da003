"""Canonical labeling is validated against complete brute force: for small
orders the automorphism group found by the search must equal the set of all
permutations fixing the graph, and canonical forms must be relabeling
invariants. The pruned search is checked against the unpruned one, which
must pick the same leaf, and its size is bounded on symmetric graphs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpha_extremal import canon
from alpha_extremal.canon import canonical_form, canonical_labeling_masks, orbit
from alpha_extremal.graph6 import encode_graph6
from alpha_extremal.graphs import Graph, disjoint_union
from conftest import brute_force_automorphisms, generated_group, unpruned_labeling

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
     (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def automorphism_generators(g):
    return canonical_labeling_masks(g.n, g.adj)[1]


def orbit_labels(n, gens):
    """Each vertex's orbit label: the orbit's minimum."""
    return [min(orbit(v, gens)) for v in range(n)]


def vertex_orbits(g):
    return orbit_labels(g.n, automorphism_generators(g))


class TestAutomorphisms:
    def test_full_group_recovered_exhaustively(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                brute = set(brute_force_automorphisms(g))
                gens = automorphism_generators(g)
                assert generated_group(g.n, gens) == brute

    def test_full_group_recovered_order_6(self, graphs_by_order):
        for g in graphs_by_order[6]:
            brute = set(brute_force_automorphisms(g))
            assert generated_group(6, automorphism_generators(g)) == brute

    def test_orbits_match_brute_force(self, graphs_by_order):
        for g in graphs_by_order[5]:
            brute = brute_force_automorphisms(g)
            labels = [min(perm[v] for perm in brute) for v in range(g.n)]
            assert vertex_orbits(g) == labels

    def test_known_groups(self):
        assert len(generated_group(4, automorphism_generators(Graph.complete(4)))) == 24
        assert len(generated_group(5, automorphism_generators(Graph.cycle(5)))) == 10
        assert len(generated_group(4, automorphism_generators(Graph.path(4)))) == 2
        assert len(generated_group(10, automorphism_generators(PETERSEN))) == 120


class TestCanonicalForm:
    def test_relabeling_invariance_exhaustive_order_4(self, graphs_by_order):
        for g in graphs_by_order[4]:
            forms = {
                encode_graph6(canonical_form(g.relabel(perm)))
                for perm in itertools.permutations(range(4))
            }
            assert len(forms) == 1

    def test_relabeling_invariance_random_larger(self, graphs_by_order):
        rng = np.random.default_rng(42)
        for g in graphs_by_order[7][::25]:
            want = canonical_form(g)
            for _ in range(5):
                perm = tuple(int(v) for v in rng.permutation(7))
                assert canonical_form(g.relabel(perm)) == want

    def test_distinct_classes_distinct_forms(self, graphs_by_order):
        forms = {encode_graph6(canonical_form(g)) for g in graphs_by_order[6]}
        assert len(forms) == len(graphs_by_order[6])

    def test_empty_and_tiny(self):
        assert canonical_form(Graph.empty(0)) == Graph.empty(0)
        assert canonical_form(Graph.empty(1)) == Graph.empty(1)
        perm, gens = canonical_labeling_masks(0, ())
        assert perm == () and gens == []

    def test_orbit_labels_use_minimum(self):
        star = Graph.star(3)
        orbits = vertex_orbits(star)
        assert orbits[0] == 0
        assert orbits[1] == orbits[2] == orbits[3] == 1

    def test_orbit_without_generators(self):
        assert [list(orbit(v, [])) for v in range(3)] == [[0], [1], [2]]

    def test_orbit_starts_at_point_and_visits_once(self):
        cycle = tuple((v + 1) % 5 for v in range(5))
        flip = tuple((-v) % 5 for v in range(5))
        walk = list(orbit(2, [cycle, flip]))
        assert walk[0] == 2 and sorted(walk) == list(range(5))


# Blocks of a disjoint union, by vertex count.
BLOCKS = {
    "star": lambda k: Graph.star(k - 1),
    "clique": Graph.complete,
    "matching": lambda k: Graph.from_edges(k, [(v, v + 1) for v in range(0, k - 1, 2)]),
    "isolated": Graph.empty,
}


@st.composite
def symmetric_graphs(draw):
    """A disjoint union of stars, cliques, matchings and isolated vertices of
    order 8-10, randomly relabeled, and a second relabeling of it. Random
    graphs of this order are almost all asymmetric; these are not."""
    n = draw(st.integers(8, 10))
    g = Graph.empty(0)
    while g.n < n:
        kind = draw(st.sampled_from(sorted(BLOCKS)))
        g = disjoint_union(g, BLOCKS[kind](draw(st.integers(1, n - g.n))))
    return g.relabel(tuple(draw(st.permutations(range(n))))), tuple(draw(st.permutations(range(n))))


class TestAgainstUnprunedSearch:
    """Pruning never removes the first leaf of minimal code, so the labels
    are the unpruned search's, and the generators generate the same group."""

    def test_same_labels_and_group_to_order_7(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                perm, gens = canonical_labeling_masks(n, g.adj)
                want_perm, want_gens = unpruned_labeling(n, g.adj)
                assert perm == want_perm
                assert generated_group(n, gens) == generated_group(n, want_gens)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_graphs())
    def test_symmetric_unions(self, case):
        g, relabeling = case
        h = g.relabel(relabeling)
        assert canonical_form(h) == canonical_form(g)
        for graph in (g, h):
            perm, gens = canonical_labeling_masks(graph.n, graph.adj)
            want_perm, want_gens = unpruned_labeling(graph.n, graph.adj)
            assert perm == want_perm
            assert orbit_labels(graph.n, gens) == orbit_labels(graph.n, want_gens)


class TestSearchSize:
    """Refinements per labeling, one per search node. Without twin seeding
    and the jump back after an automorphism the search needs 175, 175, 129,
    51, 7 and 18."""

    @pytest.mark.parametrize("graph, bound", [
        pytest.param(Graph.empty(10), 10, id="empty"),
        pytest.param(Graph.complete(10), 10, id="K10"),
        pytest.param(Graph.star(9), 9, id="K1,9"),
        pytest.param(Graph.from_edges(10, [(v, v + 1) for v in range(0, 10, 2)]), 20, id="5K2"),
        pytest.param(Graph.cycle(10), 6, id="C10"),
        pytest.param(PETERSEN, 10, id="Petersen"),
    ])
    def test_refinements_bounded(self, monkeypatch, graph, bound):
        calls = []
        refine = canon.refine_partition

        def counted(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(canon, "refine_partition", counted)
        canonical_labeling_masks(graph.n, graph.adj)
        assert len(calls) <= bound
