"""Canonical labeling is validated against complete brute force: for small
orders the automorphism group found by the search must equal the set of all
permutations fixing the graph, and canonical forms must be relabeling
invariants."""

import itertools

import numpy as np

from alpha_extremal.canon import canonical_form, canonical_labeling_masks, orbit
from alpha_extremal.graph6 import encode_graph6
from alpha_extremal.graphs import Graph


def automorphism_generators(g):
    return canonical_labeling_masks(g.n, g.adj)[1]


def vertex_orbits(g):
    """Each vertex's orbit label: the orbit's minimum."""
    gens = automorphism_generators(g)
    return [min(orbit(v, gens)) for v in range(g.n)]


def brute_force_automorphisms(g):
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if g.relabel(perm) == g
    ]


def generated_group(n, gens):
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        sigma = frontier.pop()
        for gen in gens:
            composed = tuple(gen[sigma[v]] for v in range(n))
            if composed not in seen:
                seen.add(composed)
                frontier.append(composed)
    return seen


class TestAutomorphisms:
    def test_full_group_recovered_exhaustively(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                brute = set(brute_force_automorphisms(g))
                gens = automorphism_generators(g)
                assert generated_group(g.n, gens) == brute

    def test_full_group_recovered_order_6_sample(self, graphs_by_order):
        for g in graphs_by_order[6][::4]:
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
        petersen = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
             (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
        )
        assert len(generated_group(10, automorphism_generators(petersen))) == 120


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
