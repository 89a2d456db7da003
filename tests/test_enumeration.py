import itertools

import pytest

from alpha_extremal.bounds import StarForestSpec
from alpha_extremal.canon import canonical_form
from alpha_extremal.enumeration import EnumerationCapError, enumerate_graphs
from alpha_extremal.graph6 import encode_graph6
from alpha_extremal.graphs import Graph
from alpha_extremal.minors import BicliqueMinor, CliqueMinor, is_minor_free
from alpha_extremal.star_forests import is_star_forest_free
from conftest import GRAPH_CENSUS

# Predicates closed under vertex deletion, as the census and the sweep use them.
# A single star cannot be a StarForestSpec (it needs two stars), so S3 is
# covered by S3+S1 and by the sweep's K_{1,3}-minor predicate.
HEREDITARY = {
    "K3-minor-free": lambda g: is_minor_free(g, CliqueMinor(3)),
    "K4-minor-free": lambda g: is_minor_free(g, CliqueMinor(4)),
    "K5-minor-free": lambda g: is_minor_free(g, CliqueMinor(5)),
    "K23-minor-free": lambda g: is_minor_free(g, BicliqueMinor(2, 3)),
    "K13-minor-free": lambda g: is_minor_free(g, BicliqueMinor(1, 3)),
    "S1+S1-free": lambda g: is_star_forest_free(g, StarForestSpec((1, 1))),
    "S2+S2-free": lambda g: is_star_forest_free(g, StarForestSpec((2, 2))),
    "S3+S1-free": lambda g: is_star_forest_free(g, StarForestSpec((3, 1))),
}


def brute_force_classes(n):
    """Independent oracle: canonicalize every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    classes = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        classes.add(encode_graph6(canonical_form(Graph.from_edges(n, edges))))
    return classes


class TestCensus:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_small(self, n, graphs_by_order):
        assert len(graphs_by_order[n]) == GRAPH_CENSUS[n]

    def test_count_order_8(self, graphs_order_8):
        assert len(graphs_order_8) == GRAPH_CENSUS[8]

    @pytest.mark.slow
    def test_count_order_9(self):
        assert sum(1 for _ in enumerate_graphs(9)) == GRAPH_CENSUS[9]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_classes(self, n, graphs_by_order):
        enumerated = {encode_graph6(canonical_form(g)) for g in graphs_by_order[n]}
        assert len(enumerated) == len(graphs_by_order[n])  # no isomorphic repeats
        assert enumerated == brute_force_classes(n)

    def test_deterministic_order(self):
        first = [encode_graph6(g) for g in enumerate_graphs(6)]
        second = [encode_graph6(g) for g in enumerate_graphs(6)]
        assert first == second


class TestCapAndErrors:
    def test_cap_refusal_names_cap(self):
        with pytest.raises(EnumerationCapError, match="10"):
            next(enumerate_graphs(11))

    def test_order_below_one(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(0))


class TestSharding:
    """Splitting a walk by its nodes: round-robin shares of one order's
    nodes, each descended from as ``roots``, cover the census."""

    @pytest.mark.parametrize("nshards", [2, 3, 5])
    def test_union_equals_full_enumeration(self, nshards, graphs_by_order):
        full = [encode_graph6(g) for g in graphs_by_order[7]]
        prefix = graphs_by_order[6]
        merged = [
            encode_graph6(g)
            for shard in range(nshards)
            for g in enumerate_graphs(7, roots=prefix[shard::nshards])
        ]
        assert sorted(merged) == sorted(full)
        assert len(merged) == len(set(merged))

    def test_single_shard_is_identity(self, graphs_by_order):
        # The descents from one order's nodes, in node order, are the walk.
        for n, m in ((5, 5), (7, 6), (7, 3), (6, 1)):
            full = [encode_graph6(g) for g in graphs_by_order[n]]
            descents = [encode_graph6(g) for g in enumerate_graphs(n, roots=graphs_by_order[m])]
            assert descents == full

    def test_order_one(self):
        prefix = list(enumerate_graphs(1))
        assert [g.n for g in enumerate_graphs(1, roots=prefix[0::2])] == [1]
        assert list(enumerate_graphs(1, roots=prefix[1::2])) == []


class TestPrunedWalk:
    """The pruned walk emits exactly the filtered full walk, in the same order."""

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("name", sorted(HEREDITARY))
    def test_equals_filtered_census(self, name, n, graphs_by_order):
        keep = HEREDITARY[name]
        want = [encode_graph6(g) for g in graphs_by_order[n] if keep(g)]
        assert [encode_graph6(g) for g in enumerate_graphs(n, keep=keep)] == want

    @pytest.mark.parametrize("name", sorted(HEREDITARY))
    def test_shard_union_equals_single_shard(self, name):
        keep = HEREDITARY[name]
        whole = [encode_graph6(g) for g in enumerate_graphs(7, keep=keep)]
        prefix = list(enumerate_graphs(6, keep=keep))
        assert [encode_graph6(g) for g in enumerate_graphs(7, keep=keep, roots=prefix)] == whole
        for nshards in (2, 3, 5):
            merged = [
                encode_graph6(g)
                for shard in range(nshards)
                for g in enumerate_graphs(7, keep=keep, roots=prefix[shard::nshards])
            ]
            assert sorted(merged) == sorted(whole)

    def test_rejected_root_yields_nothing(self):
        assert list(enumerate_graphs(1, keep=lambda g: False)) == []
        assert list(enumerate_graphs(4, keep=lambda g: False)) == []
