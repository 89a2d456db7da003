import collections
import functools
import hashlib
import itertools
import math

import numpy as np
import pytest

from alpha_extremal import enumeration, harness
from alpha_extremal.bounds import StarForestSpec
from alpha_extremal.canon import canonical_form, canonical_labeling_masks, orbit, stabilizer
from alpha_extremal.enumeration import (
    EnumerationCapError,
    build,
    emits,
    enumerate_graphs,
    kept_node,
    leaf_degree_sums,
    leaves,
    nodes,
)
from alpha_extremal.graph6 import encode_graph6
from alpha_extremal.graphs import Graph, mask_of, permute_mask
from alpha_extremal.minors import BicliqueMinor, CliqueMinor, is_minor_free
from alpha_extremal.spectral import degree_vector_bound
from alpha_extremal.star_forests import is_star_forest_free
from conftest import (
    GRAPH_CENSUS,
    alpha_matrix,
    brute_force_automorphisms,
    generated_group,
    unpruned_labeling,
)

# Predicates closed under vertex deletion, as the census and the sweep use them.
# A single star cannot be a StarForestSpec (it needs two stars), so S3 is
# covered by S3+S1 and by the sweep's K_{1,3}-minor predicate.
HEREDITARY = {
    "K3-minor-free": lambda g: is_minor_free(g, CliqueMinor(3)),
    "K4-minor-free": lambda g: is_minor_free(g, CliqueMinor(4)),
    "K5-minor-free": lambda g: is_minor_free(g, CliqueMinor(5)),
    "K6-minor-free": lambda g: is_minor_free(g, CliqueMinor(6)),
    "K22-minor-free": lambda g: is_minor_free(g, BicliqueMinor(2, 2)),
    "K23-minor-free": lambda g: is_minor_free(g, BicliqueMinor(2, 3)),
    "K33-minor-free": lambda g: is_minor_free(g, BicliqueMinor(3, 3)),
    "K13-minor-free": lambda g: is_minor_free(g, BicliqueMinor(1, 3)),
    "S1+S1-free": lambda g: is_star_forest_free(g, StarForestSpec((1, 1))),
    "S2+S2-free": lambda g: is_star_forest_free(g, StarForestSpec((2, 2))),
    "S3+S1-free": lambda g: is_star_forest_free(g, StarForestSpec((3, 1))),
}

# Their order-8 walks take 18 to 57 s each, so the deferred leaves of these
# are checked to order 7.
COSTLY_AT_ORDER_8 = {"K5-minor-free", "K6-minor-free", "K33-minor-free"}

# The claim classes among them, whose min_degree_ceiling the census carries.
CLAIM_CLASSES = {
    "K3-minor-free": harness.CliqueMinorFree(3),
    "K4-minor-free": harness.CliqueMinorFree(4),
    "K5-minor-free": harness.CliqueMinorFree(5),
    "K6-minor-free": harness.CliqueMinorFree(6),
    "K22-minor-free": harness.BicliqueMinorFree(2, 2),
    "K23-minor-free": harness.BicliqueMinorFree(2, 3),
    "K33-minor-free": harness.BicliqueMinorFree(3, 3),
    "S1+S1-free": harness.StarForestFree(StarForestSpec((1, 1))),
    "S2+S2-free": harness.StarForestFree(StarForestSpec((2, 2))),
    "S3+S1-free": harness.StarForestFree(StarForestSpec((3, 1))),
}


def ceiling(name):
    """The min_degree_ceiling of the claim class of HEREDITARY[name]; none
    (math.inf) for every graph (name None) and for K_{1,3}-minor-free."""
    return CLAIM_CLASSES[name].min_degree_ceiling if name in CLAIM_CLASSES else math.inf


def stream_digest(graphs):
    """SHA-256 of the walk's graph6 stream, one graph per line."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(encode_graph6(g).encode() + b"\n")
    return h.hexdigest()


def untwinned_ties(adj):
    """The vertices tied with the last vertex v on (degree, sorted neighbor
    degrees) that are not twins of v."""
    v = len(adj) - 1
    return [u for u in enumeration._deletion_candidates(adj)[1:]
            if adj[u] & ~(1 << v) != adj[v] & ~(1 << u)]


def keep_all(g):
    return True


def emitted(leaf, keep):
    """The lazy leaf's graph if the walk emits it, else None."""
    return built[0] if (built := build(leaf)) is not None and emits(built, keep) else None


def lazy_leaves(n, **kwargs):
    """Every lazy leaf (parent, generators, mask) of the walk, in walk order."""
    return [leaf for leaf, _ in leaves(n, **kwargs)]


def by_parent(pairs):
    """The (leaf, note) pairs of ``leaves`` grouped by parent, in walk order:
    (parent, gens, {mask: note}) per parent with a leaf."""
    return [(parent, gens, {mask: note for (_, _, mask), note in group})
            for (parent, gens), group in itertools.groupby(pairs, key=lambda pair: pair[0][:2])]


def walk_below(n, roots, keep=keep_all):
    """graph6 of the order-n graphs the walk emits below ``roots``, in order:
    their lazy leaves, each decided."""
    return [encode_graph6(g) for leaf in lazy_leaves(n, keep=keep, roots=roots)
            if (g := emitted(leaf, keep)) is not None]


def flat_masks(m, adj, gens):
    """Oracle for ``enumeration._masks``: the same neighbor masks as one flat
    stream, in (size, lexicographic) order."""
    degs = [row.bit_count() for row in adj]
    for size in range(min(m, min(degs, default=0) + 1) + 1):
        forced = [u for u in range(m) if degs[u] < size]
        if len(forced) > size:
            break
        base = mask_of(forced)
        free = [u for u in range(m) if degs[u] >= size]
        for i, combo in enumerate(itertools.combinations(free, size - len(forced))):
            mask = base | mask_of(combo)
            if not i or not gens or all(m2 >= mask for m2 in orbit(mask, gens, permute_mask)):
                yield mask


def mask_orbit_labels(n, gens):
    """Each vertex mask's orbit under ``gens``, labeled by its minimum."""
    labels = {}
    for mask in range(1 << n):
        if mask not in labels:
            labels.update(dict.fromkeys(orbit(mask, gens, permute_mask), mask))
    return labels


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
        # The walk with the largest groups, pinned byte for byte as well.
        count = 0

        def walk():
            nonlocal count
            for g in enumerate_graphs(9):
                count += 1
                yield g

        assert stream_digest(walk()) == (
            "10a5a66c3daadbc7e3246a5ff9442e5a53eda62a49df3d2b59cf994cf5a53008"
        )
        assert count == GRAPH_CENSUS[9]

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

    def test_root_not_below_the_order_refused_before_walking(self):
        calls = []

        def keep(g):
            calls.append(g)
            return g.n < 6

        roots = nodes(3, keep=keep)
        calls.clear()
        walk = leaves(3, keep=keep, roots=roots)
        with pytest.raises(ValueError, match="order 3"):
            next(walk)
        assert calls == []
        # Roots below the order still give the order-3 leaves.
        pairs = list(leaves(3, keep=keep, roots=nodes(2, keep=keep)))
        assert pairs and [(g, mask, note) for (g, _, mask), note in pairs] == [
            (g, mask, note) for (g, _, mask), note in leaves(3, keep=keep)]


class TestSharding:
    """Splitting a walk by its nodes: round-robin shares of one order's
    nodes, each walked below as ``roots``, cover the census."""

    @pytest.mark.parametrize("nshards", [2, 3, 5])
    def test_union_equals_full_enumeration(self, nshards, graphs_by_order):
        full = [encode_graph6(g) for g in graphs_by_order[7]]
        prefix = nodes(6, keep=keep_all)
        merged = [g6 for shard in range(nshards) for g6 in walk_below(7, prefix[shard::nshards])]
        assert sorted(merged) == sorted(full)
        assert len(merged) == len(set(merged))

    def test_single_shard_is_identity(self, graphs_by_order):
        # The walks below one order's nodes, in node order, are the walk.
        for n, m in ((7, 6), (7, 3), (6, 1), (4, 0)):
            full = [encode_graph6(g) for g in graphs_by_order[n]]
            assert walk_below(n, nodes(m, keep=keep_all)) == full

    def test_nodes_are_the_walk(self, graphs_by_order):
        for m in range(1, 7):
            assert [g for g, _, _ in nodes(m, keep=keep_all)] == graphs_by_order[m]

    def test_order_one(self):
        prefix = nodes(0, keep=keep_all)
        assert prefix == [enumeration.ROOT]
        assert walk_below(1, prefix[0::2]) == [encode_graph6(Graph(1, (0,)))]
        assert walk_below(1, prefix[1::2]) == []


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
        prefix = nodes(6, keep=keep)
        assert walk_below(7, prefix, keep) == whole
        for nshards in (2, 3, 5):
            merged = [g6 for shard in range(nshards)
                      for g6 in walk_below(7, prefix[shard::nshards], keep)]
            assert sorted(merged) == sorted(whole)

    def test_rejected_root_yields_nothing(self):
        assert list(enumerate_graphs(1, keep=lambda g: False)) == []
        assert list(enumerate_graphs(4, keep=lambda g: False)) == []


class TestDeferredLeaves:
    """The walk leaves its order-n children undecided and unbuilt; deciding
    them, in any order, gives the graphs it emits."""

    @pytest.mark.parametrize("name, n", [
        (name, n) for name in sorted(HEREDITARY) for n in range(1, 9)
        if n < 8 or name not in COSTLY_AT_ORDER_8
    ])
    def test_decided_last_to_first_are_the_walk(self, name, n):
        # One answer per graph across the three passes below.
        keep = functools.cache(HEREDITARY[name])
        found = lazy_leaves(n, keep=keep)
        decided = [emitted(leaf, keep) for leaf in reversed(found)][::-1]
        assert [g for g in decided if g is not None] == list(enumerate_graphs(n, keep=keep))
        assert [(node := kept_node(leaf, keep)) and node[0] for leaf in found] == decided
        for parent, gens, mask in found:
            # An undecided leaf is an orbit-minimal neighbor mask under its
            # parent's group, whose generators are automorphisms.
            assert parent.n == n - 1
            assert mask == min(orbit(mask, gens, permute_mask))
            assert all(parent.relabel(h) == parent for h in gens)

    @pytest.mark.parametrize("name", [None, "K4-minor-free", "S2+S2-free"])
    def test_roots_handed_their_groups_are_not_labeled(self, monkeypatch, name):
        keep = HEREDITARY.get(name, lambda g: True)
        want = list(enumerate_graphs(8, keep=keep))
        prefix = nodes(6, keep=keep)
        labeled = []
        label = enumeration.canonical_labeling_masks

        def counted(n, adj):
            labeled.append(adj)
            return label(n, adj)

        monkeypatch.setattr(enumeration, "canonical_labeling_masks", counted)
        found = lazy_leaves(8, keep=keep, roots=prefix)
        assert [g for leaf in found if (g := emitted(leaf, keep)) is not None] == want
        assert not {g.adj for g, _, _ in prefix} & set(labeled)
        for g, gens, _ in prefix:
            assert generated_group(g.n, gens) == set(brute_force_automorphisms(g))


class TestWalkPins:
    """The walk's output, byte for byte, as the generator before
    degree-targeted neighbor sets and membership-first labeling emitted it."""

    def test_all_graphs_order_8(self, graphs_order_8):
        assert stream_digest(graphs_order_8) == (
            "ad1646ccda544491b0f23beea4fe1cfa17367486991a0e6c42bda8c4c04a4105"
        )

    @pytest.mark.parametrize("name, digest", [
        ("K4-minor-free", "aac31a8a7dbbc5c625d39e7e087457e609b32237eef510ee3c156c29a08060fb"),
        ("S2+S2-free", "5675f2b388b4029f737c053bfd547207000b292a5281ebe2e94f071ce57c6120"),
    ])
    def test_pruned_order_9(self, name, digest):
        assert stream_digest(enumerate_graphs(9, keep=HEREDITARY[name])) == digest

    @pytest.mark.parametrize("name", ["K4-minor-free", "S2+S2-free"])
    def test_pruned_order_9_labels_equal_the_unpruned_search(self, monkeypatch, name):
        labeled = []
        label = enumeration.canonical_labeling_masks

        def noted(n, adj):
            perm, gens = label(n, adj)
            labeled.append((adj, perm))
            return perm, gens

        monkeypatch.setattr(enumeration, "canonical_labeling_masks", noted)
        for _ in enumerate_graphs(9, keep=HEREDITARY[name]):
            pass
        assert labeled
        for adj, perm in labeled:
            assert perm == unpruned_labeling(len(adj), adj)[0]


class TestDerivedGroups:
    """A kept child that no tie test labeled gets its group from its parent's:
    the stabilizer of its new vertex's neighbor set, by Schreier generators."""

    def test_stabilizer_matches_brute_force(self, graphs_by_order):
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                automorphisms = brute_force_automorphisms(g)
                gens = canonical_labeling_masks(g.n, g.adj)[1]
                for mask in range(1 << n):
                    fixers = {a for a in automorphisms if permute_mask(mask, a) == mask}
                    assert generated_group(n, stabilizer(mask, gens, permute_mask)) == fixers

    @pytest.mark.parametrize("name", [None, "K4-minor-free", "K23-minor-free", "S2+S2-free"])
    def test_children_tried_under_the_labeled_orbits(self, monkeypatch, name):
        handed = []
        masks = enumeration._masks

        def noted(g, gens):
            handed.append((g, gens))
            return masks(g, gens)

        monkeypatch.setattr(enumeration, "_masks", noted)
        for _ in enumerate_graphs(8, keep=HEREDITARY.get(name, lambda g: True)):
            pass
        assert {g.n for g, _ in handed} == set(range(0, 8))
        for g, gens in handed:
            assert all(g.relabel(h) == g for h in gens)
            labeled = canonical_labeling_masks(g.n, g.adj)[1]
            assert mask_orbit_labels(g.n, gens) == mask_orbit_labels(g.n, labeled)


class TestMaskGroups:
    """Each node hands ``reach`` its children's neighbor masks as one lazy
    group per size, in size order: flattened, they are the flat oracle's."""

    def test_flattened_are_the_flat_masks(self, graphs_by_order):
        checked = 0
        for g in [Graph(0, ())] + [g for n in range(1, 8) for g in graphs_by_order[n]]:
            gens = canonical_labeling_masks(g.n, g.adj)[1]
            groups = [(size, list(masks)) for size, masks in enumeration._masks(g, gens)]
            assert [mask for _, masks in groups for mask in masks] == list(flat_masks(g.n, g.adj, gens))
            sizes = [size for size, _ in groups]
            assert sizes == sorted(set(sizes))
            assert all(mask.bit_count() == size for size, masks in groups for mask in masks)
            checked += len(groups)
        assert checked


def every_third_dropped(asked):
    """A ``reach`` that drops every third child of each node (keeping the
    first), notes each child it keeps by (its parent's adjacency, its mask),
    and records, per node asked, the node, the note it was handed and the
    masks it kept."""
    def reach(parent, note, groups):
        assert parent.adj not in asked
        kept = [mask for i, mask in enumerate(mask for _, masks in groups for mask in masks)
                if (i + 1) % 3]
        asked[parent.adj] = parent, note, kept
        return {mask: (parent.adj, mask) for mask in kept}
    return reach


def kept_children(parent, masks, keep):
    """The adjacencies of the children of ``parent`` on ``masks`` that the
    walk keeps."""
    return [g.adj for mask in masks if (g := emitted((parent, [], mask), keep)) is not None]


def parent_note(g):
    """The note every_third_dropped gives the walk node g: its parent's
    adjacency (g without its last vertex) and its last vertex's mask."""
    low = (1 << g.n - 1) - 1
    return tuple(row & low for row in g.adj[:-1]), g.adj[-1]


class TestReachContract:
    """A caller's ``reach`` filters the children of every kept node below
    the target order, the parents of the order-n leaves included, and
    gives each kept child a note that the child carries."""

    @pytest.mark.parametrize("name", [None, "K4-minor-free", "S2+S2-free"])
    def test_asked_once_per_kept_node_and_families_hold_its_masks(self, name):
        keep = HEREDITARY.get(name, keep_all)
        asked = {}
        families = by_parent(leaves(7, keep=keep, reach=every_third_dropped(asked)))
        # The leaves of each parent are exactly the masks reach kept for it,
        # and the order-6 nodes asked are the leaves' parents.
        assert [list(masks) for _, _, masks in families] == [asked[g.adj][2] for g, _, _ in families]
        assert [adj for adj, (g, _, _) in asked.items() if g.n == 6] == [g.adj for g, _, _ in families]
        assert any(len(masks) < len(list(flat_masks(g.n, g.adj, gens)))
                   for g, gens, masks in families)
        # The nodes asked are the root and the kept children of the nodes
        # asked below order 6, each once.
        children = [adj for g, _, kept in asked.values() if g.n < 6
                    for adj in kept_children(g, kept, keep)]
        assert sorted(asked) == sorted([enumeration.ROOT[0].adj] + children)

    @pytest.mark.parametrize("name", [None, "K4-minor-free"])
    def test_nodes_ask_once_per_node_below_their_order(self, name):
        keep = HEREDITARY.get(name, keep_all)
        asked = {}
        found = nodes(5, keep=keep, reach=every_third_dropped(asked))
        children = [adj for g, _, kept in asked.values() for adj in kept_children(g, kept, keep)]
        assert max(g.n for g, _, _ in asked.values()) == 4
        assert sorted(asked) == sorted([enumeration.ROOT[0].adj]
                                       + [adj for adj in children if len(adj) < 5])
        assert [g.adj for g, _, _ in found] == [adj for adj in children if len(adj) == 5]

    @pytest.mark.parametrize("name", [None, "K4-minor-free", "S2+S2-free"])
    def test_each_node_carries_the_note_reach_gave_its_mask(self, name):
        keep = HEREDITARY.get(name, keep_all)
        root = (Graph(0, ()), [], "root")
        found = nodes(5, keep=keep, reach=every_third_dropped({}), roots=[root])
        assert found and all(note == parent_note(g) for g, _, note in found)
        asked = {}
        families = by_parent(leaves(7, keep=keep, reach=every_third_dropped(asked), roots=[root]))
        # reach is handed each node's own note, the root's as given.
        assert {g.n for g, _, _ in asked.values()} == set(range(7))
        assert all(note == (parent_note(g) if g.n else "root") for g, note, _ in asked.values())
        # The leaves of each parent are the masks reach kept, and only those,
        # in order, each with the note reach gave it.
        assert families
        for g, _, notes in families:
            assert list(notes.items()) == [(mask, (g.adj, mask)) for mask in asked[g.adj][2]]
        # The default reach notes None.
        assert all(note is None for _, _, note in nodes(5, keep=keep))
        assert all(note is None for _, note in leaves(6, keep=keep))

    @pytest.mark.parametrize("name", [None, "K4-minor-free"])
    def test_masks_never_read_are_never_orbit_tested(self, monkeypatch, name):
        # A reach that stops reading at size c, as the census stops at its
        # class's ceiling, has no larger neighbor set orbit-tested; one that
        # also skips the whole groups below size b at the leaves' parents,
        # as the census skips the sizes whose bound cannot reach its floor,
        # has none of those either. Each keeps what a reach that reads every
        # mask and filters keeps.
        keep, b, c = HEREDITARY.get(name, keep_all), 2, 2
        tested = collections.Counter()  # orbit tests of masks, by (node order, size)
        counted = enumeration.orbit

        def noted(point, gens, *image):
            if image == (permute_mask,):
                tested[len(gens[0]), point.bit_count()] += 1
            return counted(point, gens, *image)

        monkeypatch.setattr(enumeration, "orbit", noted)

        def walk(reach):
            tested.clear()
            found = [(g.adj, mask) for (g, _, mask), _ in leaves(8, keep=keep, reach=reach)]
            return found, dict(tested)

        def grouped(low):
            def reach(parent, note, groups):
                return dict.fromkeys(mask for size, masks in itertools.takewhile(
                    lambda group: group[0] <= c, groups) if low(parent.n) <= size for mask in masks)
            return reach

        def flattened(low):
            def reach(parent, note, groups):
                return {mask: None for _, masks in groups for mask in masks
                        if low(parent.n) <= mask.bit_count() <= c}
            return reach

        def tests_only_what_it_keeps(reach, low):
            (found, its_tests), (want, every) = walk(reach), walk(flattened(low))
            assert found == want and found
            assert any(not low(order) <= size <= c for order, size in every)
            return its_tests == {(order, size): count for (order, size), count in every.items()
                              if low(order) <= size <= c}

        def every_size(order):
            return 0

        def skipped_below_b(order):
            return b if order == 7 else 0

        assert tests_only_what_it_keeps(grouped(every_size), every_size)
        assert tests_only_what_it_keeps(grouped(skipped_below_b), skipped_below_b)
        # A planted reach that flattens every group first tests them all.
        assert not tests_only_what_it_keeps(flattened(skipped_below_b), skipped_below_b)


def family_walk(n, *, keep, roots, reach):
    """Oracle for ``leaves``: the recursive walk that handed the leaves over
    one parent at a time, as (parent, gens, {mask: note}), flattened to the
    (leaf, note) pairs."""
    def children(g, gens, notes):
        for mask, note in notes.items():
            if (child := kept_node((g, gens, mask), keep)) is not None:
                yield *child, note

    def descend(g, gens, note):
        notes = reach(g, note, enumeration._masks(g, gens))
        if g.n + 1 == n:
            yield g, gens, notes
            return
        for node in children(g, gens, notes):
            yield from descend(*node)

    for root in roots:
        for g, gens, notes in descend(*root):
            yield from (((g, gens, mask), note) for mask, note in notes.items())


def breadth_first(n, *, keep, roots, reach):
    """A planted defect: the same leaves, but reach asked about every node
    of one order before any node of the next."""
    level = [(g, gens, reach(g, note, enumeration._masks(g, gens))) for g, gens, note in roots]
    while level and level[0][0].n + 1 < n:
        level = [(h, hgens, reach(h, note, enumeration._masks(h, hgens)))
                 for g, gens, notes in level for mask, note in notes.items()
                 if (child := kept_node((g, gens, mask), keep)) is not None
                 for h, hgens in [child]]
    yield from (((g, gens, mask), note) for g, gens, notes in level for mask, note in notes.items())


def recorded(walk, n, keep, roots, reach, pairs=None):
    """(the first ``pairs`` (leaf, note) pairs of walk(n, ...), all by
    default; the adjacency of each node reach was asked about, in order)."""
    asked = []

    def noted(parent, note, groups):
        asked.append(parent.adj)
        return reach(parent, note, groups)

    found = list(itertools.islice(walk(n, keep=keep, roots=roots, reach=noted), pairs))
    return found, asked


def on_one_path(asked, root, parent):
    """Whether the nodes ``asked`` run down one path from ``root`` to
    ``parent``, each the one before with a vertex added."""
    return asked[0] == root.adj and asked[-1] == parent.adj and all(
        len(child) == len(node) + 1 and tuple(row & ~(1 << len(node)) for row in child[:-1]) == node
        for node, child in zip(asked, asked[1:]))


# Fresh reaches: every_third_dropped refuses to be asked twice about a node.
REACHES = {"all": lambda: enumeration._reach_all, "every third dropped": lambda: every_third_dropped({})}


class TestFlatWalk:
    """``leaves`` yields what the recursive walk by parent did, flattened, in
    the same order, asking reach about the same nodes in the same order, and
    asks about no node off the first root-to-leaf path before the first
    leaf."""

    @staticmethod
    def walks_agree(walk, n, keep, roots, make_reach):
        return recorded(walk, n, keep, roots, make_reach()) == recorded(
            family_walk, n, keep, roots, make_reach())

    @staticmethod
    def lazy(walk, n, keep, roots, make_reach):
        [((parent, _, _), _)], asked = recorded(walk, n, keep, roots, make_reach(), pairs=1)
        return on_one_path(asked, roots[0][0], parent)

    @pytest.mark.parametrize("reach", sorted(REACHES))
    @pytest.mark.parametrize("name", sorted(HEREDITARY))
    def test_equals_the_recursive_walk(self, name, reach):
        keep, make_reach = functools.cache(HEREDITARY[name]), REACHES[reach]
        for m in (0, 2, 4):
            roots = nodes(m, keep=keep, reach=make_reach())
            for n in range(m + 1, 8):
                assert self.walks_agree(leaves, n, keep, roots, make_reach), (m, n)
                assert self.lazy(leaves, n, keep, roots, make_reach), (m, n)

    def test_catches_a_breadth_first_walk(self):
        roots = [enumeration.ROOT]
        for make_reach in REACHES.values():
            assert self.walks_agree(leaves, 6, keep_all, roots, make_reach)
            assert self.lazy(leaves, 6, keep_all, roots, make_reach)
            # The same pairs in the same order, but reach asked level by level.
            assert recorded(breadth_first, 6, keep_all, roots, make_reach())[0] == recorded(
                leaves, 6, keep_all, roots, make_reach())[0]
            assert not self.walks_agree(breadth_first, 6, keep_all, roots, make_reach)
            assert not self.lazy(breadth_first, 6, keep_all, roots, make_reach)


BORDERED_WEIGHTS = (0.1, 0.25, 0.5, 0.75, 0.9)


def dense_indices(adjacency, a):
    """The alpha index of each 0/1 adjacency matrix in a stack, by eigvalsh."""
    m = adjacency.shape[-1]
    matrices = a * adjacency.sum(axis=-1)[..., None] * np.eye(m) + (1.0 - a) * adjacency
    return np.linalg.eigvalsh(matrices)[..., -1]


def carried_bound_failures(keep, order, start, c):
    """(checked, failures) of a bound carried down the walk to ``order``:
    from each kept node A of exact index rho, the child on k neighbours with
    derived degree sums (leaf_degree_sums) starts from start(rho, sums, a, k).
    That start, carried on by harness._descendant_bound under the ceiling c
    of ``keep``'s class as the census carries it, must bound every kept
    descendant 1, 2 or 3 levels below A through that child, at every weight
    of BORDERED_WEIGHTS."""
    checked = failures = 0

    def walk(g, gens, above):
        nonlocal checked, failures
        # The order-0 root's index is taken as 0, as the census takes it.
        rho = [float(dense_indices(alpha_matrix(g, 0.0), a)) if g.n else 0.0
               for a in BORDERED_WEIGHTS]
        masks = [mask for (_, _, mask), _ in leaves(g.n + 1, keep=keep, roots=[(g, gens, None)])]
        for mask, sums in zip(masks, leaf_degree_sums(g, masks)):
            if (node := kept_node((g, gens, mask), keep)) is None:
                continue
            m, k = g.n + 1, mask.bit_count()
            path = above + [([start(r, sums, a, k) for r, a in zip(rho, BORDERED_WEIGHTS)], k)]
            want = [float(dense_indices(alpha_matrix(node[0], 0.0), a)) for a in BORDERED_WEIGHTS]
            for j, (tops, k) in enumerate(reversed(path[-3:]), start=1):
                for a, top, w in zip(BORDERED_WEIGHTS, tops, want):
                    checked += 1
                    failures += harness._descendant_bound(top, a, k, m - j + 1, j - 1, c) < w - 1e-12
            if m < order:
                walk(*node, path)

    walk(*enumeration.ROOT[:2], [])
    return checked, failures


def degree_start(rho, sums, a, k):
    """The start of a child from its own derived degree sums alone."""
    return degree_vector_bound(sums, a)


def without_degree_growth(top, a, k, order, j, c):
    """A planted defect: harness._descendant_bound as if every step added a
    vertex on at most k neighbours, not k + i at step i."""
    for i in range(1, j + 1):
        top = harness.bordered_bound(top, a, min(k, order + i - 1, c))
    return top


def with_a_lowered_ceiling(monkeypatch):
    """Plant a defect: harness._descendant_bound carrying c - 1, not c."""
    carry = harness._descendant_bound
    monkeypatch.setattr(harness, "_descendant_bound",
                        lambda top, a, k, order, j, c: carry(top, a, k, order, j, c - 1))


# The classes whose ceiling some member of order <= 7 attains.
TIGHT_AT_ORDER_7 = ["K3-minor-free", "K4-minor-free", "K22-minor-free", "K23-minor-free"]


class TestDescendantBound:
    """The degree_vector_bound of a child's derived degree sums, carried
    down by harness._descendant_bound under its class's min_degree_ceiling,
    bounds every node that the walk keeps 1, 2 or 3 levels below the child's
    parent through it. With the size class's bordered start (test_harness's
    TestBorderedBound), this is what lets a census skip a child whose
    smaller bound falls short of its floor at every weight."""

    @pytest.mark.parametrize("name, order", [(None, 7)] + [
        (name, 8) for name in sorted(HEREDITARY) if name not in COSTLY_AT_ORDER_8])
    def test_bounds_every_kept_descendant(self, name, order):
        checked, failures = carried_bound_failures(HEREDITARY.get(name, keep_all), order, degree_start,
                                                   ceiling(name))
        assert checked and failures == 0

    def test_catches_a_planted_defect(self, monkeypatch):
        monkeypatch.setattr(harness, "_descendant_bound", without_degree_growth)
        checked, failures = carried_bound_failures(keep_all, 7, degree_start, math.inf)
        assert checked and failures

    @pytest.mark.parametrize("name", TIGHT_AT_ORDER_7)
    def test_catches_a_lowered_ceiling(self, monkeypatch, name):
        with_a_lowered_ceiling(monkeypatch)
        checked, failures = carried_bound_failures(HEREDITARY[name], 7, degree_start, ceiling(name))
        assert checked and failures

    def test_is_the_pairs_themselves_at_zero_steps(self):
        # A child of the target order is keyed by its own bound, uncarried.
        for parent, _, masks in by_parent(leaves(6)):
            for mask, sums in zip(masks, leaf_degree_sums(parent, masks)):
                for a in BORDERED_WEIGHTS:
                    top = degree_vector_bound(sums, a)
                    assert harness._descendant_bound(top, a, mask.bit_count(), 6, 0, math.inf) is top


class TestKeepContract:
    @pytest.mark.parametrize("name", [None] + sorted(HEREDITARY))
    def test_sees_each_node_once_last_vertex_at_minimum_degree(self, name):
        seen = []

        def keep(g):
            seen.append(g)
            return name is None or HEREDITARY[name](g)

        for _ in enumerate_graphs(7, keep=keep):
            pass
        assert seen
        assert len({canonical_form(g) for g in seen}) == len(seen)
        for g in seen:
            degrees = g.degrees()
            assert degrees[-1] == min(degrees)

    @pytest.mark.parametrize("name", [None, "K4-minor-free", "S2+S2-free"])
    def test_nodes_labeled_once_and_untied_rejects_never(self, monkeypatch, name):
        keep = HEREDITARY.get(name, lambda g: True)
        rejected = []
        labeled = []
        label = enumeration.canonical_labeling_masks

        def noted(g):
            if keep(g):
                return True
            rejected.append(g)
            return False

        def counted(n, adj):
            labeled.append(adj)
            return label(n, adj)

        monkeypatch.setattr(enumeration, "canonical_labeling_masks", counted)
        for _ in enumerate_graphs(7, keep=noted):
            pass
        assert len(labeled) == len(set(labeled))
        for g in rejected:
            # A rejected node was labeled only to settle a tie with a vertex
            # that is not a twin of the new vertex.
            assert (g.adj in labeled) == bool(untwinned_ties(g.adj))
        for adj in labeled:
            # Nothing is labeled on descent: a kept child's group comes from
            # its tie test's labeling or from its parent's group.
            assert untwinned_ties(adj)

    @pytest.mark.parametrize("name", [None] + sorted(HEREDITARY))
    def test_keep_sees_only_children_of_kept_nodes(self, name):
        # The contract a keep may lean on: g minus its last vertex was kept.
        kept = set()
        orders = []

        def keep(g):
            orders.append(g.n)
            if g.n > 1:
                parent = Graph(g.n - 1, tuple(row & ~(1 << g.n - 1) for row in g.adj[:-1]))
                assert parent in kept
            if name is None or HEREDITARY[name](g):
                kept.add(g)
                return True
            return False

        for _ in enumerate_graphs(7, keep=keep):
            pass
        assert orders.count(1) == 1

    def test_twin_ties_settled_without_labeling(self, monkeypatch):
        # An order-7 node whose ties are all twins of its new vertex is
        # accepted without a labeling (and, at the target order, never labeled).
        labeled = []
        label = enumeration.canonical_labeling_masks

        def counted(n, adj):
            labeled.append(adj)
            return label(n, adj)

        monkeypatch.setattr(enumeration, "canonical_labeling_masks", counted)
        twin_settled = []

        def keep(g):
            if enumeration._deletion_candidates(g.adj)[1:] and not untwinned_ties(g.adj):
                twin_settled.append(g.adj)
            return True

        for _ in enumerate_graphs(7, keep=keep):
            pass
        order_7 = [adj for adj in twin_settled if len(adj) == 7]
        assert order_7 and not set(order_7) & set(labeled)
