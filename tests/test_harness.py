import collections
import functools
import json
import math
import re

import jsonschema
import numpy as np
import pytest

from alpha_extremal import enumeration, harness
from alpha_extremal.bounds import StarForestSpec, clique_join_quadratic, complete_split_quadratic
from alpha_extremal.graphs import (
    CliqueJoinMatching,
    FeasibilityError,
    Graph,
    construct,
    permute_mask,
    disjoint_union,
    join,
    regular_circulant,
    union_of_copies,
)
from alpha_extremal.harness import (
    TIE_TOL,
    BicliqueMinorFree,
    CliqueMinorFree,
    StarForestFree,
    canonical_graph6,
    check_theorem,
    class_member,
    classify_verdict,
    extremal_search,
    predicted_value,
    predicted_witness_spec,
    reports_to_csv,
    sweep_inequalities,
)
from alpha_extremal.spectral import (
    alpha_index,
    bordered_bound,
    degree_vector_bound,
    quotient_alpha_index,
)
from conftest import alpha_matrix, degree_sums, delete_vertex
from test_enumeration import (
    BORDERED_WEIGHTS,
    COSTLY_AT_ORDER_8,
    HEREDITARY,
    TIGHT_AT_ORDER_7,
    by_parent,
    carried_bound_failures,
    ceiling,
    dense_indices,
    emitted,
    with_a_lowered_ceiling,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "class", "n", "alpha", "exhaustive_max", "witnesses", "predicted_value",
        "predicted_witness", "verdict", "threshold_satisfied", "notes",
    ],
    "additionalProperties": False,
    "properties": {
        "class": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "exhaustive_max": {"type": "number", "minimum": 0},
        "witnesses": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "predicted_value": {"type": "number"},
        "predicted_witness": {"type": ["string", "null"]},
        "verdict": {
            "enum": ["MATCH", "PREDICTION_EXCEEDED", "PREDICTION_UNATTAINED", "SMALL_N_CAVEAT"]
        },
        "threshold_satisfied": {"type": "boolean"},
        "notes": {"type": "string"},
    },
}


ANCHORED = [CliqueMinorFree(r) for r in range(3, 7)] + [
    BicliqueMinorFree(s, t) for s, t in ((2, 2), (2, 3), (3, 3))
] + [StarForestFree(StarForestSpec(d)) for d in ((1, 1), (2, 1), (2, 2), (3, 2, 1), (2, 1, 1))]


@pytest.fixture(scope="module")
def deleted_indices(graphs_by_order):
    """For each graph of order 2..7, the census index of g - v for each v."""
    index = {m: {canonical_graph6(h): i for i, h in enumerate(graphs_by_order[m])}
             for m in range(1, 7)}
    return {
        n: [[index[n - 1][canonical_graph6(delete_vertex(g, v))] for v in range(n)]
            for g in graphs_by_order[n]]
        for n in range(2, 8)
    }


class TestAnchoredMembership:
    @pytest.mark.parametrize("cls", ANCHORED, ids=lambda cls: cls.label)
    def test_agrees_with_the_full_test(self, monkeypatch, graphs_by_order, deleted_indices, cls):
        # The walk's question, "member, given that g - v is one", has the
        # full test's answer on every graph of order <= 7 and every such v.
        # A child the new vertex does not settle asks the full minor test
        # again; that repeat is served from a cache.
        monkeypatch.setattr(harness, "is_minor_free", functools.cache(harness.is_minor_free))
        member = {n: [class_member(g, cls) for g in graphs_by_order[n]] for n in range(1, 8)}
        asked = 0
        for n in range(2, 8):
            for g, whole, below in zip(graphs_by_order[n], member[n], deleted_indices[n]):
                for v, i in enumerate(below):
                    if member[n - 1][i]:
                        asked += 1
                        assert class_member(g, cls, new=v) == whole, (g, v)
        assert asked


# The classes with a proved min_degree_ceiling, and those among them whose
# ceiling some member of order <= 9 attains: K5- and K_{3,3}-minor-free
# graphs first reach minimum degree 5 at the icosahedron, of order 12.
CEILED = [CliqueMinorFree(r) for r in (3, 4, 5)] + [
    BicliqueMinorFree(s, t) for s, t in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3))]
ATTAINED = [cls for cls in CEILED if cls not in (CliqueMinorFree(5), BicliqueMinorFree(3, 3))]


def members_above(cls, n, c):
    """The order-n members of the class with minimum degree above c, one per
    isomorphism class, in walk order. Deleting a vertex lowers the minimum
    degree by at most one, so every order-m walk ancestor of such a member
    has minimum degree above c - (n - m), and the walk keeps only those."""
    member = harness._member_of(cls)
    return list(enumeration.enumerate_graphs(
        n, keep=lambda g: min(g.degrees()) > c - (n - g.n) and member(g)))


class TestMinDegreeCeiling:
    """Every member of a class has a vertex of degree at most its
    min_degree_ceiling, which the census's walk reads and carries down:
    checked on every member of order <= 9."""

    def test_table(self):
        assert [cls.min_degree_ceiling for cls in CEILED] == [1, 2, 5, 2, 3, 4, 5, 5]
        assert all(cls.min_degree_ceiling == math.inf for cls in [
            CliqueMinorFree(6), BicliqueMinorFree(3, 4), BicliqueMinorFree(4, 4),
            StarForestFree(StarForestSpec((1, 1))), StarForestFree(StarForestSpec((2, 2)))])

    @pytest.mark.parametrize("cls", CEILED, ids=lambda cls: cls.label)
    def test_no_member_lies_above_it(self, cls):
        assert not any(members_above(cls, n, cls.min_degree_ceiling) for n in range(1, 10))

    @pytest.mark.parametrize("cls", ATTAINED, ids=lambda cls: cls.label)
    def test_catches_a_planted_defect(self, cls):
        assert any(members_above(cls, n, cls.min_degree_ceiling - 1) for n in range(1, 10))

    @pytest.mark.parametrize("cls", [CliqueMinorFree(4), BicliqueMinorFree(2, 3)],
                             ids=lambda cls: cls.label)
    def test_pruned_walk_finds_what_the_member_walk_does(self, cls):
        member = harness._member_of(cls)
        for n in range(1, 8):
            every = list(enumeration.enumerate_graphs(n, keep=member))
            for c in range(4):
                assert members_above(cls, n, c) == [g for g in every if min(g.degrees()) > c]


def counted_work(monkeypatch, n):
    """A Counter, filled as the census runs, of its walk labelings, minor or
    star-forest searches, Collatz-Wielandt bounds, order-n builds, orbit
    tests of neighbor masks and, under ("decided", m), the order-m walk
    nodes it decides."""
    counts = collections.Counter()
    for module, name in ((enumeration, "canonical_labeling_masks"),
                         (harness, "is_minor_free"), (harness, "is_star_forest_free"),
                         (harness, "collatz_wielandt_bound")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    decide = enumeration.kept_node

    def decided(leaf, keep):
        counts["decided", leaf[0].n + 1] += 1
        return decide(leaf, keep)

    monkeypatch.setattr(enumeration, "kept_node", decided)
    orbit = enumeration.orbit

    def noted_orbit(point, gens, *image):
        counts["mask orbit tests"] += image == (permute_mask,)
        return orbit(point, gens, *image)

    monkeypatch.setattr(enumeration, "orbit", noted_orbit)
    unchecked = Graph.unchecked

    def noted_build(order, adj):
        counts["built"] += order == n
        return unchecked(order, adj)

    # The walk makes its graphs through Graph.unchecked and nothing else does.
    monkeypatch.setattr(Graph, "unchecked", staticmethod(noted_build))
    return counts


class TestWorkCounts:
    """The deterministic work of census checks, so that a change that brings
    work back shows without timing: walk labelings (a tie settled by twins
    needs none, nor does a kept node, whose group comes from its parent's,
    nor a prefix root, which the prefix walk hands its group)
    and minor or star-forest searches (a minor-class child that its new
    vertex settles needs none; the star-forest ones are anchored; one more
    checks the floor witness in full). A node below order n is decided only
    when its descendants' bounds can reach the floor: walking and deciding
    every member node took 80, 157, 43, 275, 290 and 2,357 labelings and
    463, 138, 60, 347, 397 and 3,809 searches in the rows below. An order-n
    leaf is built (its graph made) only when the bound order reaches it, and
    decided only when its gate lets it through: building every leaf made
    174, 2,138, 363, 9,335 and 8,775 order-n graphs in the first five rows.
    Before each node carried a bordered bound to its children, the rows took
    52, 51, 21, 38, 48 and 151 labelings, 221, 62, 34, 48, 78 and 254
    searches, and built 3, 151, 23, 37, 83 and 442 order-n graphs. While a
    child's degree sums were grown to bound its descendants, in place of
    carrying its own bound down, the rows took 52, 44, 21, 34, 43 and 104
    labelings and 213, 59, 34, 44, 73 and 202 searches, and built as many
    order-n graphs as now. Before the walk read only the children within
    its class's min_degree_ceiling and carried that ceiling down, the rows
    took 51, 41, 20, 29, 43 and 85 labelings and 207, 53, 33, 38, 72 and 169
    searches, and built as many order-n graphs as now. A node's neighbor
    masks come in one lazy group per size, and a size whose bound cannot
    reach the floor is passed over unread, so none of its masks is
    orbit-tested: while every mask up to the ceiling was read, the rows took
    491, 721, 311, 1,538, 2,357 and 5,785 mask orbit tests."""

    @pytest.mark.parametrize("cls, n, weights, labelings, tests, built, orbits", [
        (StarForestFree(StarForestSpec((2, 2))), 9, [0.5], 51, 207, 3, 401),
        (CliqueMinorFree(4), 8, [0.25, 0.75], 18, 22, 15, 229),
        (BicliqueMinorFree(2, 3), 7, [0.5], 17, 30, 21, 200),
        (CliqueMinorFree(5), 8, [0.5], 29, 38, 19, 401),
        (BicliqueMinorFree(3, 3), 8, [0.5], 43, 72, 49, 702),
        (CliqueMinorFree(5), 9, [0.5], 77, 163, 17, 1091),
    ], ids=["T3-2,2-n9", "T1-r4-n8", "T2-s2t3-n7", "T1-r5-n8", "T2-s3t3-n8", "T1-r5-n9"])
    def test_pinned(self, monkeypatch, cls, n, weights, labelings, tests, built, orbits):
        counts = counted_work(monkeypatch, n)
        check_theorem(cls, n, weights, workers=1)
        assert counts["canonical_labeling_masks"] == labelings
        assert counts["is_minor_free"] + counts["is_star_forest_free"] == tests
        assert counts["built"] == built
        assert counts["mask orbit tests"] == orbits

    def test_no_state_outlives_a_census(self, monkeypatch, in_process_pool):
        # The T1-r4-n8 row twice in one process, then dealt to two shards
        # (run in process here): a bound kept from one census, or shared
        # between shards, would change the work of the next, and one kept
        # from an earlier test would change the first from its pins. The
        # pins include the walk nodes decided at each order 1..7. While
        # degree sums were grown down: 44 labelings, 59 searches, and 22, 72
        # and 82 nodes decided at orders 5, 6 and 7. Before the walk read
        # only the children within the class's ceiling: 41 labelings, 53
        # searches, 126 Collatz-Wielandt bounds and 1, 2, 4, 10, 23, 61 and
        # 69 nodes decided (170 in all).
        cls, n, weights = CliqueMinorFree(4), 8, [0.25, 0.75]
        pinned = {"canonical_labeling_masks": 18, "is_minor_free": 22,
                  "collatz_wielandt_bound": 101, "built": 15, "mask orbit tests": 229,
                  **{("decided", m): count for m, count in enumerate([1, 2, 3, 6, 12, 22, 42], 1)}}
        counts = counted_work(monkeypatch, n)
        for workers in (1, 1, 2):
            counts.clear()
            check_theorem(cls, n, weights, workers=workers)
            assert counts == pinned, workers
        assert in_process_pool == [2]


class TestDerivedLeafSums:
    """The census bounds each lazy leaf from its parent's degree sums, never
    building it; the built leaf's own degree_sums must agree exactly."""

    @pytest.mark.parametrize("name, n", [("all", n) for n in range(1, 8)] + [
        (name, n) for name in sorted(HEREDITARY) for n in range(1, 9)
        if n < 8 or name not in COSTLY_AT_ORDER_8
    ])
    def test_equal_the_built_leaf(self, name, n):
        keep = HEREDITARY.get(name, lambda g: True)
        checked = 0
        for parent, _, masks in by_parent(enumeration.leaves(n, keep=keep)):
            for mask, sums in zip(masks, enumeration.leaf_degree_sums(parent, masks), strict=True):
                rows = [row | (mask >> u & 1) << n - 1 for u, row in enumerate(parent.adj)]
                child = Graph(n, (*rows, mask))
                want = degree_sums(child)
                assert sorted(sums) == sorted(want)
                for a in (0.25, 0.5, 0.75):
                    # Bit for bit, so the census visits, breaks and solves as on built leaves.
                    assert degree_vector_bound(sums, a).hex() == degree_vector_bound(want, a).hex()
                checked += 1
        assert checked


def without_shift(rho, a, k):
    """A planted defect: bordered_bound without the a that the new edges add
    to the old neighbours' diagonal."""
    if not k:
        return rho
    p, q = rho, a * k
    return (p + q) / 2 + math.sqrt(((p - q) / 2) ** 2 + (1.0 - a) ** 2 * k)


def bordered_failures(graphs_by_order, bound):
    """(checked, failures) of ``bound`` over every graph of order 1..6, every
    neighbour mask of a new vertex and every weight of BORDERED_WEIGHTS:
    bound(parent's index, a, k) must not fall below the child's index."""
    checked = failures = 0
    for n in range(1, 7):
        masks = np.arange(1 << n)
        bits = (masks[:, None] >> np.arange(n) & 1).astype(float)
        for g in graphs_by_order[n]:
            children = np.zeros((len(masks), n + 1, n + 1))
            children[:, :n, :n] = alpha_matrix(g, 0.0)  # the adjacency matrix
            children[:, :n, n] = children[:, n, :n] = bits
            for a in BORDERED_WEIGHTS:
                rho = float(dense_indices(children[0, :n, :n], a))
                for k, want in zip(bits.sum(axis=1).astype(int), dense_indices(children, a)):
                    checked += 1
                    failures += bool(bound(rho, a, int(k)) < want - 1e-12)
    return checked, failures


def class_start(rho, sums, a, k):
    """The start of a size class of children on k neighbours, as the census
    takes it: bordered_bound of the parent's index."""
    return harness.bordered_bound(rho, a, k)


class TestBorderedBound:
    """bordered_bound bounds a graph with one vertex added from a bound on
    the graph's own index, for every graph of order <= 6 and every mask; and
    carried down the walk from a size class's start under its class's
    min_degree_ceiling, as the census carries it, it bounds every kept
    descendant 1 to 3 levels down."""

    def test_bounds_every_one_vertex_extension(self, graphs_by_order):
        assert bordered_failures(graphs_by_order, bordered_bound) == (56450, 0)

    @pytest.mark.parametrize("name, order", [(None, 7)] + [
        (name, 8) for name in sorted(HEREDITARY) if name not in COSTLY_AT_ORDER_8])
    def test_carried_bound_covers_every_kept_descendant(self, name, order):
        checked, failures = carried_bound_failures(HEREDITARY.get(name, lambda g: True), order,
                                                   class_start, ceiling(name))
        assert checked and failures == 0

    def test_catches_a_planted_defect(self, monkeypatch, graphs_by_order):
        checked, failures = bordered_failures(graphs_by_order, without_shift)
        assert checked and failures
        monkeypatch.setattr(harness, "bordered_bound", without_shift)
        checked, failures = carried_bound_failures(lambda g: True, 6, class_start, math.inf)
        assert checked and failures

    @pytest.mark.parametrize("name", TIGHT_AT_ORDER_7)
    def test_catches_a_lowered_ceiling(self, monkeypatch, name):
        with_a_lowered_ceiling(monkeypatch)
        checked, failures = carried_bound_failures(HEREDITARY[name], 7, class_start, ceiling(name))
        assert checked and failures


def note_failures(cls, n):
    """(checked, failures) of the census's notes under floors of 0, where
    ``_reach`` reaches every child within the class's min_degree_ceiling and
    takes the Collatz-Wielandt bound of every node: the note of every node
    the walk keeps, at orders 1..n-1, and the key of every emitted order-n
    leaf must not fall below its alpha index at any weight of
    BORDERED_WEIGHTS."""
    reach = harness._reach(n, BORDERED_WEIGHTS, [0.0] * len(BORDERED_WEIGHTS),
                           cls.min_degree_ceiling)
    keep = harness._member_of(cls)
    checked = failures = 0

    def check(g, note):
        nonlocal checked, failures
        for a, bound, want in zip(BORDERED_WEIGHTS, note, (
                float(dense_indices(alpha_matrix(g, 0.0), a)) for a in BORDERED_WEIGHTS)):
            checked += 1
            failures += bound < want - 1e-12

    def noted(parent, note, masks):
        # Asked once per kept node below order n, with its note.
        if parent.n:
            check(parent, note)
        return reach(parent, note, masks)

    root = (*enumeration.ROOT[:2], [0.0] * len(BORDERED_WEIGHTS))
    for leaf, note in enumeration.leaves(n, keep=keep, reach=noted, roots=[root]):
        if (g := emitted(leaf, keep)) is not None:
            check(g, note)
    return checked, failures


class TestCensusNotes:
    """Every note the census carries is an upper bound on its node's index."""

    @pytest.mark.parametrize("cls, checked", [
        (CliqueMinorFree(4), 2480),
        (BicliqueMinorFree(2, 3), 2170),
        (StarForestFree(StarForestSpec((2, 2))), 905),
    ], ids=["T1-r4", "T2-s2t3", "T3-2,2"])
    def test_every_note_bounds_its_node(self, cls, checked):
        assert note_failures(cls, 7) == (checked, 0)

    def test_catches_a_planted_defect(self, monkeypatch):
        cw = harness.collatz_wielandt_bound
        monkeypatch.setattr(harness, "collatz_wielandt_bound", lambda *args: cw(*args) / 2)
        checked, failures = note_failures(CliqueMinorFree(4), 7)
        assert checked and failures


FLOOR_CLASSES = [CliqueMinorFree(r) for r in range(3, 8)] + [
    BicliqueMinorFree(s, t) for s, t in ((2, 2), (2, 3), (3, 3), (2, 5))
] + [StarForestFree(StarForestSpec((d, d))) for d in (1, 2, 3, 4, 5)]


def feasible_spec(cls, n):
    """The claim's construction at order n, or None where it has none."""
    try:
        return predicted_witness_spec(cls, n)
    except FeasibilityError:  # d = 1 below order k - 1
        return None


class TestFloorWitness:
    """Each census starts from the alpha index of a known order-n member.
    extremal_search raises if its maximum falls below that floor, so every
    census run here also checks the witness against the census maximum."""

    @pytest.mark.parametrize("cls", FLOOR_CLASSES, ids=lambda cls: cls.label)
    def test_an_order_n_member_and_the_construction_when_feasible(self, cls):
        for n in range(1, enumeration.ENUMERATION_CAP + 1):
            g = harness.floor_witness(cls, n)
            assert g.n == n and class_member(g, cls), n
            spec = feasible_spec(cls, n)
            if spec is not None:
                assert g == construct(spec)

    @pytest.mark.parametrize("cls, n, part, census_max", [
        # K1 joined to 3K3, one part vertex deleted: the census maximizer.
        (BicliqueMinorFree(2, 3), 9, disjoint_union(union_of_copies(2, Graph.complete(3)),
                                                    Graph.complete(2)), True),
        # K2 joined to 3K3, two part vertices deleted: the census maximizer,
        # whose 5 s census test_cli's TestReportPins pins.
        (BicliqueMinorFree(3, 3), 9, disjoint_union(union_of_copies(2, Graph.complete(3)),
                                                    Graph.empty(1)), None),
        # K1 joined to the 3-regular circulant on 8 vertices, one deleted;
        # at order 8 every graph is a member, and K8 is the maximum.
        (StarForestFree(StarForestSpec((4, 4))), 8, delete_vertex(regular_circulant(8, 3), 7),
         False),
        # K5, two clique vertices deleted: the spec raises below the clique.
        (CliqueMinorFree(6), 3, Graph.empty(0), True),
        # K1 joined to K3, one part vertex deleted.
        (BicliqueMinorFree(2, 3), 2, Graph.complete(1), True),
        # K1 joined to K4 (3-regular on 4 vertices), one part vertex deleted:
        # the part is smaller than d.
        (StarForestFree(StarForestSpec((4, 4))), 4, Graph.complete(3), True),
    ], ids=["T2-s2t3-n9", "T2-s3t3-n9", "T3-4,4-n8", "T1-r6-n3", "T2-s2t3-n2", "T3-4,4-n4"])
    def test_fallback_deletes_part_vertices(self, cls, n, part, census_max):
        assert feasible_spec(cls, n) is None
        g = harness.floor_witness(cls, n)
        clique = min(cls.clique_join[0] - 1, n)
        assert g == join(Graph.complete(clique), part)
        if census_max is not None:
            best, witnesses = extremal_search(n, [0.5], cls)[0]
            assert alpha_index(g, 0.5).alpha_index <= best
            assert (canonical_graph6(g) in witnesses) == census_max

    def test_maximum_below_the_floor_is_refused(self, monkeypatch):
        # A floor above the class maximum (here K5, not a forest) would prune
        # every node; the census refuses instead of reporting a maximum.
        monkeypatch.setattr(harness, "floor_witness", lambda cls, n: Graph.complete(n))
        with pytest.raises(RuntimeError, match="fell below its floor"):
            extremal_search(5, [0.5], CliqueMinorFree(3))

    def test_quadratic_root_never_reaches_the_census(self, monkeypatch):
        # T2 (2,3) has no construction at n = 8 (3 does not divide 7), so
        # check_theorem predicts the quadratic's root, an upper bound. The
        # census floors at its witness's index, strictly below the root.
        cls, n, weights = BicliqueMinorFree(2, 3), 8, (0.5, 0.75)
        roots = [clique_join_quadratic(n, 2, 3, a).largest_root for a in weights]
        floors = []
        shard = harness._census_shard

        def noted(args):
            floors.append(args[2])
            return shard(args)

        def never(*args):
            raise AssertionError("the census asked for the clique-join quadratic")

        monkeypatch.setattr(harness, "_census_shard", noted)
        monkeypatch.setattr(harness, "clique_join_quadratic", never)
        found = extremal_search(n, weights, cls)
        witness = harness.floor_witness(cls, n)
        assert floors == [[alpha_index(witness, a).alpha_index for a in weights]]
        for floor, root, (best, _) in zip(floors[0], roots, found):
            assert floor <= best < root


class TestClassBasics:
    def test_labels_and_ids(self):
        assert CliqueMinorFree(3).label == "clique_minor_free(3)"
        assert BicliqueMinorFree(2, 3).label == "biclique_minor_free(2,3)"
        assert StarForestFree(StarForestSpec((2, 2))).label == "star_forest_free(2,2)"
        assert CliqueMinorFree(3).claim == "T1"
        assert BicliqueMinorFree(2, 2).claim == "T2"
        assert StarForestFree(StarForestSpec((1, 1))).claim == "T3"
        assert CliqueMinorFree(5).clique_join == (4, 1)
        assert BicliqueMinorFree(2, 3).clique_join == (2, 3)
        assert StarForestFree(StarForestSpec((3, 2, 4))).clique_join == (3, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CliqueMinorFree(2)
        with pytest.raises(ValueError):
            BicliqueMinorFree(1, 3)

    def test_membership(self):
        assert class_member(Graph.star(4), CliqueMinorFree(3))
        assert not class_member(Graph.cycle(4), CliqueMinorFree(3))
        assert class_member(Graph.empty(6), StarForestFree(StarForestSpec((1, 1))))


class TestExtremalSearch:
    def test_star_wins_among_forests(self):
        best, witnesses = extremal_search(5, [0.5], CliqueMinorFree(3))[0]
        assert best == pytest.approx(complete_split_quadratic(5, 2, 0.5).largest_root, abs=1e-9)
        assert witnesses == [canonical_graph6(Graph.star(4))]

    def test_tie_reporting_matching_free_order_4(self):
        best, witnesses = extremal_search(4, [0.5], StarForestFree(StarForestSpec((1, 1))))[0]
        assert best == pytest.approx(2.0, abs=1e-9)
        expected = {
            canonical_graph6(Graph.star(3)),
            canonical_graph6(disjoint_union(Graph.complete(3), Graph.empty(1))),
        }
        assert set(witnesses) == expected
        assert witnesses == sorted(witnesses)

    def test_single_vertex(self):
        best, witnesses = extremal_search(1, [0.5], CliqueMinorFree(3))[0]
        assert best == 0.0
        assert witnesses == [canonical_graph6(Graph.empty(1))]

    @pytest.mark.parametrize("cls", [
        CliqueMinorFree(3), BicliqueMinorFree(2, 3), StarForestFree(StarForestSpec((1, 1))),
    ], ids=lambda cls: cls.claim)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_order_one_from_the_root(self, in_process_pool, cls, workers):
        # The order-0 root is the one prefix node, so no pool is opened.
        found = extremal_search(1, (0.25, 0.75), cls, workers=workers)
        assert found == [(0.0, [canonical_graph6(Graph.empty(1))])] * 2
        assert in_process_pool == []

    def test_monotone_in_order(self):
        for cls in (CliqueMinorFree(3), StarForestFree(StarForestSpec((1, 1)))):
            prev = -1.0
            for n in range(1, 7):
                best, _ = extremal_search(n, [0.4], cls)[0]
                assert best >= prev - 1e-12
                prev = best

    def test_worker_counts_agree(self):
        serial = extremal_search(6, [0.5], CliqueMinorFree(3), workers=1)
        parallel = extremal_search(6, [0.5], CliqueMinorFree(3), workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("n, cls, workers, size", [
        # The floor keeps 1 of the 20 forests of order 6, the star (2 before
        # the walk read only the children within the class's ceiling, 5
        # while degree sums were grown down).
        (8, CliqueMinorFree(3), 10**6, 1),
        (5, StarForestFree(StarForestSpec((2, 2))), 1000, 5),  # n <= 6: order-(n-1) nodes, 5 of 11
        (6, StarForestFree(StarForestSpec((3, 3))), 10**9, 10),  # 10 of the 34 order-5 graphs (11)
        (7, StarForestFree(StarForestSpec((2, 2))), 3, 3),
        (7, CliqueMinorFree(3), 10**6, 1),  # only the star of order 6: no pool
    ])
    def test_pool_clamped_to_prefix_nodes(self, in_process_pool, n, cls, workers, size):
        clamped = extremal_search(n, [0.5], cls, workers=workers)
        assert in_process_pool == ([size] if size > 1 else [])
        assert clamped == extremal_search(n, [0.5], cls, workers=1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_prefix_walked_once(self, monkeypatch, in_process_pool, workers):
        # The prefix walk is shared, not repeated per shard: at any worker
        # count the walk tests no graph twice, and the prefix (the forests to
        # order 5 whose descendants can reach the floor) is tested as at one
        # worker. There the walk makes 6 class_member calls, 5 of them below
        # order 6, one per order down to the star, and one more checks the
        # floor witness (14 and 13 before the walk read only the children
        # within the class's ceiling, 15 and 14 while degree sums were grown
        # down, 16 and 15 before each node carried a bordered bound to its
        # children). The floor keeps one
        # order-5 forest (two while degree sums were grown down), so three
        # workers are clamped to one and no pool is opened; the three-weight
        # run of test_cli's test_membership_once_per_class_and_order deals
        # its prefix to three shards.
        calls = []

        def counted(g, cls, new=None):
            calls.append((g, new))
            return class_member(g, cls, new)

        monkeypatch.setattr(harness, "class_member", counted)
        counts, prefix = {}, {}
        for w in sorted({1, workers}):
            calls.clear()
            check_theorem(CliqueMinorFree(3), 6, [0.5], workers=w)
            walked = [canonical_graph6(g) for g, new in calls if new is not None]
            assert len(walked) == len(set(walked))
            counts[w] = len(calls)
            prefix[w] = [g for g, _ in calls if g.n < 6]
        assert counts[1] == 7 and len(prefix[1]) == 5
        assert prefix[workers] == prefix[1]
        assert in_process_pool == []

    def test_shard_with_no_leaf_in_reach_returns_a_list_per_weight(self, monkeypatch):
        # Each floor is 0.01 above every order-6 forest's degree-vector bound
        # (the star's: 3 at weight 0.5, 4 at 0.75), so no leaf is listed or
        # tested, though the walk decides forests down to order 5.
        tested = []

        def counted(g, cls, new=None):
            tested.append(g.n)
            return class_member(g, cls, new)

        monkeypatch.setattr(harness, "class_member", counted)
        alphas = (0.5, 0.75)
        root = (Graph(0, ()), [], [0.0, 0.0])
        args = (6, alphas, [3.01, 4.01], CliqueMinorFree(3), [root])
        assert harness._census_shard(args) == [[]] * len(alphas)
        assert 5 in tested and 6 not in tested

    @pytest.mark.parametrize("cls", [
        CliqueMinorFree(3), CliqueMinorFree(4), BicliqueMinorFree(2, 3),
        StarForestFree(StarForestSpec((2, 2))),
    ], ids=lambda cls: cls.label)
    def test_equals_brute_force_over_all_members(self, graphs_by_order, graphs_order_8, cls):
        # Every member solved at every weight: the bound-ordered solves must
        # find the same maximum and the same ties. K4 is taken to order 8,
        # where the census decides only the leaves its bound order reaches.
        weights = (0.25, 0.75)
        census = dict(graphs_by_order)
        if cls == CliqueMinorFree(4):
            census[8] = graphs_order_8
        for n, graphs in census.items():
            members = [g for g in graphs if class_member(g, cls)]
            want = []
            for a in weights:
                values = [alpha_index(g, a).alpha_index for g in members]
                best = max(values)
                ties = {canonical_graph6(g) for g, v in zip(members, values) if v >= best - TIE_TOL}
                want.append((best, sorted(ties)))
            assert extremal_search(n, weights, cls) == want

    @pytest.mark.parametrize("cls, n", [
        (CliqueMinorFree(4), 8), (CliqueMinorFree(5), 8), (StarForestFree(StarForestSpec((2, 2))), 9),
    ], ids=["K4-n8", "K5-n8", "S2+S2-n9"])
    def test_solves_distinct_members_deciding_each_leaf_once(self, monkeypatch, cls, n):
        solved = collections.defaultdict(list)
        decided = []
        emits = enumeration.emits

        def noted_solve(g, a):
            solved[a].append(g)
            return alpha_index(g, a)

        def noted_emits(built, keep):
            decided.append(built[0].adj)
            return emits(built, keep)

        monkeypatch.setattr(harness, "alpha_index", noted_solve)
        monkeypatch.setattr(enumeration, "emits", noted_emits)
        extremal_search(n, (0.25, 0.75), cls)
        assert sorted(solved) == [0.25, 0.75]
        witness = harness.floor_witness(cls, n)
        for graphs in solved.values():
            # The floor witness first, then only members, in full, and no
            # isomorphism class twice.
            assert graphs[0] == witness
            census = graphs[1:]
            assert all(g.n == n and class_member(g, cls) for g in census)
            assert len({canonical_graph6(g) for g in census}) == len(census)
        assert decided and len(decided) == len(set(decided))

    def test_repeat_runs_identical(self):
        a = extremal_search(6, [0.3], BicliqueMinorFree(2, 2))
        b = extremal_search(6, [0.3], BicliqueMinorFree(2, 2))
        assert a == b

    def test_weight_must_be_open(self):
        with pytest.raises(ValueError):
            extremal_search(4, [0.0], CliqueMinorFree(3))


class TestVerdicts:
    def test_classify(self):
        assert classify_verdict(5.0, 5.0 + 5e-10, True) == "MATCH"
        assert classify_verdict(5.1, 5.0, True) == "PREDICTION_EXCEEDED"
        assert classify_verdict(4.9, 5.0, True) == "PREDICTION_UNATTAINED"
        assert classify_verdict(5.1, 5.0, False) == "SMALL_N_CAVEAT"
        assert classify_verdict(4.9, 5.0, False) == "SMALL_N_CAVEAT"
        assert classify_verdict(5.0, 5.0, False) == "MATCH"


class TestCheckTheorem:
    def test_t1_small_order_matches(self):
        rep = check_theorem(CliqueMinorFree(3), 7, [0.5])[0]
        assert rep.verdict == "MATCH"
        assert rep.witnesses == (canonical_graph6(Graph.star(6)),)
        assert rep.predicted_witness == rep.witnesses[0]
        assert not rep.threshold_satisfied

    def test_t2_exact_at_seven(self):
        rep = check_theorem(BicliqueMinorFree(2, 3), 7, [0.5])[0]
        assert rep.verdict == "MATCH"
        assert rep.exhaustive_max == pytest.approx(4.0, abs=1e-9)
        assert rep.predicted_witness in rep.witnesses

    def test_t2_indivisible_equality_order(self):
        # n - s + 1 = 7 is not divisible by t = 3: no witness construction.
        rep = check_theorem(BicliqueMinorFree(2, 3), 8, [0.5])[0]
        assert rep.predicted_witness is None
        assert rep.verdict == "SMALL_N_CAVEAT"
        assert rep.exhaustive_max < rep.predicted_value

    def test_t2_below_order_minimum_refuses(self):
        with pytest.raises(ValueError, match="n >="):
            check_theorem(BicliqueMinorFree(2, 4), 7, [0.5])

    def test_order_above_cap_refused_before_the_witness(self, monkeypatch):
        from alpha_extremal import harness
        from alpha_extremal.enumeration import EnumerationCapError

        def never(g, cls):
            raise AssertionError("class_member called for an order above the cap")

        monkeypatch.setattr(harness, "class_member", never)
        with pytest.raises(EnumerationCapError, match="cap 10"):
            check_theorem(CliqueMinorFree(5), 14, [0.5])
        with pytest.raises(EnumerationCapError, match="cap 10"):
            extremal_search(11, [0.5], CliqueMinorFree(3), workers=2)

    def test_t3_odd_matching_part(self):
        # The matching leaves a vertex over, so the construction falls short
        # of the quadratic's root; it is predicted by its own index.
        for n in (8, 10):
            construction = CliqueJoinMatching(n, 2)
            rep = check_theorem(StarForestFree(StarForestSpec((2, 2))), n, [0.5])[0]
            assert rep.verdict == "MATCH"
            assert rep.predicted_witness == canonical_graph6(construct(construction))
            assert rep.witnesses == (rep.predicted_witness,)
            assert rep.predicted_value == quotient_alpha_index(construction, 0.5)
            assert rep.predicted_value == pytest.approx(
                alpha_index(construct(construction), 0.5).alpha_index, abs=1e-12
            )
            root = clique_join_quadratic(n, 2, 2, 0.5).largest_root
            assert rep.predicted_value < root - 1e-3

    def test_t3_notes_carry_both_thresholds(self):
        spec = StarForestSpec((2, 2))
        rep = check_theorem(StarForestFree(spec), 6, [0.5])[0]
        assert "640" in rep.notes and "320" in rep.notes

    def test_report_json_schema(self):
        rep = check_theorem(CliqueMinorFree(3), 5, [0.25])[0]
        data = json.loads(rep.to_json())
        jsonschema.validate(data, REPORT_SCHEMA)

    def test_predicted_helpers(self):
        assert predicted_witness_spec(BicliqueMinorFree(2, 3), 10) is not None
        assert predicted_witness_spec(BicliqueMinorFree(2, 3), 9) is None
        spec = predicted_witness_spec(CliqueMinorFree(3), 7)
        value = predicted_value(CliqueMinorFree(3), 7, spec, 0.5)
        assert value == pytest.approx(complete_split_quadratic(7, 2, 0.5).largest_root, abs=1e-12)
        # No construction: T2 falls back on the quadratic's root.
        value = predicted_value(BicliqueMinorFree(2, 3), 9, None, 0.5)
        assert value == clique_join_quadratic(9, 2, 3, 0.5).largest_root

    def test_csv_round_trips_floats(self):
        rep = check_theorem(CliqueMinorFree(3), 6, [0.5])[0]
        text = reports_to_csv([rep])
        header, row = text.splitlines()
        idx = header.split(",").index("exhaustive_max")
        value = float(row.split(",")[idx])
        assert f"{value:.12g}" == f"{rep.exhaustive_max:.12g}"
        assert value == rep.exhaustive_max  # repr round-trip is exact


class TestSweep:
    def test_clean_sweep(self):
        report = sweep_inequalities()
        assert (report.checked, report.skipped) == (857, 66)
        assert not report.violations
        assert "0 violations" in report.summary()

    def test_corrupted_sweep_detects_violations(self):
        report = sweep_inequalities(corrupt=3.0)
        assert {v.check for v in report.violations} == {
            "split_lower_bound_1", "split_lower_bound_2", "split_root_vs_quotient",
            "lower_bound_gap_sign", "clique_join_upper", "clique_join_equality",
            "clique_join_strictness", "star_forest_edge_bound", "star_minor_edge_bound",
            "biclique_q_consistency", "star_forest_q_consistency",
        }
        graph_rows = [v for v in report.violations
                      if v.check.startswith("clique_join_") or v.check.endswith("_edge_bound")]
        assert graph_rows
        for v in graph_rows:
            assert re.search(r" \(witness [^ ]+\)$", v.detail), str(v)
