"""Exhaustive small-order verification of the extremal claims.

extremal_search runs one census per (class, order), floored at each weight
by the alpha index of a known order-n member (floor_witness): every
maximizer and every tie lies within TIE_TOL of that floor or above it. The
enumeration walk extends only class members, testing each child once,
through its new vertex. Each child carries one upper bound on its alpha
index at each weight as its walk note (the note enumeration's ``reach``
gives it, handed back at the child), 0 at the order-0 root: the smaller of
spectral.bordered_bound on its parent's (first tightened, at any order, by
the parent's Collatz-Wielandt bound at each weight its children can reach)
and the degree-vector bound of degree sums derived from its parent's
(enumeration.leaf_degree_sums). Only children on at most the class's
min_degree_ceiling neighbours are read, and a child is kept only when that
bound, carried down to order n by bordered_bound under the same ceiling
(first once per child size, then per child), can reach a floor at some
weight within 2*TIE_TOL; a kept child below order n is decided, and the
kept order-n leaves (a parent and a neighbor mask each) are left undecided
and unbuilt, each keyed by its bound. At each weight of the grid the leaves
are visited in decreasing key order, from the floor, until no remaining key
can reach the maximum; a leaf so reached is built, its bound tightened by
a few power steps, and only if that still can is it decided (tie test,
then membership), once for all weights, and solved if it is a member. The
member prefix of the tree, to order min(n - 1, PREFIX_ORDER), is walked
once under the same floor, its nodes are dealt out round robin, each
carrying its automorphism group and bound, and each worker walks the
leaves below its own.
check_theorem compares each weight's maximum against one prediction rule,
the alpha index of the claim's own construction (from its equitable
quotient), and issues a verdict. Only where T2, or T3 with d_k >= 2, has no
feasible construction at the order is the clique-join quadratic's root, an
upper bound for the class, predicted instead; it never floors a census.
sweep_inequalities evaluates every closed-form inequality in the bounds
module over fixed grids: one generator per check family yields rows
(check, params, lhs, relation, rhs, witness graph or None), or SKIP for an
infeasible point, and one evaluator checks each row at SWEEP_TOL, tightened
by ``corrupt`` (a self-test: a large enough value fails every check).

Each claim is a class that answers for itself: CliqueMinorFree (T1),
BicliqueMinorFree (T2) and StarForestFree (T3) give their claim id, label,
report-file tag, membership test, order threshold and notes, their
``min_degree_ceiling`` (every member has a vertex of at most that degree)
and their ``clique_join = (k, d)``. All three extremal graphs are a clique
K_{k-1} joined to a (d-1)-regular part: (r-1, 1) for T1, the complete split
graph; (s, t) for T2, the part disjoint copies of K_t; (k, d_k) for T3. T1 and T2
are asserted only for sufficiently large order with no explicit threshold,
so their reports never mark the threshold as satisfied; T3 carries an
explicit threshold far beyond exhaustive scale, plus a smaller variant for
connected hosts that is recorded in the notes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import multiprocessing
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from . import enumeration
from .bounds import (
    StarForestSpec,
    biclique_q_bound,
    clique_join_quadratic,
    complete_split_lower_bounds,
    complete_split_quadratic,
    lower_bound_crossover,
    lower_bound_gap,
    star_forest_edge_bound,
    star_forest_order_threshold,
    star_forest_order_threshold_connected,
    star_forest_q_bound,
    star_minor_edge_bound,
)
from .canon import canonical_form
from .graph6 import encode_graph6
from .graphs import (
    CliqueJoinCliques,
    CliqueJoinMatching,
    CliqueJoinRegular,
    CompleteSplit,
    ConstructionSpec,
    FeasibilityError,
    Graph,
    construct,
    join,
    regular_circulant,
)
from .minors import BicliqueMinor, CliqueMinor, MinorPattern, is_minor_free, settled_by_new_vertex
from .spectral import (
    alpha_index,
    bordered_bound,
    collatz_wielandt_bound,
    degree_vector_bound,
    quotient_alpha_index,
    require_open_weight,
)
from .star_forests import is_star_forest_free

TIE_TOL = 1e-9
MATCH_TOL = 1e-9
# Power steps that tighten a member's Collatz-Wielandt bound before its eigensolve.
GATE_POWER_STEPS = 2
# Workers are dealt the member prefix nodes of order min(n - 1, PREFIX_ORDER).
PREFIX_ORDER = 6


class ForbiddenClass:
    """The host class of one claim (see the module docstring). By default a
    claim has no explicit order threshold."""

    # Every member has a vertex of degree at most this; none is proved by default.
    min_degree_ceiling = math.inf

    def threshold(self, alpha: float) -> float:
        """The order from which the claim is asserted at this weight."""
        return math.inf

    def notes(self, alpha: float) -> str:
        return "claim asserted for sufficiently large order only; no explicit threshold"


@dataclass(frozen=True)
class CliqueMinorFree(ForbiddenClass):
    r: int
    claim = "T1"

    def __post_init__(self):
        if self.r < 3:
            raise ValueError(f"clique-minor-free class needs r >= 3, got {self.r}")

    @property
    def label(self) -> str:
        return f"clique_minor_free({self.r})"

    @property
    def tag(self) -> str:
        return f"T1_r{self.r}"

    @property
    def clique_join(self) -> tuple[int, int]:
        return self.r - 1, 1

    @property
    def min_degree_ceiling(self) -> float:
        # Forests; 2-degenerate (Dirac 1952; Duffin 1965); under 3n edges
        # (Mader 1968; Wagner 1937).
        return {3: 1, 4: 2, 5: 5}.get(self.r, math.inf)

    def member(self, g: Graph, new: int | None = None) -> bool:
        return _minor_free(g, CliqueMinor(self.r), new)


@dataclass(frozen=True)
class BicliqueMinorFree(ForbiddenClass):
    s: int
    t: int
    claim = "T2"

    def __post_init__(self):
        if not 2 <= self.s <= self.t:
            raise ValueError(
                f"biclique-minor-free class needs t >= s >= 2, got s={self.s}, t={self.t}"
            )

    @property
    def label(self) -> str:
        return f"biclique_minor_free({self.s},{self.t})"

    @property
    def tag(self) -> str:
        return f"T2_s{self.s}t{self.t}"

    @property
    def clique_join(self) -> tuple[int, int]:
        return self.s, self.t

    @property
    def min_degree_ceiling(self) -> float:
        # Under (t + 1)n/2 edges for s = 2 (Chudnovsky, Reed and Seymour
        # 2011), under 3n for K_{3,3}.
        if self.s == 2:
            return self.t
        return 5 if self.t == 3 else math.inf

    def member(self, g: Graph, new: int | None = None) -> bool:
        return _minor_free(g, BicliqueMinor(self.s, self.t), new)


@dataclass(frozen=True)
class StarForestFree(ForbiddenClass):
    spec: StarForestSpec
    claim = "T3"

    @property
    def label(self) -> str:
        return f"star_forest_free({','.join(map(str, self.spec.degrees))})"

    @property
    def tag(self) -> str:
        return "T3_d" + "-".join(map(str, self.spec.degrees))

    @property
    def clique_join(self) -> tuple[int, int]:
        return self.spec.k, self.spec.min_degree

    def member(self, g: Graph, new: int | None = None) -> bool:
        return is_star_forest_free(g, self.spec, anchor=new)

    def threshold(self, alpha: float) -> float:
        return star_forest_order_threshold(self.spec, alpha)

    def notes(self, alpha: float) -> str:
        general = self.threshold(alpha)
        connected = star_forest_order_threshold_connected(self.spec, alpha)
        return (
            f"explicit order thresholds: {general:.6g} (any host), "
            f"{connected:.6g} (connected hosts); values below either are desk-scale only"
        )


def _minor_free(g: Graph, pattern: MinorPattern, new: int | None) -> bool:
    return new is not None and settled_by_new_vertex(g, pattern, new) or is_minor_free(g, pattern)


def class_member(g: Graph, cls: ForbiddenClass, new: int | None = None) -> bool:
    """Whether g is in the class; with ``new``, given that g - new is (an
    excluded minor or star forest in g then uses ``new``)."""
    return cls.member(g, new)


def _member_of(cls: ForbiddenClass):
    """``class_member`` as an enumeration ``keep``, asked only about children
    of kept nodes, so about the last vertex; every class here is closed under
    vertex deletion. The name is looked up at call time."""
    return lambda g: class_member(g, cls, new=g.n - 1)


def canonical_graph6(g: Graph) -> str:
    return encode_graph6(canonical_form(g))


# -- exhaustive extremal search ----------------------------------------


def _descendant_bound(top: float, a: float, k: int, order: int, j: int, c: float) -> float:
    """bordered_bound carried from ``top``, a bound on a child on k
    neighbours of order ``order``, to every order-(order + j) descendant
    that is a member of a class with min_degree_ceiling c: the walk adds a
    vertex of minimum degree, and the child's is k, so step i adds at most
    min(k + i, order + i - 1, c) neighbours."""
    for i in range(1, j + 1):
        top = bordered_bound(top, a, min(k + i, order + i - 1, c))
    return top


def _reach(n: int, alphas: tuple[float, ...], floors: list[float], c: float) -> enumeration.Reach:
    """The census's ``reach`` for a class with min_degree_ceiling c: the
    children of a node whose order-n descendants can reach some weight's
    floor, within 2*TIE_TOL, by one rule at every order. Masks come in one
    lazy group per size, in size order, and only the headers up to size c
    are read: a child's new vertex has minimum degree, so one on more
    neighbours is not a member. The node's bound, its note, is first
    tightened by its collatz_wielandt_bound at each weight where the largest
    size read can reach the margin. The descendant bound grows with the
    size, so the size classes kept, by bordered_bound of that bound carried
    down to order n by _descendant_bound, are the largest ones, and only
    their masks are made (and orbit-tested). Each child of a kept class
    then takes its own bound, the smaller of its class's bordered_bound and
    the degree_vector_bound of its degree sums (enumeration's
    leaf_degree_sums), and is reached when that bound, carried down, can. A
    reached child is noted with its own bound at each weight: the walk hands
    it back to bound the child's children if it keeps the child, and at
    order n it keys the leaf."""
    margins = [floor - 2 * TIE_TOL for floor in floors]

    def reach(parent: Graph, rho: list[float], groups: Iterable) -> dict[int, list[float]]:
        groups = list(itertools.takewhile(lambda group: group[0] <= c, groups))
        order, j = parent.n + 1, n - parent.n - 1
        k = groups[-1][0]
        rho = [min(r, collatz_wielandt_bound(parent, a, GATE_POWER_STEPS))
               if _descendant_bound(bordered_bound(r, a, k), a, k, order, j, c) >= m else r
               for r, a, m in zip(rho, alphas, margins)]
        classes, reached = [], False
        for k, masks in groups:
            tops = [bordered_bound(r, a, k) for r, a in zip(rho, alphas)]
            reached = reached or any(_descendant_bound(top, a, k, order, j, c) >= m
                                     for top, a, m in zip(tops, alphas, margins))
            if reached:
                classes += [(mask, k, tops) for mask in masks]
        notes = {}
        for (mask, k, tops), sums in zip(classes, enumeration.leaf_degree_sums(
                parent, [mask for mask, _, _ in classes])):
            own = [min(top, degree_vector_bound(sums, a)) for top, a in zip(tops, alphas)]
            if any(_descendant_bound(r, a, k, order, j, c) >= m
                   for r, a, m in zip(own, alphas, margins)):
                notes[mask] = own
        return notes
    return reach


def _census_shard(args) -> list[list[tuple[Graph, float]]]:
    """One list per weight of (member, alpha index) pairs for the order-n
    class members below one shard's prefix nodes that can reach the
    maximum.

    Each weight's ``floor`` is the alpha index of an order-n member (see
    ``floor_witness``), so the maximum and its ties lie within TIE_TOL of it
    or above. Each of ``roots`` carries the prefix walk's bound as its note,
    so the shard's work does not depend on the deal. The walk decides only
    the nodes whose descendants' bounds can reach a floor, and lists only
    the order-n leaves whose own bounds can (``_reach``), undecided and
    unbuilt, each keyed by that bound. The leaves are visited in decreasing
    key order, ties by walk index, from a best of floor - TIE_TOL, and the
    visit stops at the first key below the best minus 2*TIE_TOL, which no
    unlisted leaf reaches. A leaf the visit reaches is built, and its
    collatz_wielandt_bound, over the degree vector and GATE_POWER_STEPS
    power steps, is taken; only a leaf whose bound is not below the same
    margin is decided (tie test, then membership), once across weights, and
    only an emitted one is solved. Every bound is valid for the leaf's
    index, and the best never exceeds the maximum, so a leaf that is
    skipped, pruned or gated out falls short of the maximum by more than
    2*TIE_TOL minus the float error of the bounds and of the solves (about
    1e-15): whatever its membership, it is neither a maximizer nor a tie.
    Every maximizer and tie is solved, as in a visit over all the members.
    """
    n, alphas, floors, cls, roots = args
    keep = _member_of(cls)
    # The lazy leaves, in walk order, each with its key at each weight.
    leaves = list(enumeration.leaves(n, keep=keep, roots=roots,
                                     reach=_reach(n, alphas, floors, cls.min_degree_ceiling)))
    built = {}  # leaf index -> what build made (None if rejected); built when first reached
    emitted = {}  # leaf index -> whether the walk emits it; decided when first gated through
    solved = []
    for w, (a, floor) in enumerate(zip(alphas, floors)):
        pairs = []
        best = floor - TIE_TOL
        # A stable sort, reversed, keeps ties in walk order.
        for i in sorted(range(len(leaves)), key=lambda i: leaves[i][1][w], reverse=True):
            leaf, key = leaves[i]
            if key[w] < best - 2 * TIE_TOL:
                break
            if i not in built:
                built[i] = enumeration.build(leaf)
            g = built[i] and built[i][0]
            if g is None or collatz_wielandt_bound(g, a, GATE_POWER_STEPS) < best - 2 * TIE_TOL:
                continue
            if i not in emitted:
                emitted[i] = enumeration.emits(built[i], keep)
            if not emitted[i]:
                continue
            value = alpha_index(g, a).alpha_index
            best = max(best, value)
            pairs.append((g, value))
        solved.append(pairs)
    return solved


def floor_witness(cls: ForbiddenClass, n: int) -> Graph:
    """An order-n member of the class, known before any census, whose alpha
    index floors it: the nearest feasible construction of the claim
    (``predicted_witness_spec`` at the first order m >= n that has one),
    induced on its vertices 0..n-1. The clique comes first, so only part
    vertices are deleted, and clique vertices too below the clique's order;
    the class is closed under vertex deletion. At m = n this is the claim's
    construction itself. For (k, d) = cls.clique_join, some m <= max(n, k) + d
    is feasible: m = max(n, k - 1) for T1 and for T3 with d <= 2; T2 needs a
    part order that t divides, and T3 with d >= 3 a part of at least d
    vertices with the right parity. The clique-join quadratic's root bounds
    the class from above and never serves here. Raises RuntimeError if the
    witness is not a member, which would falsify the construction side of
    the claim."""
    for m in itertools.count(n):
        try:
            spec = predicted_witness_spec(cls, m)
        except FeasibilityError:  # d = 1 below order k - 1
            continue
        if spec is not None:
            break
    full = construct(spec)
    g = Graph(n, tuple(row & ((1 << n) - 1) for row in full.adj[:n]))
    if not class_member(g, cls):
        raise RuntimeError(f"floor witness {canonical_graph6(g)} is not {cls.label}: "
                           "construction claim falsified")
    return g


def extremal_search(
    n: int,
    alphas: Iterable[float],
    cls: ForbiddenClass,
    *,
    workers: int = 1,
) -> list[tuple[float, list[str]]]:
    """Maximum alpha index over all order-n members of the class at each
    weight, with every maximizer (within the tie tolerance) as a sorted
    canonical graph6 list: one (best, witnesses) pair per weight, in order.

    Each weight's floor is the alpha index of ``floor_witness``, the nearest
    feasible construction cut down to order n, validated before the walk.
    Membership is decided once per tested graph: below order n only for the
    nodes whose descendants' bounds can reach a floor, and at order n only
    for the leaves that the visit reaches and the Collatz-Wielandt gate
    lets through; only those members are solved (see
    ``_census_shard``). The member prefix is walked once; shard s descends
    from prefix nodes s, s + workers, ..., each carrying its group and its
    bound, and at most one process per node is started.
    Deterministic: the result is independent of the worker count.
    """
    enumeration.check_order(n)
    weights = tuple(require_open_weight(a) for a in alphas)
    witness = floor_witness(cls, n)
    floors = [alpha_index(witness, a).alpha_index for a in weights]
    root = (*enumeration.ROOT[:2], [0.0] * len(weights))
    prefix = enumeration.nodes(min(n - 1, PREFIX_ORDER), keep=_member_of(cls),
                               reach=_reach(n, weights, floors, cls.min_degree_ceiling),
                               roots=[root])
    workers = max(1, min(workers, len(prefix)))
    jobs = [(n, weights, floors, cls, prefix[s::workers]) for s in range(workers)]
    if workers == 1:
        shards = [_census_shard(jobs[0])]
    else:
        with multiprocessing.Pool(workers) as pool:
            shards = pool.map(_census_shard, jobs)
    results = []
    for j, floor in enumerate(floors):
        solved = [pair for shard in shards for pair in shard[j]]
        best = max((value for _, value in solved), default=-math.inf)
        if best < floor - TIE_TOL:
            raise RuntimeError(f"the census of {cls.label} at order {n} fell below its floor "
                               f"witness's alpha index {floor!r}")
        ties = {canonical_graph6(g) for g, value in solved if value >= best - TIE_TOL}
        results.append((best, sorted(ties)))
    return results


# -- claim checking ------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive claim check at a single (order, weight)."""

    class_label: str
    n: int
    alpha: float
    exhaustive_max: float
    witnesses: tuple[str, ...]
    predicted_value: float
    predicted_witness: str | None
    verdict: str
    threshold_satisfied: bool
    notes: str

    def to_json_dict(self) -> dict:
        """The fields in declaration order, keyed by REPORT_CSV_COLUMNS."""
        d = {key: getattr(self, f.name) for key, f in zip(REPORT_CSV_COLUMNS, fields(self))}
        d["witnesses"] = list(self.witnesses)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


# The report's field names, with class_label written as "class".
REPORT_CSV_COLUMNS = [
    "class" if f.name == "class_label" else f.name for f in fields(VerificationReport)
]


def reports_to_csv(reports: Iterable[VerificationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_COLUMNS)
    for rep in reports:
        d = rep.to_json_dict()
        d["witnesses"] = ";".join(rep.witnesses)
        d["predicted_witness"] = rep.predicted_witness or ""
        writer.writerow([repr(d[c]) if isinstance(d[c], float) else d[c] for c in REPORT_CSV_COLUMNS])
    return out.getvalue()


def predicted_witness_spec(cls: ForbiddenClass, n: int) -> ConstructionSpec | None:
    """The construction claimed extremal at this order: K_{k-1} joined to a
    (d-1)-regular part for ``(k, d) = cls.clique_join`` (d = 1 is the
    complete split graph, d = 2 a maximum matching, and T2's part is
    disjoint copies of K_t). When it is infeasible: None for d >= 2, which
    falls back on the clique-join quadratic; FeasibilityError for d = 1,
    which has no fallback."""
    k, d = cls.clique_join
    if d == 1:
        spec = CompleteSplit(n, k - 1)
    elif isinstance(cls, BicliqueMinorFree):
        spec = CliqueJoinCliques(n, k, d, (n - k + 1) // d)
    elif d == 2:
        spec = CliqueJoinMatching(n, k)
    else:
        spec = CliqueJoinRegular(n, k, d)
    try:
        spec.clique_and_part()
    except FeasibilityError:
        if d == 1:
            raise
        return None
    return spec


def predicted_value(cls: ForbiddenClass, n: int, spec: ConstructionSpec | None,
                    alpha: float) -> float:
    """The predicted extremal alpha index at order n: that of the construction
    ``spec = predicted_witness_spec(cls, n)``, or, when there is none, the
    root of the clique-join quadratic (which refuses weights below its order
    minimum)."""
    a = require_open_weight(alpha)
    if spec is not None:
        return quotient_alpha_index(spec, a)
    return clique_join_quadratic(n, *cls.clique_join, a).largest_root


def classify_verdict(exhaustive_max: float, predicted: float, threshold_satisfied: bool) -> str:
    """MATCH within tolerance; otherwise the failure direction, downgraded to
    SMALL_N_CAVEAT below the claim's order threshold (where it asserts nothing)."""
    diff = exhaustive_max - predicted
    if abs(diff) <= MATCH_TOL:
        return "MATCH"
    if not threshold_satisfied:
        return "SMALL_N_CAVEAT"
    return "PREDICTION_EXCEEDED" if diff > 0 else "PREDICTION_UNATTAINED"


def predictions(cls: ForbiddenClass, n: int,
                alphas: Iterable[float]) -> tuple[ConstructionSpec | None, list[float]]:
    """The claim's construction at order n and its predicted value at each
    weight. Refuses an order above the enumeration cap, and an order or a
    weight with no prediction, without a census."""
    enumeration.check_order(n)
    spec = predicted_witness_spec(cls, n)
    return spec, [predicted_value(cls, n, spec, a) for a in alphas]


def check_theorem(
    cls: ForbiddenClass,
    n: int,
    alphas: Iterable[float],
    *,
    workers: int = 1,
) -> list[VerificationReport]:
    """Exhaustively test one extremal claim at one order over a weight grid;
    one report per weight, in the given order.

    Each weight is predicted from the claim's construction, found once. An
    order above the enumeration cap is refused before any work, and every
    predicted value is computed before the census, so a weight that the
    quadratic fallback refuses fails before any search. The census
    validates its floor witness, the predicted construction when there is
    one, for class membership before it walks; a failure there would
    falsify the construction side of the claim and raises instead of
    reporting.
    """
    weights = [require_open_weight(a) for a in alphas]
    spec, values = predictions(cls, n, weights)
    witness_g6 = None if spec is None else canonical_graph6(construct(spec))
    found = extremal_search(n, weights, cls, workers=workers)
    reports = []
    for a, value, (best, witnesses) in zip(weights, values, found):
        satisfied = n >= cls.threshold(a)
        reports.append(VerificationReport(
            class_label=cls.label,
            n=n,
            alpha=a,
            exhaustive_max=best,
            witnesses=tuple(witnesses),
            predicted_value=value,
            predicted_witness=witness_g6,
            verdict=classify_verdict(best, value, satisfied),
            threshold_satisfied=satisfied,
            notes=cls.notes(a),
        ))
    return reports


# -- inequality sweeps ---------------------------------------------------


@dataclass
class SweepViolation:
    check: str
    params: dict
    detail: str

    def __str__(self) -> str:
        inside = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.check}[{inside}]: {self.detail}"


@dataclass
class SweepReport:
    checked: int = 0
    skipped: int = 0
    violations: list[SweepViolation] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"checked {self.checked} inequality instances, skipped {self.skipped} infeasible points,"
            f" {len(self.violations)} violations"
        ]
        lines.extend(f"  VIOLATION {v}" for v in self.violations)
        return "\n".join(lines)


def _random_capped_graph(m: int, max_degree: int, rng: np.random.Generator) -> Graph:
    """Random graph on m vertices with max degree <= max_degree."""
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    deg = [0] * m
    edges = []
    for idx in rng.permutation(len(pairs)):
        u, v = pairs[int(idx)]
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(m, edges)


SWEEP_TOL = 1e-9
SWEEP_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SPLIT_KS = range(2, 7)
SPLIT_ORDERS = (6, 12, 30, 60)
JOIN_CASES = ((2, 2), (2, 3), (3, 3))  # (k, d)
JOIN_ORDERS = (14, 21)
JOIN_ALPHAS = (0.3, 0.5, 0.7)
EDGE_BOUND_SPECS = (StarForestSpec((2, 1)), StarForestSpec((2, 2)))
EDGE_BOUND_MAX_ORDER = 7
STAR_MINOR_POINTS = ((6, 3), (7, 4))  # (h, t)
Q_POINTS = ((10, 2, 2), (10, 2, 3), (25, 3, 3), (60, 3, 4))  # (n, s, t)
SKIP = None  # an infeasible grid point, counted and not checked


def _split_rows():
    """Complete-split lower bounds vs the quadratic root, and the root vs the
    equitable quotient of the construction itself."""
    for k in SPLIT_KS:
        for n in SPLIT_ORDERS:
            for a in SWEEP_ALPHAS:
                params = {"n": n, "k": k, "alpha": a}
                root = complete_split_quadratic(n, k, a).largest_root
                low1, low2 = complete_split_lower_bounds(n, k, a)
                yield "split_lower_bound_1", params, low1, "<=", root, None
                if low2 is None:
                    yield SKIP
                else:
                    yield "split_lower_bound_2", params, low2, "<=", root, None
                quotient = quotient_alpha_index(CompleteSplit(n, k - 1), a)
                yield "split_root_vs_quotient", params, root, "==", quotient, None


def _gap_rows():
    """Sign of the gap between the two lower bounds: zero at the crossover
    weight, nonnegative below it, nonpositive above it."""
    for k in SPLIT_KS:
        crossover = lower_bound_crossover(k)
        for a in SWEEP_ALPHAS:
            params = {"k": k, "alpha": a}
            gap = lower_bound_gap(k, a)
            if abs(a - crossover) < 1e-12:
                yield "lower_bound_gap_sign", params, gap, "==", 0.0, None
            elif a < crossover:
                yield "lower_bound_gap_sign", params, 0.0, "<=", gap, None
            else:
                yield "lower_bound_gap_sign", params, gap, "<=", 0.0, None


def _join_rows(samples: int, seed: int):
    """Clique-join upper bound on the regular part and on seeded random
    degree-capped parts; equality exactly when the part is regular."""
    for k, d in JOIN_CASES:
        for n in JOIN_ORDERS:
            m = n - k + 1
            for a in JOIN_ALPHAS:
                try:
                    root = clique_join_quadratic(n, k, d, a).largest_root
                except ValueError:
                    yield SKIP
                    continue
                try:
                    hosts = [regular_circulant(m, d - 1)]
                except FeasibilityError:
                    hosts = []
                rng = np.random.default_rng([seed, k, d, n, int(a * 1000)])
                hosts.extend(_random_capped_graph(m, d - 1, rng) for _ in range(samples))
                params = {"n": n, "k": k, "d": d, "alpha": a}
                for h in hosts:
                    g = join(Graph.complete(k - 1), h)
                    rho = alpha_index(g, a).alpha_index
                    yield "clique_join_upper", params, rho, "<=", root, g
                    if h.is_regular(d - 1):
                        yield "clique_join_equality", params, rho, "==", root, g
                    else:
                        yield "clique_join_strictness", params, rho, "<", root, g


def _edge_rows():
    """Star-forest edge ceiling, and the star-minor edge ceiling for
    connected hosts, over every free graph of each small order."""
    for spec in EDGE_BOUND_SPECS:
        for n in range(spec.degree_sum + spec.k, EDGE_BOUND_MAX_ORDER + 1):
            bound = star_forest_edge_bound(spec, n)
            params = {"spec": spec.label(), "n": n}
            free = enumeration.enumerate_graphs(n, keep=lambda g: is_star_forest_free(g, spec))
            for g in free:
                yield "star_forest_edge_bound", params, g.edge_count(), "<=", bound, g
    for h, t in STAR_MINOR_POINTS:
        bound = star_minor_edge_bound(h, t)
        params = {"h": h, "t": t}
        # Connectedness is not closed under vertex deletion, so it filters
        # the walk's output instead of pruning the walk.
        free = enumeration.enumerate_graphs(h, keep=lambda g: is_minor_free(g, BicliqueMinor(1, t)))
        for g in free:
            if g.is_connected():
                yield "star_minor_edge_bound", params, g.edge_count(), "<=", bound, g


def _q_rows():
    """Signless Laplacian closed forms vs twice the quadratic root at 1/2."""
    for n, s, t in Q_POINTS:
        try:
            closed = biclique_q_bound(n, s, t)
            twice = 2 * clique_join_quadratic(n, s, t, 0.5).largest_root
        except ValueError:
            yield SKIP
        else:
            yield "biclique_q_consistency", {"n": n, "s": s, "t": t}, closed, "==", twice, None
        spec = StarForestSpec((t,) * s)
        try:
            closed = star_forest_q_bound(n, spec)
            twice = 2 * clique_join_quadratic(n, spec.k, spec.min_degree, 0.5).largest_root
        except ValueError:
            yield SKIP
        else:
            yield ("star_forest_q_consistency", {"n": n, "spec": spec.label()},
                   closed, "==", twice, None)


def sweep_inequalities(*, samples: int = 3, seed: int = 0, corrupt: float = 0.0) -> SweepReport:
    """Evaluate every closed-form inequality over the fixed module grids.

    Each row ``(check, params, lhs, relation, rhs, witness)`` holds when
    ``lhs <= rhs + SWEEP_TOL``, ``lhs < rhs - SWEEP_TOL`` or
    ``|lhs - rhs| <= SWEEP_TOL``. ``corrupt`` tightens every check by that
    amount (a harness self-test: ``corrupt=3`` fails all 11 check names).
    ``samples`` random hosts per clique-join point are drawn from ``seed``.
    Infeasible grid points are skipped and counted.
    """
    report = SweepReport()
    rows = itertools.chain(
        _split_rows(), _gap_rows(), _join_rows(samples, seed), _edge_rows(), _q_rows()
    )
    for row in rows:
        if row is SKIP:
            report.skipped += 1
            continue
        report.checked += 1
        check, params, lhs, relation, rhs, witness = row
        excess = abs(lhs - rhs) if relation == "==" else lhs - rhs
        holds = excess + corrupt < -SWEEP_TOL if relation == "<" else excess + corrupt <= SWEEP_TOL
        if not holds:
            detail = f"{lhs} {relation} {rhs} fails at tolerance {SWEEP_TOL}"
            if corrupt:
                detail += f" tightened by {corrupt}"
            if witness is not None:
                detail += f" (witness {canonical_graph6(witness)})"
            report.violations.append(SweepViolation(check, params, detail))
    return report
