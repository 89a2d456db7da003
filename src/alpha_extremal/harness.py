"""Exhaustive small-order verification of the extremal claims.

extremal_search runs one census per (class, order): the enumeration walk
extends only class members, testing each child once, and at each weight of
the grid the members are visited in decreasing order of a Collatz-Wielandt
upper bound until no remaining bound can reach the maximum, and a member is
solved only if its bound, tightened by a few power steps, still can. The
member prefix of the tree, to order PREFIX_ORDER, is walked once, its nodes
are dealt out round robin, and each worker generates the members below its own.
check_theorem compares each weight's maximum against one prediction rule,
the alpha index of the claim's own construction (from its equitable
quotient), and issues a verdict. Only where T2, or T3 with d_k >= 2, has no
feasible construction at the order is the clique-join quadratic's root, an
upper bound for the class, predicted instead.
sweep_inequalities evaluates every closed-form inequality in the bounds
module over fixed grids: one generator per check family yields rows
(check, params, lhs, relation, rhs, witness graph or None), or SKIP for an
infeasible point, and one evaluator checks each row at SWEEP_TOL, tightened
by ``corrupt`` (a self-test: a large enough value fails every check).

Each claim is a class that answers for itself: CliqueMinorFree (T1),
BicliqueMinorFree (T2) and StarForestFree (T3) give their claim id, label,
report-file tag, membership test, order threshold and notes, and their
``clique_join = (k, d)``. All three extremal graphs are a clique K_{k-1}
joined to a (d-1)-regular part: (r-1, 1) for T1, the complete split graph;
(s, t) for T2, the part disjoint copies of K_t; (k, d_k) for T3. T1 and T2
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
from .minors import BicliqueMinor, CliqueMinor, is_minor_free
from .spectral import (
    alpha_index,
    collatz_wielandt_bound,
    degree_sums,
    degree_vector_bound,
    quotient_alpha_index,
    require_open_weight,
)
from .star_forests import is_star_forest_free

TIE_TOL = 1e-9
MATCH_TOL = 1e-9
# Power steps that tighten a member's Collatz-Wielandt bound before its eigensolve.
GATE_POWER_STEPS = 2
# Workers are dealt the member prefix nodes of order min(n, PREFIX_ORDER).
PREFIX_ORDER = 6


class ForbiddenClass:
    """The host class of one claim (see the module docstring). By default a
    claim has no explicit order threshold."""

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

    def member(self, g: Graph) -> bool:
        return is_minor_free(g, CliqueMinor(self.r))


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

    def member(self, g: Graph) -> bool:
        return is_minor_free(g, BicliqueMinor(self.s, self.t))


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

    def member(self, g: Graph) -> bool:
        return is_star_forest_free(g, self.spec)

    def threshold(self, alpha: float) -> float:
        return star_forest_order_threshold(self.spec, alpha)

    def notes(self, alpha: float) -> str:
        general = self.threshold(alpha)
        connected = star_forest_order_threshold_connected(self.spec, alpha)
        return (
            f"explicit order thresholds: {general:.6g} (any host), "
            f"{connected:.6g} (connected hosts); values below either are desk-scale only"
        )


def class_member(g: Graph, cls: ForbiddenClass) -> bool:
    return cls.member(g)


def _member_of(cls: ForbiddenClass):
    """``class_member`` as an enumeration ``keep``; every class here is closed
    under vertex deletion. The name is looked up at call time."""
    return lambda g: class_member(g, cls)


def canonical_graph6(g: Graph) -> str:
    return encode_graph6(canonical_form(g))


# -- exhaustive extremal search ----------------------------------------


def _census_shard(args) -> list[list[tuple[Graph, float]]]:
    """One list per weight of (member, alpha index) pairs for the order-n
    class members below one shard's prefix nodes that can reach the shard's
    maximum.

    Members are visited in decreasing degree_vector_bound order (their
    degree sums found once for all weights), ties by enumeration index, and
    the visit stops at the first bound below the shard's best minus
    2*TIE_TOL. Before its eigensolve, each member's bound is tightened by
    GATE_POWER_STEPS power steps, and the member is skipped when that bound
    is below the same margin. Both bounds are valid for the member's index
    (every power iterate is a positive Collatz-Wielandt vector), so a
    skipped member falls short of the shard's best, and hence of the global
    maximum, by more than 2*TIE_TOL minus the float error of the bound and
    of the solve (about 1e-15): it is neither a maximizer nor a tie.
    """
    n, alphas, cls, roots = args
    members = list(enumeration.enumerate_graphs(n, keep=_member_of(cls), roots=roots))
    table = [[] for _ in alphas]  # per weight, each member's degree-vector bound
    for g in members:
        sums = degree_sums(g)
        for bounds, a in zip(table, alphas):
            bounds.append(degree_vector_bound(sums, a))
    solved = []
    for a, bounds in zip(alphas, table):
        pairs = []
        best = -math.inf
        for i in sorted(range(len(members)), key=lambda i: (-bounds[i], i)):
            if bounds[i] < best - 2 * TIE_TOL:
                break
            if collatz_wielandt_bound(members[i], a, GATE_POWER_STEPS) < best - 2 * TIE_TOL:
                continue
            value = alpha_index(members[i], a).alpha_index
            best = max(best, value)
            pairs.append((members[i], value))
        solved.append(pairs)
    return solved


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

    Membership is decided once per tested graph; at each weight, only the
    members whose Collatz-Wielandt bounds, from the degree vector and
    tightened by power steps, can reach their shard's maximum are solved.
    The member prefix is walked once; shard s descends from prefix nodes
    s, s + workers, ..., and at most one process per node is started.
    Deterministic: the result is independent of the worker count.
    """
    enumeration.check_order(n)
    weights = tuple(require_open_weight(a) for a in alphas)
    prefix = list(enumeration.enumerate_graphs(min(n, PREFIX_ORDER), keep=_member_of(cls)))
    workers = max(1, min(workers, len(prefix)))
    jobs = [(n, weights, cls, prefix[s::workers]) for s in range(workers)]
    if workers == 1:
        shards = [_census_shard(jobs[0])]
    else:
        with multiprocessing.Pool(workers) as pool:
            shards = pool.map(_census_shard, jobs)
    results = []
    for j in range(len(weights)):
        solved = [pair for shard in shards for pair in shard[j]]
        if not solved:
            raise ValueError(f"class {cls.label} has no members at order {n}")
        best = max(value for _, value in solved)
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
    quadratic fallback refuses fails before any search. The predicted
    construction is independently validated for class membership; a
    failure there would falsify the construction side of the claim and
    raises instead of reporting.
    """
    enumeration.check_order(n)
    weights = [require_open_weight(a) for a in alphas]
    spec = predicted_witness_spec(cls, n)
    values = [predicted_value(cls, n, spec, a) for a in weights]
    witness_g6 = None
    if spec is not None:
        witness_graph = construct(spec)
        if not class_member(witness_graph, cls):
            raise RuntimeError(
                f"predicted witness {spec} is not {cls.label}: construction claim falsified"
            )
        witness_g6 = canonical_graph6(witness_graph)
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
