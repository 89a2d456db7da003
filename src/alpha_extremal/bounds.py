"""Closed-form bounds for the alpha index of minor-free and star-forest-free graphs.

Everything here is exact arithmetic on the inputs: monic quadratics whose
largest roots bound (or equal) alpha indices of the extremal join
constructions, companion lower bounds, edge-count ceilings for
star-forest-free and star-minor-free graphs, and the signless Laplacian
specializations at weight 1/2. Each function refuses (raises ValueError)
when its stated hypotheses fail rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectral import require_open_weight


@dataclass(frozen=True)
class QuadraticBound:
    """Monic quadratic x^2 + b*x + c with stable largest-root extraction."""

    b: float
    c: float

    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.c

    @property
    def largest_root(self) -> float:
        disc = self.discriminant()
        if disc < 0.0:
            raise ValueError(f"quadratic x^2 + {self.b}x + {self.c} has no real root")
        return (-self.b + math.sqrt(disc)) / 2.0


@dataclass(frozen=True)
class StarForestSpec:
    """Star degrees d_1 >= ... >= d_k (k >= 2) of a forbidden union of stars."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        degs = tuple(sorted((int(d) for d in self.degrees), reverse=True))
        if len(degs) < 2:
            raise ValueError("a star forest spec needs at least two stars")
        if degs[-1] < 1:
            raise ValueError("star degrees must be >= 1")
        object.__setattr__(self, "degrees", degs)

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    @property
    def min_degree(self) -> int:
        return self.degrees[-1]

    def label(self) -> str:
        return "+".join(f"S{d}" for d in self.degrees)


# -- complete split graphs ---------------------------------------------


def complete_split_quadratic(n: int, k: int, alpha: float) -> QuadraticBound:
    """Quadratic whose largest root is the alpha index of the complete split
    graph (clique of size k-1 joined to n-k+1 isolated vertices).

    x^2 - (a*n + k - 2)*x + (k-1)(2a-1)*n + (k-1)(k - k*a - 1).

    The root equals the alpha index whenever both partition classes are
    nonempty (n >= k). At the degenerate boundary n = k-1 the independent
    part is empty and the largest root strictly exceeds the alpha index k-2;
    the companion lower bounds remain valid there.

    Weight 0 is accepted (the quadratic then characterizes the adjacency
    spectral radius); the interpolation-dependent bounds elsewhere in this
    module need the open interval.
    """
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"weight must lie in [0, 1), got {alpha}")
    if k < 2:
        raise ValueError(f"complete split quadratic needs k >= 2, got k={k}")
    if n < k - 1:
        raise ValueError(f"complete split quadratic needs n >= k-1, got n={n}, k={k}")
    b = -(a * n + k - 2)
    c = (k - 1) * (2 * a - 1) * n + (k - 1) * (k - k * a - 1)
    return QuadraticBound(b, c)


def second_lower_bound_threshold(k: int, alpha: float) -> float:
    """Order above which the sharper complete-split lower bound applies."""
    a = require_open_weight(alpha)
    return (
        (2 * k - 3) ** 2 / (2 * a * a)
        - (8 * k * k - 18 * k + 9) / (2 * a)
        + 2 * k * (k - 1)
    )


def complete_split_lower_bounds(n: int, k: int, alpha: float) -> tuple[float, float | None]:
    """Two lower bounds on the complete split graph's alpha index.

    First: a*(n-1) + (1-a)*(k-2), valid for n >= k-1. Second:
    a*n + (2k-3-(2k-1)*a)/(2a), valid only above an order threshold and
    returned as None below it.
    """
    a = require_open_weight(alpha)
    if k < 2:
        raise ValueError(f"lower bounds need k >= 2, got k={k}")
    if n < k - 1:
        raise ValueError(f"lower bounds need n >= k-1, got n={n}, k={k}")
    first = a * (n - 1) + (1 - a) * (k - 2)
    second = None
    if n >= second_lower_bound_threshold(k, a):
        second = a * n + (2 * k - 3 - (2 * k - 1) * a) / (2 * a)
    return first, second


def lower_bound_gap(k: int, alpha: float) -> float:
    """Second minus first complete-split lower bound; independent of n.

    Equals ((2k-2)*a - (2k-3)) * (a-1) / (2a): nonnegative exactly when
    a <= (2k-3)/(2k-2).
    """
    a = require_open_weight(alpha)
    if k < 2:
        raise ValueError(f"bound comparison needs k >= 2, got k={k}")
    return ((2 * k - 2) * a - (2 * k - 3)) * (a - 1) / (2 * a)


def lower_bound_crossover(k: int) -> float:
    """Weight at which the two complete-split lower bounds coincide."""
    if k < 2:
        raise ValueError(f"bound comparison needs k >= 2, got k={k}")
    return (2 * k - 3) / (2 * k - 2)


# -- clique joined to a degree-capped part -----------------------------


def clique_join_order_minimum(k: int, d: int, alpha: float) -> float:
    """Smallest order at which the clique-join quadratic bound is asserted."""
    a = require_open_weight(alpha)
    return max(k - 1, 2 * k - 2 + (d - k + 1) / a)


def clique_join_quadratic(n: int, k: int, d: int, alpha: float) -> QuadraticBound:
    """Quadratic whose largest root bounds the alpha index of a clique of
    size k-1 joined to any graph H on n-k+1 vertices with max degree <= d-1.

    x^2 - (a*n + k + d - 3)*x
        + (a*(n-k+1) + k - 2)*(a*(k-1) + d - 1) - (1-a)^2*(k-1)*(n-k+1).

    The bound is attained exactly when H is (d-1)-regular.
    """
    a = require_open_weight(alpha)
    if d < 2:
        raise ValueError(f"clique join quadratic needs d >= 2, got d={d}")
    if k < 1:
        raise ValueError(f"clique join quadratic needs k >= 1, got k={k}")
    minimum = clique_join_order_minimum(k, d, a)
    if n < minimum:
        raise ValueError(
            f"clique join quadratic needs n >= max(k-1, 2k-2+(d-k+1)/a) = {minimum:.6g}, got n={n}"
        )
    b = -(a * n + k + d - 3)
    c = (a * (n - k + 1) + k - 2) * (a * (k - 1) + d - 1) - (1 - a) ** 2 * (k - 1) * (
        n - k + 1
    )
    return QuadraticBound(b, c)


# -- edge-count ceilings ------------------------------------------------


def star_forest_edge_bound(spec: StarForestSpec, n: int) -> float:
    """Edge ceiling for graphs of order n with no copy of the star forest.

    (sum(d_i) + 2k - 3)*n/2 - (k-1)*(sum(d_i) + k - 1)/2, for n >= sum(d_i) + k.
    """
    total = spec.degree_sum
    k = spec.k
    if n < total + k:
        raise ValueError(
            f"edge bound needs n >= sum(degrees) + k = {total + k}, got n={n}"
        )
    return 0.5 * (total + 2 * k - 3) * n - 0.5 * (k - 1) * (total + k - 1)


def star_minor_edge_bound(h: int, t: int) -> float:
    """Edge ceiling h + t*(t-3)/2 for connected star-minor-free graphs.

    Applies to connected graphs of order h >= t+2 with no minor isomorphic
    to the star with t leaves.
    """
    if t < 2:
        raise ValueError(f"star minor edge bound needs t >= 2, got t={t}")
    if h < t + 2:
        raise ValueError(f"star minor edge bound needs h >= t+2, got h={h}, t={t}")
    return h + t * (t - 3) / 2.0


# -- signless Laplacian specializations (weight 1/2) ---------------------


def biclique_q_bound(n: int, s: int, t: int) -> float:
    """Signless Laplacian ceiling for complete-bipartite-minor-free graphs.

    (n + 2s + 2t - 6 + sqrt((n + 2s - 2t - 2)^2 + 8(s-1)(t-s+1))) / 2;
    equals twice the clique-join quadratic root at weight 1/2.
    """
    if not 2 <= s <= t:
        raise ValueError(f"biclique bound needs t >= s >= 2, got s={s}, t={t}")
    minimum = clique_join_order_minimum(s, t, 0.5)
    if n < minimum:
        raise ValueError(f"biclique bound needs n >= {minimum:.6g}, got n={n}")
    disc = (n + 2 * s - 2 * t - 2) ** 2 + 8 * (s - 1) * (t - s + 1)
    return (n + 2 * s + 2 * t - 6 + math.sqrt(disc)) / 2.0


def star_forest_q_bound(n: int, spec: StarForestSpec) -> float:
    """Signless Laplacian ceiling for star-forest-free graphs.

    (n + 2k + 2d_k - 6 + sqrt((n + 2k - 2d_k - 2)^2 + 8(k-1)(d_k-k+1))) / 2
    with d_k the smallest star degree; equals twice the clique-join
    quadratic root at weight 1/2. For d_k = 2 with n-k+1 odd the ceiling is
    not attained (the extremal matching construction falls strictly below).
    """
    k = spec.k
    d = spec.min_degree
    if d < 2:
        raise ValueError(f"signless Laplacian bound needs d_k >= 2, got {d}")
    minimum = clique_join_order_minimum(k, d, 0.5)
    if n < minimum:
        raise ValueError(f"star forest bound needs n >= {minimum:.6g}, got n={n}")
    disc = (n + 2 * k - 2 * d - 2) ** 2 + 8 * (k - 1) * (d - k + 1)
    return (n + 2 * k + 2 * d - 6 + math.sqrt(disc)) / 2.0


# -- order thresholds of the extremal statements -------------------------


def star_forest_order_threshold(spec: StarForestSpec, alpha: float) -> float:
    """Order above which the star-forest extremal statement is asserted
    for arbitrary (possibly disconnected) hosts: 4*(S+k-2)*(S+3k-5)/a^3."""
    a = require_open_weight(alpha)
    total = spec.degree_sum
    return 4 * (total + spec.k - 2) * (total + 3 * spec.k - 5) / a**3


def star_forest_order_threshold_connected(spec: StarForestSpec, alpha: float) -> float:
    """Connected-host variant of the threshold, with a^2 in place of a^3."""
    a = require_open_weight(alpha)
    total = spec.degree_sum
    return 4 * (total + spec.k - 2) * (total + 3 * spec.k - 5) / a**2
