"""Immutable simple graphs with bit-packed adjacency, plus the named join constructions.

Vertices are 0..n-1. Each vertex's neighborhood is stored as an int bitmask,
which keeps degree counts, subset tests and the exhaustive searches elsewhere
in the package cheap. Graph values are immutable and hashable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Union


class FeasibilityError(ValueError):
    """A construction's parameters violate one of its invariants."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Finite simple undirected graph: order ``n`` plus symmetric adjacency bitmasks."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("graph order must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency table length must equal the order")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(n):
            for v in iter_bits(adj[u]):
                if not adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = tuple(adj)
        self._hash = hash((n, self.adj))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def star(leaves: int) -> "Graph":
        return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @staticmethod
    def complete_bipartite(s: int, t: int) -> "Graph":
        return Graph.from_edges(s + t, [(i, s + j) for i in range(s) for j in range(t)])

    # -- basic queries ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        out = []
        for u, row in enumerate(self.adj):
            out.extend((u, v) for v in iter_bits(row >> (u + 1) << (u + 1)))
        return out

    def is_regular(self, d: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        if d is None:
            return True
        return not degs if self.n == 0 else degs == {d}

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def two_core(self) -> int:
        """Vertex mask of the 2-core: what repeated leaf stripping leaves."""
        deg = list(self.degrees())
        core = (1 << self.n) - 1
        stack = [v for v in range(self.n) if deg[v] <= 1]
        while stack:
            v = stack.pop()
            if not core >> v & 1:
                continue
            core ^= 1 << v
            for u in iter_bits(self.adj[v] & core):
                deg[u] -= 1
                if deg[u] == 1:
                    stack.append(u)
        return core

    def is_forest(self) -> bool:
        """Acyclicity: the 2-core is empty."""
        return self.two_core() == 0

    # -- derived graphs -----------------------------------------------

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image of the graph under vertex map v -> perm[v]."""
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            new_row = 0
            for u in iter_bits(row):
                new_row |= 1 << perm[u]
            adj[perm[v]] = new_row
        return Graph(self.n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by |g|."""
    shifted = tuple(row << g.n for row in h.adj)
    return Graph(g.n + h.n, g.adj + shifted)


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union plus every edge between the two vertex sets."""
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [row | h_mask for row in g.adj]
    adj += [(row << g.n) | g_mask for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


def union_of_copies(k: int, g: Graph) -> Graph:
    """k disjoint copies of g."""
    out = Graph.empty(0)
    for _ in range(k):
        out = disjoint_union(out, g)
    return out


# -- named construction families --------------------------------------
#
# Each family is a clique joined to a part that is a disjoint union of
# regular graphs; clique_and_part() gives (clique size, part graph) and
# raises FeasibilityError naming the violated invariant when no graph has
# the family's parameters.


@dataclass(frozen=True)
class CompleteSplit:
    """Complete split graph: a clique on m vertices joined to an independent set."""

    n: int
    m: int

    def clique_and_part(self) -> tuple[int, Graph]:
        if not 0 <= self.m <= self.n:
            raise FeasibilityError(f"CompleteSplit needs 0 <= m <= n, got m={self.m}, n={self.n}")
        return self.m, Graph.empty(self.n - self.m)


@dataclass(frozen=True)
class CliqueJoinCliques:
    """Clique on s-1 vertices joined to p disjoint copies of the complete graph on t."""

    n: int
    s: int
    t: int
    p: int

    def clique_and_part(self) -> tuple[int, Graph]:
        if self.s < 1 or self.t < 1 or self.p < 1:
            raise FeasibilityError("CliqueJoinCliques needs s >= 1, t >= 1, p >= 1")
        if self.n - self.s + 1 != self.p * self.t:
            raise FeasibilityError(
                f"CliqueJoinCliques needs n-s+1 = p*t exactly, got "
                f"{self.n}-{self.s}+1 = {self.n - self.s + 1} != {self.p}*{self.t}"
            )
        return self.s - 1, union_of_copies(self.p, Graph.complete(self.t))


def _part_order(spec) -> int:
    """n-k+1, the order of the part joined to the clique on k-1 vertices."""
    m = spec.n - spec.k + 1
    if spec.k < 1 or m < 0:
        raise FeasibilityError(
            f"{type(spec).__name__} needs k >= 1 and n >= k-1, got n={spec.n}, k={spec.k}"
        )
    return m


@dataclass(frozen=True)
class CliqueJoinMatching:
    """Clique on k-1 vertices joined to a maximum matching plus leftover isolated vertex.

    The matching part has p = (n-k+1) // 2 edges and q = (n-k+1) % 2 isolated
    vertices.
    """

    n: int
    k: int

    def clique_and_part(self) -> tuple[int, Graph]:
        p, q = divmod(_part_order(self), 2)
        return self.k - 1, disjoint_union(union_of_copies(p, Graph.complete(2)), Graph.empty(q))


@dataclass(frozen=True)
class CliqueJoinRegular:
    """Clique on k-1 vertices joined to a (d-1)-regular circulant on n-k+1 vertices."""

    n: int
    k: int
    d: int

    def clique_and_part(self) -> tuple[int, Graph]:
        m, r = _part_order(self), self.d - 1
        if not 0 <= r < max(m, 1):
            raise FeasibilityError(
                f"CliqueJoinRegular needs 0 <= d-1 < n-k+1, got d-1={r}, n-k+1={m}"
            )
        if (r * m) % 2 != 0:
            raise FeasibilityError(f"parity violation: (d-1)(n-k+1) = {r}*{m} must be even")
        return self.k - 1, regular_circulant(m, r)


ConstructionSpec = Union[CompleteSplit, CliqueJoinCliques, CliqueJoinMatching, CliqueJoinRegular]


def regular_circulant(n: int, degree: int) -> Graph:
    """Deterministic ``degree``-regular circulant on n vertices.

    Uses offsets 1..degree//2 plus the antipodal offset n/2 when ``degree`` is
    odd (which forces n even). Connected for degree >= 2 since offset 1 is
    always included.
    """
    if not 0 <= degree < max(n, 1):
        raise FeasibilityError(f"no {degree}-regular graph on {n} vertices")
    if degree % 2 == 1 and n % 2 == 1:
        raise FeasibilityError(
            f"parity violation: {degree}-regular graph on odd order {n} is impossible"
        )
    offsets = [*range(1, degree // 2 + 1), *([n // 2] if degree % 2 else [])]
    return Graph.from_edges(n, [(v, (v + off) % n) for off in offsets for v in range(n)])


def construct(spec: ConstructionSpec) -> Graph:
    """Build the graph named by a construction spec: its clique joined to its part."""
    clique, part = spec.clique_and_part()
    return join(Graph.complete(clique), part)


def quotient_classes(spec: ConstructionSpec) -> tuple[int, list[tuple[int, int]]]:
    """Equitable partition data for a construction.

    Returns (clique_size, parts) where parts lists the part's degree classes
    as (size, degree), by decreasing degree. Every clique vertex is adjacent
    to everything, and the part is a disjoint union of regular graphs, so a
    part vertex's neighbors outside the clique all lie in its own degree
    class: the partition is equitable.
    """
    clique, part = spec.clique_and_part()
    sizes = Counter(part.degrees())
    return clique, [(sizes[d], d) for d in sorted(sizes, reverse=True)]
