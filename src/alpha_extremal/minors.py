"""Minor containment: exact deciders for four patterns, branch-set search for the rest.

A pattern H is a minor of a host G when G holds disjoint connected branch
sets, one per pattern vertex, with a host edge between every pair of sets
whose pattern vertices are adjacent.

K3, K4, K_{2,2} and K_{2,3} absence is decided exactly in linear time, each
by its entry in one table: K3-minor-free graphs are the forests;
K4-minor-free graphs are the series-parallel ones, which a degree <= 2
reduction empties (Duffin 1965); C4-minor-free graphs are those whose every
block has at most three vertices (a 2-connected block on four or more holds
a cycle that long); and K_{2,3}-minor-free graphs are those whose every
block is outerplanar or K4 (Ellingham, Marshall, Ozeki and Tsuchiya 2016),
with outerplanarity tested by Mitchell's 1979 degree-2 reduction. In
has_minor a present minor of these, and every other pattern, goes to the
branch-set search, so every positive answer carries a certificate;
is_minor_free, which only needs the yes/no answer, stops at the decider, at
any host order.

settled_by_new_vertex answers from one vertex's attachment alone, for a
host whose other vertices are known to span no minor, as in the census.

The search assigns branch sets one pattern vertex at a time; candidate sets
are enumerated as connected subsets of the unused vertices (each exactly
once, by the fixed-minimum extension scheme) and pruned by remaining-vertex
counts, aggregate-degree needs, and pending cross-adjacency feasibility.
Interchangeable pattern vertices (clique vertices, the two sides of a
complete bipartite pattern) are symmetry-broken by forcing (size, min
vertex) to increase. Its absence answers are exhaustive, which is
exponential in the worst case, so has_minor refuses hosts above order
HOST_CAP = 12 for every pattern that fits in them. Certificates are
re-validated before being returned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Union

from .graphs import Graph, iter_bits, mask_of, reach

HOST_CAP = 12


class MinorSearchCapError(ValueError):
    """Host too large for exhaustive branch-set search."""


@dataclass(frozen=True)
class CliqueMinor:
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"clique pattern needs r >= 1, got {self.r}")


@dataclass(frozen=True)
class BicliqueMinor:
    s: int
    t: int

    def __post_init__(self):
        if not 1 <= self.s <= self.t:
            raise ValueError(f"biclique pattern needs t >= s >= 1, got s={self.s}, t={self.t}")


MinorPattern = Union[CliqueMinor, BicliqueMinor]


@dataclass(frozen=True)
class MinorEmbedding:
    """Certificate: one sorted branch set per pattern vertex."""

    branch_sets: tuple[tuple[int, ...], ...]


@functools.cache
def pattern_graph(p: MinorPattern) -> Graph:
    """K_r or K_{s,t}, built once per pattern."""
    if isinstance(p, CliqueMinor):
        return Graph.complete(p.r)
    return Graph.complete_bipartite(p.s, p.t)


def _tie_groups(p: MinorPattern) -> list[int]:
    """Group label per pattern vertex; equal adjacent labels mark
    interchangeable vertices eligible for symmetry breaking."""
    if isinstance(p, CliqueMinor):
        return [0] * p.r
    return [0] * p.s + [1] * p.t


def verify_minor_embedding(g: Graph, p: MinorPattern, emb: MinorEmbedding) -> bool:
    """Independent inspection of a claimed branch-set certificate."""
    pat = pattern_graph(p)
    sets = emb.branch_sets
    if len(sets) != pat.n:
        return False
    used = 0
    for branch in sets:
        if not branch or any(not 0 <= v < g.n for v in branch):
            return False
        member = mask_of(branch)
        if used & member or reach(g.adj, branch[0], member) != member:
            return False
        used |= member
    for i, j in pat.edges():
        if not any(g.has_edge(u, v) for u in sets[i] for v in sets[j]):
            return False
    return True


def _series_parallel(g: Graph) -> bool:
    """K4-minor-freeness (Duffin 1965): delete vertices of degree <= 1 and
    suppress degree-2 vertices, joining their two neighbours (a parallel
    edge merges into the existing one); K4-minor-free exactly when this
    empties the graph."""
    adj = list(g.adj)
    alive = (1 << g.n) - 1
    stack = list(range(g.n))
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if not alive >> v & 1 or nbrs.bit_count() > 2:
            continue
        alive ^= 1 << v
        ends = list(iter_bits(nbrs))
        for u in ends:
            adj[u] ^= 1 << v
        if len(ends) == 2:
            u, w = ends
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        stack.extend(ends)
    return not alive


def _blocks(g: Graph) -> list[int]:
    """Vertex masks of the blocks with at least two vertices (Hopcroft-Tarjan)."""
    disc = [0] * g.n  # DFS discovery number, from 1; 0 marks unvisited
    low = [0] * g.n
    counter = itertools.count(1)
    stack: list[int] = []
    blocks: list[int] = []

    def visit(v: int) -> None:
        disc[v] = low[v] = next(counter)
        stack.append(v)
        for w in iter_bits(g.adj[v]):
            if disc[w]:
                low[v] = min(low[v], disc[w])
                continue
            visit(w)
            low[v] = min(low[v], low[w])
            if low[w] >= disc[v]:  # v cuts off w's subtree: pop one block
                block = 1 << v
                while not block >> w & 1:
                    block |= 1 << stack.pop()
                blocks.append(block)

    for v in range(g.n):
        if not disc[v]:
            visit(v)
            stack.pop()
    return blocks


def _outerplanar_block(g: Graph, block: int) -> bool:
    """Outerplanarity of a 2-connected induced subgraph (Mitchell 1979).

    A degree-2 vertex v with neighbours u, w lies on the outer cycle between
    u and w; removing it (adding uw if absent) leaves a 2-connected graph
    that is outerplanar with uw on its outer cycle exactly when the larger
    graph is outerplanar. An edge that must be outer is marked, and reducing
    onto an already marked edge puts it on the outer cycle twice, which only
    a triangle allows.
    """
    adj = [row & block for row in g.adj]
    alive = block
    marked: set[tuple[int, int]] = set()
    stack = [v for v in iter_bits(block) if adj[v].bit_count() == 2]
    while alive.bit_count() > 3:
        # 2-connectivity survives each step, so no degree drops below 2.
        while stack and not alive >> stack[-1] & 1:
            stack.pop()
        if not stack:
            return False
        v = stack.pop()
        u, w = iter_bits(adj[v])
        alive ^= 1 << v
        adj[u] ^= 1 << v
        adj[w] ^= 1 << v
        if adj[u] >> w & 1:
            if (u, w) in marked:
                return False
        else:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        marked.add((u, w))
        stack.extend(x for x in (u, w) if adj[x].bit_count() == 2)
    return True


def _k23_minor_free(g: Graph) -> bool:
    """K_{2,3}-minor-freeness: every block is outerplanar or K4 (Ellingham,
    Marshall, Ozeki and Tsuchiya 2016)."""
    for block in _blocks(g):
        if block.bit_count() == 4 and all((g.adj[v] | 1 << v) & block == block for v in iter_bits(block)):
            continue
        if not _outerplanar_block(g, block):
            return False
    return True


# Patterns whose absence is decided exactly without search.
_ABSENCE_DECIDERS = {
    CliqueMinor(3): Graph.is_forest,
    CliqueMinor(4): _series_parallel,
    BicliqueMinor(2, 2): lambda g: all(b.bit_count() <= 3 for b in _blocks(g)),
    BicliqueMinor(2, 3): _k23_minor_free,
}


def _outsized(g: Graph, pat: Graph) -> bool:
    """The pattern has more vertices or more edges than g, so it is no minor."""
    return pat.n > g.n or pat.edge_count() > g.edge_count()


def has_minor(g: Graph, p: MinorPattern) -> MinorEmbedding | None:
    """Branch-set certificate when the pattern is a minor of g, else None.

    A pattern with more vertices or edges than g is absent at any order;
    otherwise hosts above the cap are refused. K3, K4, K_{2,2} and K_{2,3}
    absence is decided exactly by the acyclicity, series-parallel,
    block-size and block-outerplanarity tests, which return None at once; a
    present minor, and every other pattern, goes to the branch-set search
    for its certificate.
    """
    pat = pattern_graph(p)
    if _outsized(g, pat):
        return None
    if g.n > HOST_CAP:
        raise MinorSearchCapError(f"host order {g.n} exceeds the branch-set search cap {HOST_CAP}")
    decide = _ABSENCE_DECIDERS.get(p)
    if decide is not None and decide(g):
        return None
    emb = _branch_set_search(g, pat, _tie_groups(p))
    if emb is None and decide is not None:
        raise RuntimeError(f"{p} decider and branch-set search disagree on {g}")
    if emb is not None and not verify_minor_embedding(g, p, emb):
        raise RuntimeError(f"minor search produced an invalid certificate: {emb}")
    return emb


def is_minor_free(g: Graph, p: MinorPattern) -> bool:
    """Whether the pattern is not a minor of g.

    K3, K4, K_{2,2} and K_{2,3} stop at their exact decider, at any host order,
    and build no certificate; every other pattern asks has_minor.
    """
    decide = _ABSENCE_DECIDERS.get(p)
    if decide is None:
        return has_minor(g, p) is None
    return _outsized(g, pattern_graph(p)) or decide(g)


def settled_by_new_vertex(g: Graph, p: MinorPattern, v: int) -> bool:
    """True when g is p-minor-free because g - v is and v is simplicial
    (its neighbours are pairwise adjacent) with fewer neighbours than the
    pattern's minimum degree; False leaves the question open.

    Such a v is no branch set on its own. A branch set holding v and more
    holds a neighbour u of v; without v it stays connected, and an edge from
    v to another set, at a neighbour w, is matched by the edge uw. So every
    model in g gives one in g - v.
    """
    nbrs = g.adj[v]
    if nbrs.bit_count() >= min(pattern_graph(p).degrees()):
        return False
    return all((g.adj[u] | 1 << u) & nbrs == nbrs for u in iter_bits(nbrs))


def _branch_set_search(
    g: Graph, pat: Graph, groups: list[int]
) -> MinorEmbedding | None:
    n = g.n
    m = pat.n
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    full = (1 << n) - 1
    # Pattern bookkeeping, by placement level:
    pat_deg = [pat.degree(i) for i in range(m)]
    earlier_nbrs = [[j for j in range(i) if pat.has_edge(i, j)] for i in range(m)]
    # Placed vertices that still owe an edge to a future pattern vertex.
    pending_after = [
        [j for j in range(i) if any(pat.has_edge(j, l) for l in range(i, m))]
        for i in range(m)
    ]

    branches: list[int] = []  # branch masks
    branch_nbrs: list[int] = []  # union of host neighborhoods per branch

    def place(i: int, used: int) -> bool:
        if i == m:
            return True
        avail = full & ~used
        if avail.bit_count() < m - i:
            return False
        for j in pending_after[i]:
            if branch_nbrs[j] & avail == 0:
                return False
        req = earlier_nbrs[i]
        same_group = i > 0 and groups[i] == groups[i - 1]
        prev_size = branches[i - 1].bit_count() if same_group else 0
        prev_min = (branches[i - 1] & -branches[i - 1]).bit_length() - 1 if same_group else -1
        max_size = avail.bit_count() - (m - i - 1)

        def try_set(s_mask: int, size: int, degsum: int) -> bool:
            # Aggregate degree must cover internal tree plus pattern edges.
            if degsum < pat_deg[i] + 2 * (size - 1):
                return False
            if same_group:
                root = (s_mask & -s_mask).bit_length() - 1
                if (size, root) <= (prev_size, prev_min):
                    return False
            if any(s_mask & branch_nbrs[j] == 0 for j in req):
                return False
            s_nbrs = 0
            for v in iter_bits(s_mask):
                s_nbrs |= adj[v]
            s_nbrs &= ~s_mask
            branches.append(s_mask)
            branch_nbrs.append(s_nbrs)
            if place(i + 1, used | s_mask):
                return True
            branches.pop()
            branch_nbrs.pop()
            return False

        def grow(s_mask: int, ext: int, size: int, degsum: int, scope: int) -> bool:
            # scope = avail vertices above the root; keeps min(set) == root so
            # every connected set is generated exactly once.
            if try_set(s_mask, size, degsum):
                return True
            if size == max_size:
                return False
            nbr_mask = 0
            for v in iter_bits(s_mask):
                nbr_mask |= adj[v]
            for u in iter_bits(ext):
                fresh = adj[u] & scope & ~nbr_mask & ~s_mask
                above = ext & ~((1 << (u + 1)) - 1)
                if grow(s_mask | 1 << u, above | fresh, size + 1, degsum + deg[u], scope):
                    return True
            return False

        for root in iter_bits(avail):
            scope = avail & ~((1 << (root + 1)) - 1)
            if grow(1 << root, adj[root] & scope, 1, deg[root], scope):
                return True
        return False

    if not place(0, 0):
        return None
    return MinorEmbedding(tuple(tuple(iter_bits(b)) for b in branches))
