"""Isomorph-free exhaustive generation of small graphs, optionally pruned to
a hereditary class.

Orderly generation by canonical augmentation (McKay 1998, *Isomorph-free
exhaustive generation*): a graph of order n+1 is built from a graph of
order n by attaching one new vertex to a chosen neighbor set. The canonical
parent of any graph is the graph left after deleting its canonical deletion
vertex (the automorphism-orbit representative among the vertices minimizing
(degree, sorted neighbor degrees)); an augmentation is accepted only when
the new vertex sits in that orbit, and neighbor sets are tried once per
Aut(parent) orbit. Together this emits exactly one representative per
isomorphism class, deterministically, with no global dedup table.

Since the deletion vertex always has minimum degree, neighbor sets larger
than min_degree(parent) + 1 can never be accepted and are not generated.

Every ancestor of a graph in this tree is a vertex-deleted subgraph of it.
So for a predicate ``keep`` that is closed under vertex deletion (every
induced subgraph of a kept graph is kept, as for any minor-closed or
subgraph-closed class), a rejected node's subtree holds no kept graph, and
the walk tests each accepted child and descends only into kept ones. It
emits the kept graphs in exactly the order the full walk would. A ``keep``
that is not closed under vertex deletion (connectedness, say) loses members.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator

from .canon import canonical_labeling_masks, orbits_from_generators
from .graphs import Graph

ENUMERATION_CAP = 10


class EnumerationCapError(ValueError):
    """Requested order exceeds the enumeration cap."""


def _degrees(adj: tuple[int, ...]) -> list[int]:
    return [row.bit_count() for row in adj]


def _accept(n: int, adj: tuple[int, ...]) -> bool:
    """Is vertex n-1 a canonical deletion vertex of this order-n graph?"""
    degs = _degrees(adj)
    v = n - 1
    mind = min(degs)
    if degs[v] > mind:
        return False
    min_set = [u for u in range(n) if degs[u] == mind]
    if len(min_set) == 1:
        return True

    def kappa(u: int) -> tuple[int, ...]:
        row = adj[u]
        out = []
        while row:
            low = row & -row
            out.append(degs[low.bit_length() - 1])
            row ^= low
        out.sort()
        return tuple(out)

    kv = kappa(v)
    candidates = [v]
    for u in min_set:
        if u == v:
            continue
        ku = kappa(u)
        if ku < kv:
            return False
        if ku == kv:
            candidates.append(u)
    if len(candidates) == 1:
        return True
    perm, gens = canonical_labeling_masks(n, adj)
    orbit = orbits_from_generators(n, gens)
    chosen = min(candidates, key=lambda u: perm[u])
    return orbit[chosen] == orbit[v]


def _permute_mask(mask: int, g: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << g[low.bit_length() - 1]
        mask ^= low
    return out


def _is_orbit_min(mask: int, gens: list[tuple[int, ...]]) -> bool:
    """Is ``mask`` the minimum of its orbit under the generated group?"""
    seen = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for g in gens:
            m2 = _permute_mask(m, g)
            if m2 < mask:
                return False
            if m2 not in seen:
                seen.add(m2)
                frontier.append(m2)
    return True


def _children(m: int, adj: tuple[int, ...], gens: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Accepted one-vertex extensions of an order-m graph, in deterministic order."""
    degs = _degrees(adj)
    max_size = min(m, (min(degs) if m else 0) + 1)
    for size in range(max_size + 1):
        for combo in combinations(range(m), size):
            mask = 0
            for u in combo:
                mask |= 1 << u
            if gens and not _is_orbit_min(mask, gens):
                continue
            child = tuple(
                row | (1 << m) if mask >> u & 1 else row for u, row in enumerate(adj)
            ) + (mask,)
            if _accept(m + 1, child):
                yield child


def _descend(g: Graph, target: int, keep: Callable[[Graph], bool]) -> Iterator[Graph]:
    if g.n == target:
        yield g
        return
    gens = canonical_labeling_masks(g.n, g.adj)[1] if g.n > 1 else []
    for adj in _children(g.n, g.adj, gens):
        child = Graph(g.n + 1, adj)
        if keep(child):
            yield from _descend(child, target, keep)


def _keep_all(g: Graph) -> bool:
    return True


def check_order(n: int) -> None:
    """Refuse an order below 1 or above the enumeration cap."""
    if n < 1:
        raise ValueError("enumeration needs order >= 1")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"order {n} exceeds the enumeration cap {ENUMERATION_CAP}")


def enumerate_graphs(
    n: int, *, keep: Callable[[Graph], bool] = _keep_all, roots: Iterable[Graph] | None = None
) -> Iterator[Graph]:
    """One representative per isomorphism class of the order-n graphs that
    ``keep`` accepts, or of those that descend from ``roots``.

    ``keep`` must be closed under vertex deletion: it is tested on every
    node of the augmentation tree, and a rejected node's subtree is never
    generated, so a kept graph below a rejected ancestor would be lost. The
    default keeps every graph.

    ``roots`` are nodes of order at most n that this walk emitted with the
    same ``keep``; each root's descendants are emitted in turn, so the roots
    of one order, in walk order, give the whole census in order. The default
    is the order-1 root.
    """
    check_order(n)
    if roots is None:
        root = Graph(1, (0,))
        roots = [root] if keep(root) else []
    for node in roots:
        yield from _descend(node, n, keep)
