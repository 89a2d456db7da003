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

Since the deletion vertex has minimum degree, neighbor sets have at most
min_degree(parent) + 1 vertices, and at that size they hold every vertex of
minimum degree (as in McKay's ``geng``). A child is canonically labeled
only when some vertex ties with the new one on (degree, sorted neighbor
degrees) and is not its twin (a twin u of v gives the automorphism (u v),
so a child whose every tie is a twin is accepted as it stands). That
labeling also yields the automorphisms its own children are tried under,
so within one walk no node is labeled twice, and a rejected child whose
ties are all twins is never labeled.

Every ancestor of a graph in this tree is a vertex-deleted subgraph of it.
So for a predicate ``keep`` that is closed under vertex deletion (every
induced subgraph of a kept graph is kept, as for any minor-closed or
subgraph-closed class), a rejected node's subtree holds no kept graph, and
the walk tests each accepted child and descends only into kept ones. It
emits the kept graphs in exactly the order the full walk would. A ``keep``
that is not closed under vertex deletion (connectedness, say) loses members.

``keep`` is called only on the order-1 root and on children of kept nodes,
so it may ask only whether the last vertex breaks membership.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator

from .canon import canonical_labeling_masks, orbit
from .graphs import Graph, iter_bits, mask_of, permute_mask

ENUMERATION_CAP = 10


class EnumerationCapError(ValueError):
    """Requested order exceeds the enumeration cap."""


def _degrees(adj: tuple[int, ...]) -> list[int]:
    return [row.bit_count() for row in adj]


def _deletion_candidates(n: int, adj: tuple[int, ...]) -> list[int]:
    """Vertex n-1 (of minimum degree) and the vertices tied with it on
    (degree, sorted neighbor degrees); empty when some vertex beats it."""
    degs = _degrees(adj)
    v = n - 1
    min_set = [u for u in range(v) if degs[u] == degs[v]]
    if not min_set:
        return [v]

    def kappa(u: int) -> list[int]:
        return sorted([degs[w] for w in iter_bits(adj[u])])

    kv = kappa(v)
    candidates = [v]
    for u in min_set:
        ku = kappa(u)
        if ku < kv:
            return []
        if ku == kv:
            candidates.append(u)
    return candidates


def _children(
    m: int, adj: tuple[int, ...], gens: list[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(child, deletion candidates) for the one-vertex extensions of an
    order-m graph whose new vertex has minimum degree and no vertex beats it,
    one neighbor set per Aut orbit, in (size, lexicographic) order.

    A vertex of degree below the size must join the neighbor set, or it
    would end below the new vertex; that happens only at min_degree + 1.
    """
    degs = _degrees(adj)
    for size in range(min(m, min(degs) + 1) + 1):
        forced = [u for u in range(m) if degs[u] < size]
        if len(forced) > size:
            break
        base = mask_of(forced)
        free = [u for u in range(m) if degs[u] >= size]
        for combo in combinations(free, size - len(forced)):
            mask = base | mask_of(combo)
            # One neighbor set per Aut orbit: the orbit's minimum.
            if gens and any(m2 < mask for m2 in orbit(mask, gens, permute_mask)):
                continue
            child = tuple(
                row | (1 << m) if mask >> u & 1 else row for u, row in enumerate(adj)
            ) + (mask,)
            candidates = _deletion_candidates(m + 1, child)
            if candidates:
                yield child, candidates


def _descend(
    g: Graph, target: int, keep: Callable[[Graph], bool], gens: list[tuple[int, ...]] | None
) -> Iterator[Graph]:
    """The kept order-target descendants of g; ``gens`` generate Aut(g), or
    are None when g is not labeled yet."""
    if g.n == target:
        yield g
        return
    if gens is None:
        gens = canonical_labeling_masks(g.n, g.adj)[1]
    v = g.n
    for adj, candidates in _children(g.n, g.adj, gens):
        child_gens = None
        # candidates[0] is v. A tied twin u of v is in v's orbit, by (u v);
        # with every tie a twin, the canonical candidate is, so accept.
        if any(adj[u] & ~(1 << v) != adj[v] & ~(1 << u) for u in candidates[1:]):
            # Accept only when the new vertex is in the orbit of the tied
            # candidate that the canonical labeling puts first.
            perm, child_gens = canonical_labeling_masks(g.n + 1, adj)
            if min(candidates, key=perm.__getitem__) not in orbit(v, child_gens):
                continue
        # _children's tables are symmetric and loop-free by construction.
        child = Graph.unchecked(g.n + 1, adj)
        if keep(child):
            yield from _descend(child, target, keep, child_gens)


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

    ``keep`` must be closed under vertex deletion: it is tested once on every
    node of the augmentation tree (whose last vertex has minimum degree), and
    a rejected node's subtree is never generated, so a kept graph below a
    rejected ancestor would be lost. It is called only on the order-1 root
    and on children of kept nodes, so it may assume that its graph minus
    the last vertex is kept. The default keeps every graph.

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
        yield from _descend(node, n, keep, None)
