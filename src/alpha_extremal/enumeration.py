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
minimum degree (as in McKay's ``geng``). The walk starts at the order-0
graph, whose only child is K1. A child is canonically labeled only when
some vertex ties with the new one on (degree, sorted neighbor degrees) and
is not its twin (a twin u of v gives the automorphism (u v), so a child
whose every tie is a twin is accepted as it stands). That labeling also
yields the automorphisms its own children are tried under. A kept child
that was not labeled has its group from its parent's: every automorphism
maps the new vertex v to v or to a tied twin, so Aut(child) is generated by
the stabilizer of v's neighbor set in Aut(parent), fixing v, and the
transpositions (u v) of its tied twins u (Schreier's lemma gives the
stabilizer). So nothing is labeled on descent, no node is labeled twice,
and a rejected child whose ties are all twins is never labeled.

Every ancestor of a graph in this tree is a vertex-deleted subgraph of it.
So for a predicate ``keep`` that is closed under vertex deletion (every
induced subgraph of a kept graph is kept, as for any minor-closed or
subgraph-closed class), a rejected node's subtree holds no kept graph, and
the walk tests each accepted child and descends only into kept ones. It
emits the kept graphs in exactly the order the full walk would. A ``keep``
that is not closed under vertex deletion (connectedness, say) loses members.

``keep`` is called only on children of kept nodes (K1 is the order-0
graph's child), so it may ask only whether the last vertex breaks
membership.

At the target order the decision is the caller's. ``leaves`` yields one
lazy leaf (parent, generators, mask) per order-n child, unbuilt, with its
note (below); ``build`` makes one leaf's graph and deletion candidates
(None if some vertex beats its new vertex), ``emits`` asks a built leaf the
tie test, then ``keep``, and ``kept_node`` also gives a kept leaf its
group, so that a walk continued below it needs no labeling.
``leaf_degree_sums`` gives the children of one parent on given masks their
(degree, neighbor-degree sum) pairs, derived from the parent's, so that a
caller can bound a child's alpha index before building it.
A caller's ``reach`` may drop children before they are decided, at every
order: ``reach(node, note, groups)``, asked once per kept node below order
n with the node's own note, keeps the masks of those it needs (the census,
those whose order-n descendants can reach its floor), each with a note for
the child (the census, its bound). The masks come in lazy groups, one per
size, in size order, so a reach that stops reading groups (the census, at
its class's minimum-degree ceiling) or passes one over (the census, a size
whose bound cannot reach its floor) has none of those orbit-tested. The walk
neither decides nor descends into the rest; a kept child carries its note,
and only the order-n leaves kept are yielded, each with its note. By
default it reaches every child, noting None.
``nodes`` gives the reached, kept nodes of one order, with their groups and
notes, from which ``leaves`` may continue the walk. ``enumerate_graphs`` is
the walk with every leaf decided in turn; a caller that needs only some
leaves (the census, visiting them in bound order) builds and decides only
those, in any order, since a leaf's decision depends only on the leaf and
``keep``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator

from .canon import canonical_labeling_masks, orbit, stabilizer
from .graphs import Graph, iter_bits, mask_of, permute_mask

ENUMERATION_CAP = 10


Gens = list[tuple[int, ...]]
# A kept node of the walk: the graph, generators of its automorphism group
# and the note that ``reach`` gave it.
Node = tuple[Graph, Gens, object]
# A lazy leaf: a kept order-(n-1) node, its generators and one child's
# neighbor mask, the child unbuilt and undecided.
Leaf = tuple[Graph, Gens, int]
# A node's children's neighbor masks of one size: (size, masks), the masks
# lazily, in lexicographic order; those never read are never made.
Group = tuple[int, Iterator[int]]
# Which children of a kept node the walk goes on with: (node graph, node's
# note, its groups, lazily in size order) -> {mask: child's note}, in order.
Reach = Callable[[Graph, object, Iterator[Group]], dict[int, object]]
# The walk's root: the order-0 graph, whose only child is K1, with no note.
ROOT: Node = (Graph(0, ()), [], None)


class EnumerationCapError(ValueError):
    """Requested order exceeds the enumeration cap."""


def _deletion_candidates(adj: tuple[int, ...]) -> list[int]:
    """The last vertex v of ``adj`` (of minimum degree) and the vertices tied
    with it on (degree, sorted neighbor degrees); empty when one beats it."""
    degs = [row.bit_count() for row in adj]
    v = len(adj) - 1
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


def _masks(g: Graph, gens: Gens) -> Iterator[Group]:
    """The neighbor sets, as masks, of the one-vertex extensions of g whose
    new vertex has minimum degree, one per Aut orbit (its minimum): one
    (size, masks) group per size, in size order, each group's masks lazily,
    in lexicographic order.

    A vertex of degree below the size must join the neighbor set, or it
    would end below the new vertex; that happens only at min_degree + 1.
    """
    degs = g.degrees()
    for size in range(min(g.n, min(degs, default=0) + 1) + 1):
        forced = [u for u in range(g.n) if degs[u] < size]
        if len(forced) > size:
            break
        free = [u for u in range(g.n) if degs[u] >= size]
        yield size, _orbit_minima(mask_of(forced), combinations(free, size - len(forced)), gens)


def _orbit_minima(base: int, combos: Iterator[tuple[int, ...]], gens: Gens) -> Iterator[int]:
    """Each mask base | combo that is the minimum of its Aut orbit, lazily."""
    for i, combo in enumerate(combos):
        mask = base | mask_of(combo)
        # The first, on the lowest free vertices, is one: automorphisms keep
        # degrees, so map forced vertices to forced and free ones to free.
        if not i or not gens or all(m2 >= mask for m2 in orbit(mask, gens, permute_mask)):
            yield mask


def _tie_test(g: Graph, candidates: list[int]) -> tuple[bool, Gens | None]:
    """Whether g's new vertex v = g.n - 1 is in the orbit of the deletion
    candidate that the canonical labeling puts first, with Aut(g)'s
    generators when settling that took a labeling (else None)."""
    v = g.n - 1
    adj = g.adj
    # candidates[0] is v. A tied twin u of v is in v's orbit, by (u v);
    # with every tie a twin, the canonical candidate is, so accept.
    if all(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in candidates[1:]):
        return True, None
    perm, gens = canonical_labeling_masks(g.n, adj)
    return min(candidates, key=perm.__getitem__) in orbit(v, gens), gens


def leaf_degree_sums(parent: Graph, masks: Iterable[int]) -> Iterator[list[tuple[int, int]]]:
    """The (degree, neighbor-degree sum) pairs of the vertices with an edge
    in each child of ``parent`` on ``masks`` (the masks of its lazy leaves,
    say), unbuilt, from the parent's degrees d_u and neighbor-degree sums
    S_u, found once for all the masks. For the new
    vertex's neighbor set M, k = |M| and c_u = |N(u) & M|: u in M has
    (d_u + 1, S_u + c_u + k), u outside M with d_u > 0 has (d_u, S_u + c_u),
    and the new vertex, if k > 0, (k, sum of d_u over M = sum of all c_u,
    plus k). These are the built leaf's pairs in another order, exact
    integers, so spectral.degree_vector_bound is the built leaf's bit for
    bit."""
    deg = parent.degrees()
    nbr = [sum(deg[w] for w in iter_bits(row)) for row in parent.adj]
    for mask in masks:
        k = mask.bit_count()
        cs = [(row & mask).bit_count() for row in parent.adj]
        sums = [(d + 1, s + c + k) if mask >> u & 1 else (d, s + c)
                for u, (d, s, c) in enumerate(zip(deg, nbr, cs)) if d or mask >> u & 1]
        yield sums + [(k, sum(cs) + k)] if k else sums


def build(leaf: Leaf) -> tuple[Graph, list[int]] | None:
    """The lazy leaf's graph, made now, with its deletion candidates, or None
    when some vertex beats its new vertex (the walk rejects it unmade).
    Undecided: see ``emits``."""
    parent, _, mask = leaf
    m = parent.n
    adj = tuple(row | (1 << m) if mask >> u & 1 else row for u, row in enumerate(parent.adj)) + (mask,)
    if not (candidates := _deletion_candidates(adj)):
        return None
    return Graph.unchecked(m + 1, adj), candidates  # symmetric and loop-free by construction


def emits(built: tuple[Graph, list[int]], keep: Callable[[Graph], bool]) -> bool:
    """Whether the walk emits a built leaf (its new vertex last): the tie
    test, then ``keep``."""
    g, candidates = built
    return _tie_test(g, candidates)[0] and keep(g)


def kept_node(leaf: Leaf, keep: Callable[[Graph], bool]) -> tuple[Graph, Gens] | None:
    """The graph and generators of its automorphism group that a leaf
    becomes when the walk keeps it, built here, or None when it rejects it."""
    if (built := build(leaf)) is None:
        return None
    g, candidates = built
    canonical, group = _tie_test(g, candidates)
    if not (canonical and keep(g)):
        return None
    if group is None:
        # Every automorphism maps v to v or a tied twin: Aut(parent)'s
        # stabilizer of adj[v], fixing v, and the swaps (u v) generate Aut(g).
        v = g.n - 1
        group = [h + (v,) for h in stabilizer(g.adj[v], leaf[1], permute_mask)]
        for u in candidates[1:]:
            swap = list(range(v + 1))
            swap[u], swap[v] = v, u
            group.append(tuple(swap))
    return g, group


def _keep_all(g: Graph) -> bool:
    return True


def _reach_all(parent: Graph, note: object, groups: Iterator[Group]) -> dict[int, object]:
    return dict.fromkeys(mask for _, masks in groups for mask in masks)


def check_order(n: int) -> None:
    """Refuse an order below 1 or above the enumeration cap."""
    if n < 1:
        raise ValueError("enumeration needs order >= 1")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"order {n} exceeds the enumeration cap {ENUMERATION_CAP}")


def leaves(
    n: int, *, keep: Callable[[Graph], bool] = _keep_all, roots: Iterable[Node] = (ROOT,),
    reach: Reach = _reach_all,
) -> Iterator[tuple[Leaf, object]]:
    """The order-n leaves of the walk, in walk order, undecided and unbuilt:
    one (leaf, note) pair per order-n child that ``reach`` keeps, the lazy
    leaf (parent, generators of Aut(parent), mask) with one neighbor mask per
    Aut(parent) orbit, and the note reach gave it. ``build`` makes the leaf
    and ``emits`` tells whether the walk emits it; ``kept_node`` also gives
    its group.

    ``roots`` are kept nodes below order n, from ``nodes`` with the same
    ``keep`` and ``reach``, below which the walk runs; ROOT by default. A
    root at or above order n raises ValueError before anything is walked
    below it. The roots of one order, in walk order, give all the leaves in
    order. See ``enumerate_graphs`` for ``keep``.

    ``reach(node, note, groups)`` maps, in order, the masks of the children
    of a kept node that the walk goes on with to their notes (``groups``
    gives one (size, masks) pair per size, in size order, each ``masks`` a
    lazy iterator in lexicographic order; masks never read are never made): below
    order n - 1 the walk decides them and descends into the kept ones, each
    carrying its note, and at order n - 1 they are the node's leaves. It is
    asked once per kept node below order n, with that node's note (a root's
    own), before any of that node's children is decided; a caller drops the
    children with no order-n descendant it needs, and a node whose children
    are all dropped yields nothing. The default reaches every child, noting
    None.

    The walk runs depth first on an explicit stack of (node graph, its
    group, its reached children still to go): a recursive walk would pass
    each leaf up through n - 1 generator frames.
    """
    check_order(n)
    for g, gens, note in roots:
        if g.n >= n:
            raise ValueError(f"a root of order {g.n} has no order-{n} leaves below it")
        stack = [(g, gens, iter(reach(g, note, _masks(g, gens)).items()))]
        while stack:
            g, gens, notes = stack[-1]
            for mask, note in notes:
                if g.n + 1 == n:
                    yield (g, gens, mask), note
                elif (child := kept_node((g, gens, mask), keep)) is not None:
                    stack.append((*child, iter(reach(child[0], note, _masks(*child)).items())))
                    break
            else:
                stack.pop()


def nodes(m: int, *, keep: Callable[[Graph], bool], reach: Reach = _reach_all,
          roots: Iterable[Node] = (ROOT,)) -> list[Node]:
    """The kept order-m nodes of the walk below ``roots`` that ``reach``
    lets it decide (see ``leaves``), each with its group and the note reach
    gave it, in walk order: the roots themselves at order 0."""
    if m == 0:
        return list(roots)
    return [(*node, note) for leaf, note in leaves(m, keep=keep, reach=reach, roots=roots)
            if (node := kept_node(leaf, keep)) is not None]


def enumerate_graphs(n: int, *, keep: Callable[[Graph], bool] = _keep_all) -> Iterator[Graph]:
    """One representative per isomorphism class of the order-n graphs that
    ``keep`` accepts: the built leaves that ``emits`` accepts, in walk order.

    ``keep`` must be closed under vertex deletion: it is tested once on every
    node of the augmentation tree (whose last vertex has minimum degree), and
    a rejected node's subtree is never generated, so a kept graph below a
    rejected ancestor would be lost. It is called only on children of kept
    nodes, so it may assume that its graph minus the last vertex is kept.
    The default keeps every graph.
    """
    for leaf, _ in leaves(n, keep=keep):
        if (built := build(leaf)) is not None and emits(built, keep):
            yield built[0]
