"""Canonical labeling, automorphism generators, and orbits.

Equitable partition refinement (iterated neighbor-count splitting) plus
individualization backtracking, the classical scheme for exact graph
canonization. Leaves of the search tree are complete labelings; the
canonical one minimizes the packed upper-triangle adjacency bit string in
graph6 bit order, so canonical graph6 strings compare lexicographically.
Every pair of leaves with equal codes certifies an automorphism. Known
automorphisms prune the search three ways (McKay 1981, *Practical graph
isomorphism*; McKay & Piperno 2014):

- twins (equal open or equal closed neighborhoods) are swapped by a
  transposition, so those of consecutive twins seed the generators before
  the search starts;
- a candidate branch vertex is skipped when an automorphism fixing the
  current individualization prefix maps it into an already-explored sibling;
- a leaf whose code equals the first leaf's or the best leaf's gives an
  automorphism that fixes the prefix the two paths share and maps the
  earlier path's next vertex to the current one. The search then jumps back
  to where the paths part, since what is left below is the image of a
  sibling subtree already explored.

Each pruned subtree is the image, under an automorphism fixing its prefix,
of an earlier sibling subtree, which holds a leaf of the same code earlier
in depth-first order. The canonical leaf, the first of minimal code, is
therefore never pruned, and the labels are those of the unpruned search.
The automorphisms found still generate the whole group, as in nauty.

``orbit`` is the one orbit walk: of vertices for that pruning and the
enumeration's tie test, of vertex masks for its neighbor-set orbit test.
``stabilizer`` is the only other orbit loop: it walks an orbit the same
way, keeping a transversal, and its Schreier generators generate the
stabilizer of a point. The enumeration
gets a child's group that way, as the stabilizer of the new vertex's
neighbor set in its parent's group, instead of labeling the child.

Exact at any order, but cost grows with symmetry; the rest of the package
uses it at order <= 10 where it is fast.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterator

from .graphs import Graph, mask_of


def orbit(point: Hashable, gens: list[tuple[int, ...]], image: Callable = lambda v, g: g[v]) -> Iterator:
    """Each point of ``point``'s orbit under the group ``gens`` generate, once, ``point``
    first; ``image(p, g)`` is p's image under g (default: a vertex). The group is
    finite, so closing under forward images gives the whole orbit."""
    seen = {point}
    frontier = [point]
    yield point
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = image(p, g)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
                yield q


def stabilizer(point: Hashable, gens: list[tuple[int, ...]], image: Callable = lambda v, g: g[v]) -> list[tuple[int, ...]]:
    """Generators of the stabilizer of ``point`` in the group ``gens`` generate,
    ``image`` as for ``orbit``, without the identity or repeats. Schreier's lemma
    (Seress 2003, §4.1): walking ``point``'s orbit with a transversal t_p that
    maps ``point`` to p, each step p -> q = image(p, s) off the walk's tree
    gives the generator t_q⁻¹·s·t_p."""
    if not gens:
        return []
    identity = tuple(range(len(gens[0])))
    transversal = {point: (identity, identity)}  # p: (t_p, t_p⁻¹)
    frontier = [point]
    found: dict[tuple[int, ...], None] = {}
    while frontier:
        p = frontier.pop()
        tp = transversal[p][0]
        for s in gens:
            q = image(p, s)
            st = tuple(map(s.__getitem__, tp))  # s·t_p, which maps point to q
            if q in transversal:
                h = tuple(map(transversal[q][1].__getitem__, st))
                if h != identity:
                    found[h] = None
            else:
                inverse = [0] * len(st)
                for x, y in enumerate(st):
                    inverse[y] = x
                transversal[q] = (st, inverse)
                frontier.append(q)
    return list(found)


def refine_partition(
    adj: tuple[int, ...],
    cells: list[list[int]],
    splitters: list[int] | None = None,
) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition.

    Cells are repeatedly split by neighbor counts into the pending splitter
    sets; new sub-cells are ordered by ascending count, which keeps the cell
    order isomorphism-invariant. ``splitters`` defaults to all cells. A
    discrete partition is returned as soon as it is reached, since no
    splitter can change it.
    """
    n = len(adj)
    queue: deque[int] = deque(
        splitters if splitters is not None else [mask_of(c) for c in cells]
    )
    while queue and len(cells) < n:
        w = queue.popleft()
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            counts = [(adj[v] & w).bit_count() for v in cell]
            if counts.count(counts[0]) == len(counts):
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v, cnt in zip(cell, counts):
                buckets.setdefault(cnt, []).append(v)
            for cnt in sorted(buckets):
                sub = buckets[cnt]
                new_cells.append(sub)
                queue.append(mask_of(sub))
        cells = new_cells
    return cells


def _code_of(n: int, adj: tuple[int, ...], order: list[int]) -> int:
    """Pack the relabeled upper triangle (graph6 bit order) into one int."""
    code = 0
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            code = code << 1 | (row >> order[i] & 1)
    return code


def _twin_transpositions(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """(v0 v1), (v1 v2), ... along each class of twins: vertices with equal
    open neighborhoods, or equal closed ones. Consecutive transpositions,
    unlike (v0 vi), go on fixing the prefix as the class is individualized."""
    gens = []
    for rows in (adj, [row | 1 << v for v, row in enumerate(adj)]):
        classes: dict[int, list[int]] = {}
        for v, row in enumerate(rows):
            classes.setdefault(row, []).append(v)
        for twins in classes.values():
            for u, v in zip(twins, twins[1:]):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                gens.append(tuple(swap))
    return gens


def canonical_labeling_masks(
    n: int, adj: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of a bitmask adjacency table.

    Returns (perm, generators): ``perm[v]`` is the canonical position of
    vertex v, and ``generators`` generate the automorphism group.
    """
    if n == 0:
        return (), []
    gens = _twin_transpositions(n, adj)
    path: list[int] = []
    first: tuple[int, list[int], list[int]] | None = None  # (code, order, path) of a leaf
    best: tuple[int, list[int], list[int]] | None = None
    done = n  # what a search that ran to its end returns: deeper than any node

    def visit_leaf(order: list[int]) -> int:
        """Note the leaf; after an automorphism, return the depth to resume at."""
        nonlocal first, best
        code = _code_of(n, adj, order)
        if first is None:
            first = best = (code, order, path[:])
            return done
        for ref_code, ref_order, ref_path in (first, best):
            if code == ref_code:
                sigma = [0] * n
                for ref_v, v in zip(ref_order, order):
                    sigma[ref_v] = v
                gens.append(tuple(sigma))
                # Resume where the two paths part: below that node, the rest of
                # this path's subtree is the image of one already explored.
                return next(d for d, (u, v) in enumerate(zip(path, ref_path)) if u != v)
        if code < best[0]:
            best = (code, order, path[:])
        return done

    def search(cells: list[list[int]]) -> int:
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            return visit_leaf([c[0] for c in cells])
        depth = len(path)
        cell = cells[target]
        tried: set[int] = set()
        fixers: list[tuple[int, ...]] = []  # the generators gens[:seen] that fix path
        seen = 0
        for u in cell:
            if tried:
                fixers += [g for g in gens[seen:] if all(g[x] == x for x in path)]
                seen = len(gens)
                if fixers and not tried.isdisjoint(orbit(u, fixers)):
                    continue
            rest = [x for x in cell if x != u]
            child = cells[:target] + [[u], rest] + cells[target + 1 :]
            path.append(u)
            resume = search(refine_partition(adj, child, [1 << u, mask_of(rest)]))
            path.pop()
            if resume < depth:
                return resume
            tried.add(u)
        return done

    search(refine_partition(adj, [list(range(n))]))
    perm = [0] * n
    for pos, v in enumerate(best[1]):
        perm[v] = pos
    return tuple(perm), gens


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return g.relabel(canonical_labeling_masks(g.n, g.adj)[0])
