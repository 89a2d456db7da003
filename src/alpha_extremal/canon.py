"""Canonical labeling, automorphism generators, and vertex orbits.

Equitable partition refinement (iterated neighbor-count splitting) plus
individualization backtracking, the classical scheme for exact graph
canonization. Leaves of the search tree are complete labelings; the
canonical one minimizes the packed upper-triangle adjacency bit string in
graph6 bit order, so canonical graph6 strings compare lexicographically.
Every pair of leaves with equal codes certifies an automorphism; discovered
automorphisms prune the search (a candidate branch vertex is skipped when an
automorphism fixing the current individualization prefix maps it into an
already-explored sibling).

Exact at any order, but cost grows with symmetry; the rest of the package
uses it at order <= 10 where it is fast.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


def _mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def refine_partition(
    adj: tuple[int, ...],
    cells: list[list[int]],
    splitters: list[int] | None = None,
) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition.

    Cells are repeatedly split by neighbor counts into the pending splitter
    sets; new sub-cells are ordered by ascending count, which keeps the cell
    order isomorphism-invariant. ``splitters`` defaults to all cells.
    """
    queue: deque[int] = deque(
        splitters if splitters is not None else [_mask_of(c) for c in cells]
    )
    while queue:
        w = queue.popleft()
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((adj[v] & w).bit_count(), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                for cnt in sorted(buckets):
                    sub = buckets[cnt]
                    new_cells.append(sub)
                    queue.append(_mask_of(sub))
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


def canonical_labeling_masks(
    n: int, adj: tuple[int, ...]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical labeling of a bitmask adjacency table.

    Returns (perm, generators): ``perm[v]`` is the canonical position of
    vertex v, and ``generators`` generate the automorphism group.
    """
    if n == 0:
        return (), []
    best_code: int | None = None
    best_order: list[int] = []
    first_code: int | None = None
    first_order: list[int] = []
    gens: list[tuple[int, ...]] = []
    path: list[int] = []

    def record_automorphism(ref_order: list[int], order: list[int]) -> None:
        sigma = [0] * n
        for pos in range(n):
            sigma[ref_order[pos]] = order[pos]
        tup = tuple(sigma)
        if any(s != v for v, s in enumerate(tup)) and tup not in gens:
            gens.append(tup)

    def visit_leaf(order: list[int]) -> None:
        nonlocal best_code, best_order, first_code, first_order
        code = _code_of(n, adj, order)
        if first_code is None:
            first_code, first_order = code, order[:]
        elif code == first_code:
            record_automorphism(first_order, order)
        if best_code is None or code < best_code:
            best_code, best_order = code, order[:]
        elif code == best_code and order != best_order:
            record_automorphism(best_order, order)

    def search(cells: list[list[int]]) -> None:
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            visit_leaf([c[0] for c in cells])
            return
        cell = cells[target]
        tried: set[int] = set()
        fixers: list[tuple[int, ...]] = []  # the generators gens[:seen] that fix path
        seen = 0
        for u in cell:
            if tried:
                # Skip u when some automorphism fixing the current prefix
                # maps it into an already-explored sibling.
                fixers += [g for g in gens[seen:] if all(g[x] == x for x in path)]
                seen = len(gens)
                if fixers:
                    orbit = {u}
                    frontier = [u]
                    while frontier:
                        v = frontier.pop()
                        for g in fixers:
                            w = g[v]
                            if w not in orbit:
                                orbit.add(w)
                                frontier.append(w)
                    if orbit & tried:
                        continue
            rest = [x for x in cell if x != u]
            child = cells[:target] + [[u], rest] + cells[target + 1 :]
            path.append(u)
            search(refine_partition(adj, child, [1 << u, _mask_of(rest)]))
            path.pop()
            tried.add(u)

    search(refine_partition(adj, [list(range(n))]))
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return tuple(perm), gens


def canonical_perm(g: Graph) -> tuple[int, ...]:
    return canonical_labeling_masks(g.n, g.adj)[0]


def canonical_form(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return g.relabel(canonical_perm(g))


def orbits_from_generators(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """Vertex orbit labels under the generated group; each label is the orbit minimum."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
    return [find(v) for v in range(n)]
