import itertools
import multiprocessing
import pickle
from collections import deque

import numpy as np
import pytest

from alpha_extremal.canon import orbit
from alpha_extremal.enumeration import enumerate_graphs
from alpha_extremal.graphs import Graph, iter_bits, mask_of
from alpha_extremal.spectral import require_weight

# Published census of simple graphs on 1..9 unlabeled vertices.
GRAPH_CENSUS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668}


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense symmetric matrix a*D + (1-a)*A: the oracle that
    ``spectral.alpha_index`` solves without building."""
    a = require_weight(alpha)
    n = g.n
    mat = np.zeros((n, n))
    off = 1.0 - a
    for u, v in g.edges():
        mat[u, v] = off
        mat[v, u] = off
    for v in range(n):
        mat[v, v] = a * g.degree(v)
    return mat


def degree_sums(g: Graph) -> list[tuple[int, int]]:
    """(d(v), sum of the degrees of v's neighbours) for each vertex v with an
    edge, from the built graph: the reference for the pairs that
    ``enumeration.leaf_degree_sums`` derives from a leaf's parent."""
    deg = g.degrees()
    return [(d, sum(deg[u] for u in iter_bits(row))) for d, row in zip(deg, g.adj) if d]


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """g without the edge uv."""
    if not g.has_edge(u, v):
        raise ValueError(f"no edge ({u},{v}) to delete")
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    """g without vertex v; the vertices above v move down by one."""
    keep = [u for u in range(g.n) if u != v]
    return Graph.from_edges(g.n - 1, [(keep.index(a), keep.index(b))
                                      for a, b in g.edges() if v not in (a, b)])


def brute_force_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation that fixes g, by trying all of them."""
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if g.relabel(perm) == g
    ]


def generated_group(n, gens):
    """Every element of the permutation group ``gens`` generate."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        sigma = frontier.pop()
        for gen in gens:
            composed = tuple(gen[sigma[v]] for v in range(n))
            if composed not in seen:
                seen.add(composed)
                frontier.append(composed)
    return seen


def plain_refine(adj, cells, splitters=None):
    """Equitable refinement with a bucket pass over every cell and splitter,
    as ``canon.refine_partition`` computes it without its shortcuts."""
    queue = deque(splitters if splitters is not None else [mask_of(c) for c in cells])
    while queue:
        w = queue.popleft()
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & w).bit_count(), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                for cnt in sorted(buckets):
                    new_cells.append(buckets[cnt])
                    queue.append(mask_of(buckets[cnt]))
        cells = new_cells
    return cells


def unpruned_labeling(n, adj):
    """Oracle for ``canon.canonical_labeling_masks``: the same search tree and
    leaf order, pruned only where an automorphism found so far that fixes the
    prefix maps a sibling onto a tried one. With no twin seeding and no jump
    back after an automorphism, it also visits the nodes those two prune."""
    if n == 0:
        return (), []
    best_code = best_order = first_code = first_order = None
    gens = []
    path = []

    def record_automorphism(ref_order, order):
        sigma = [0] * n
        for pos in range(n):
            sigma[ref_order[pos]] = order[pos]
        tup = tuple(sigma)
        if any(s != v for v, s in enumerate(tup)) and tup not in gens:
            gens.append(tup)

    def visit_leaf(order):
        nonlocal best_code, best_order, first_code, first_order
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = code << 1 | (adj[order[j]] >> order[i] & 1)
        if first_code is None:
            first_code, first_order = code, order[:]
        elif code == first_code:
            record_automorphism(first_order, order)
        if best_code is None or code < best_code:
            best_code, best_order = code, order[:]
        elif code == best_code and order != best_order:
            record_automorphism(best_order, order)

    def search(cells):
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            visit_leaf([c[0] for c in cells])
            return
        cell = cells[target]
        tried = set()
        for u in cell:
            fixers = [g for g in gens if all(g[x] == x for x in path)]
            if fixers and not tried.isdisjoint(orbit(u, fixers)):
                continue
            rest = [x for x in cell if x != u]
            child = cells[:target] + [[u], rest] + cells[target + 1:]
            path.append(u)
            search(plain_refine(adj, child, [1 << u, mask_of(rest)]))
            path.pop()
            tried.add(u)

    search(plain_refine(adj, [list(range(n))]))
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return tuple(perm), gens


@pytest.fixture(scope="session")
def graphs_by_order():
    """All graphs of order 1..7, enumerated once per session."""
    return {n: list(enumerate_graphs(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def graphs_order_8():
    return list(enumerate_graphs(8))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace multiprocessing.Pool with a serial in-process map that, as a
    real pool does, hands each job and each result over through pickle, so
    that no shard shares an object with the caller or with another shard;
    the returned list records the size of every pool opened."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [pickle.loads(pickle.dumps(fn(pickle.loads(pickle.dumps(job)))))
                    for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return sizes
