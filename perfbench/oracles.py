"""Independent oracles for the benchmark's output checks.

Nothing here imports the program: graphs are networkx graphs built from the
benchmark's own edge lists or decoded from graph6 by networkx, spectra come
from numpy.linalg.eigvalsh, and each forbidden structure is decided by a
method unrelated to the program's branch-set and backtracking searches.
selfcheck.py tests every decider here against the program's on every graph
of order <= 7.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def graph_from_edges(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def alpha_matrix(g: nx.Graph, alpha: float) -> np.ndarray:
    """a*D + (1-a)*A, rows in node order 0..n-1."""
    adj = nx.to_numpy_array(g, nodelist=sorted(g.nodes()), dtype=float)
    return alpha * np.diag(adj.sum(axis=1)) + (1.0 - alpha) * adj


def alpha_index(g: nx.Graph, alpha: float) -> float:
    return float(np.linalg.eigvalsh(alpha_matrix(g, alpha))[-1])


# -- forbidden-structure deciders ----------------------------------------


def k4_minor_free(g: nx.Graph) -> bool:
    """Series-parallel reduction (Duffin 1965): delete vertices of degree <= 1,
    suppress vertices of degree 2; K4-minor-free exactly when nothing is left."""
    h = nx.Graph(g)
    stack = list(h.nodes())
    while stack:
        v = stack.pop()
        if v not in h or h.degree(v) > 2:
            continue
        nbrs = list(h.neighbors(v))
        h.remove_node(v)
        if len(nbrs) == 2:
            h.add_edge(*nbrs)
        stack.extend(nbrs)
    return h.number_of_nodes() == 0


def outerplanar(g: nx.Graph) -> bool:
    """Outerplanar exactly when adding a vertex adjacent to all keeps it planar."""
    h = nx.Graph(g)
    apex = ("apex",)
    h.add_edges_from((apex, v) for v in g.nodes())
    return nx.check_planarity(h)[0]


def k23_minor_free(g: nx.Graph) -> bool:
    """K_{2,3} is 2-connected, so it is a minor of g exactly when it is a
    minor of a block; a 2-connected graph has no K_{2,3} minor exactly when
    it is outerplanar or K4."""
    for block in nx.biconnected_components(g):
        h = g.subgraph(block)
        is_k4 = h.number_of_nodes() == 4 and h.number_of_edges() == 6
        if not is_k4 and not outerplanar(h):
            return False
    return True


def star_forest_free(g: nx.Graph, degrees) -> bool:
    """Brute force: no choice of vertex-disjoint stars with these degrees."""
    stars = {
        d: [
            frozenset((c, *leaves))
            for c in g.nodes()
            for leaves in combinations(sorted(g.neighbors(c)), d)
        ]
        for d in set(degrees)
    }

    def place(i: int, used: frozenset) -> bool:
        if i == len(degrees):
            return True
        return any(not block & used and place(i + 1, used | block) for block in stars[degrees[i]])

    return not place(0, frozenset())
