"""Star forest containment: does a host contain k vertex-disjoint stars?

A star forest with degrees d_1 >= ... >= d_k embeds in G when there are k
distinct centers c_1..c_k and pairwise-disjoint leaf sets L_i inside N(c_i)
with |L_i| = d_i, all centers and leaves distinct. Adjacency between the
embedded stars is irrelevant (subgraph containment, not induced). The search
is exact backtracking: stars in decreasing-degree order, candidate centers
in decreasing residual degree (ties by index), leaf sets by lexicographic
combinations. Found embeddings are re-validated before being returned.

An anchored search looks only for embeddings that use one vertex v, which
decides containment when g - v is known to be free. Equal-degree stars are
interchangeable, so it is enough to put v in the first star of each
distinct degree: that star is placed first, centred at v or with v as a
leaf of a neighbour, and the rest follow as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bounds import StarForestSpec
from .graphs import Graph, iter_bits


@dataclass(frozen=True)
class StarForestEmbedding:
    """Certificate: one center and one leaf tuple per star, in spec order."""

    centers: tuple[int, ...]
    leaves: tuple[tuple[int, ...], ...]


def verify_star_forest_embedding(
    g: Graph, spec: StarForestSpec, emb: StarForestEmbedding
) -> bool:
    """Independent inspection of a claimed embedding."""
    if len(emb.centers) != spec.k or len(emb.leaves) != spec.k:
        return False
    used: set[int] = set()
    for center, leaf_set, want in zip(emb.centers, emb.leaves, spec.degrees):
        if len(leaf_set) != want:
            return False
        block = {center, *leaf_set}
        if len(block) != want + 1 or block & used:
            return False
        if any(not 0 <= v < g.n for v in block):
            return False
        if any(not g.has_edge(center, leaf) for leaf in leaf_set):
            return False
        used |= block
    return True


def contains_star_forest(
    g: Graph, spec: StarForestSpec, anchor: int | None = None
) -> StarForestEmbedding | None:
    """Exact search for the star forest inside g; None when absent. With an
    ``anchor``, only embeddings that use it are searched."""
    k = spec.k
    need = spec.degree_sum + k
    if need > g.n:
        return None
    adj = g.adj
    full = (1 << g.n) - 1
    must = 0 if anchor is None else 1 << anchor  # the first star's block holds it
    centers: list[int] = []
    leaf_sets: list[tuple[int, ...]] = []

    def place(i: int, avail: int) -> bool:
        if i == k:
            return True
        remaining_need = sum(degrees[j] + 1 for j in range(i, k))
        if avail.bit_count() < remaining_need:
            return False
        want = degrees[i]
        held = must if i == 0 else 0
        scope = avail & (adj[anchor] | held) if held else avail
        candidates = [
            (-((adj[c] & avail).bit_count()), c)
            for c in iter_bits(scope)
            if (adj[c] & avail).bit_count() >= want
        ]
        candidates.sort()
        for _, c in candidates:
            # Equal-degree stars are interchangeable (an anchored one is
            # not): force ascending centers.
            if i > bool(must) and degrees[i] == degrees[i - 1] and c < centers[-1]:
                continue
            pool = adj[c] & avail & ~(1 << c)
            forced = pool & held  # the anchor as a leaf of c
            centers.append(c)
            for leaf_combo in combinations(iter_bits(pool & ~forced), want - forced.bit_count()):
                leaf_combo = (*iter_bits(forced), *leaf_combo)
                block = 1 << c
                for leaf in leaf_combo:
                    block |= 1 << leaf
                leaf_sets.append(leaf_combo)
                if place(i + 1, avail & ~block):
                    return True
                leaf_sets.pop()
            centers.pop()
        return False

    firsts = [0] if anchor is None else sorted({spec.degrees.index(d) for d in spec.degrees})
    for first in firsts:
        # The star placed first (the anchored one) is that degree's first.
        degrees = (spec.degrees[first],) + spec.degrees[:first] + spec.degrees[first + 1:]
        if place(0, full):
            centers.insert(first, centers.pop(0))
            leaf_sets.insert(first, leaf_sets.pop(0))
            break
    else:
        return None
    emb = StarForestEmbedding(tuple(centers), tuple(leaf_sets))
    if not verify_star_forest_embedding(g, spec, emb):
        raise RuntimeError(f"star forest search produced an invalid certificate: {emb}")
    return emb


def is_star_forest_free(g: Graph, spec: StarForestSpec, anchor: int | None = None) -> bool:
    return contains_star_forest(g, spec, anchor) is None
