"""Merged degree/adjacency matrices and their largest eigenvalue.

For a graph G and weight a in [0,1] the matrix is a*D(G) + (1-a)*A(G); its
largest eigenvalue interpolates the adjacency spectral radius (a=0) and half
the signless Laplacian spectral radius (a=1/2). The eigensolver is an
in-repo cyclic Jacobi iteration with a deterministic sweep order and one row
rotation per step, its columns copied from the rows so the iterate stays
exactly symmetric; repeated runs are bitwise reproducible, and library
eigensolvers are used only as independent oracles in the test suite.

alpha_index solves on the graph's coarsest equitable partition. For an
equitable partition of a nonnegative symmetric matrix the quotient has the
same largest eigenvalue, and its eigenvector lifts to one of the full matrix
that is constant on each cell (Godsil and Royle, *Algebraic Graph Theory*
9.3; Brouwer and Haemers, *Spectra of Graphs* 2.3). The paper's joins are
2- or 3-class solves; a graph whose partition is discrete is solved on
the dense matrix itself, so its result is the dense solve's, bit for bit.
The residual is measured with one product M x over the adjacency masks, so
no n x n matrix is built for a graph with a small quotient.

degree_vector_bound and collatz_wielandt_bound are cheap upper bounds on that
eigenvalue, from the degree vector and from a few power iterates of it, which
let a census order its members and skip those that cannot reach its maximum.
degree_vector_bound reads (degree, neighbour-degree sum) pairs, which do not
depend on the weight; the census derives them for each unbuilt child
(enumeration.leaf_degree_sums). bordered_bound needs no graph at all: it
bounds a graph with one vertex added on k neighbours from any upper bound
on the graph's own index, so a census can carry a bound from each node down
to its children, and on to their descendants, and drop a whole size class
of them at once.

Every join construction has a tiny equitable quotient (one class per
regular block). quotient_alpha_index builds its symmetrized form in closed
form from the construction's parameters, exactly symmetric, and is how the
harness predicts each claim's extremal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canon import refine_partition
from .graphs import ConstructionSpec, Graph, iter_bits, mask_of, quotient_classes

JACOBI_TOL = 1e-12
# Graphs with high-multiplicity spectra (joins of many equal blocks) drain
# their off-diagonal mass slowly once the simple eigenvalues have converged,
# about 2% per sweep late on: slow convergence, not a roundoff floor. On the
# full matrix at weight 1/2 the paper's order-100 joins need
# CliqueJoinMatching(100,3) 310 sweeps and CliqueJoinCliques(100,2,3,33) 410;
# the budget covers both. alpha_index solves their quotients in one sweep.
MAX_SWEEPS = 500


class ConvergenceError(RuntimeError):
    """The Jacobi iteration did not reach its tolerance within the sweep budget."""


def require_weight(alpha: float) -> float:
    """Validate a closed-interval spectral weight."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {alpha}")
    return a


def require_open_weight(alpha: float) -> float:
    """Validate an open-interval weight (what the extremal statements need)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError(f"weight must lie in the open interval (0, 1), got {alpha}")
    return a


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with unit eigenvector, residual, and sweep count."""

    alpha_index: float
    vector: tuple[float, ...]
    residual: float
    sweeps: int

    def to_json_dict(self) -> dict:
        return {
            "rho": self.alpha_index,
            "residual": self.residual,
            "vector": list(self.vector),
        }


def _times_m(g: Graph, a: float, x) -> list[float]:
    """M x for M = a*D + (1-a)*A, over the adjacency masks: no n x n matrix
    is built."""
    return [a * row.bit_count() * xv + (1.0 - a) * sum(x[u] for u in iter_bits(row))
            for row, xv in zip(g.adj, x)]


def degree_vector_bound(sums: list[tuple[int, int]], a: float) -> float:
    """max over v of (M d)_v / d(v) = (a*d*d + (1-a)*S)/d from the pairs
    (d(v), S = sum of the degrees of v's neighbours) of the vertices v with
    an edge, with M = a*D + (1-a)*A: collatz_wielandt_bound at steps = 0, bit
    for bit (0 when g has no edge). The weight is not validated."""
    return max([(a * d * d + (1.0 - a) * s) / d for d, s in sums], default=0.0)


def bordered_bound(rho: float, a: float, k: int) -> float:
    """Upper bound on the alpha index of a graph P plus one vertex on k
    neighbours, from an upper bound ``rho`` on P's alpha index: rho itself at
    k = 0 (an isolated vertex adds the eigenvalue 0), else the larger
    eigenvalue of [[rho + a, (1-a)*sqrt(k)], [(1-a)*sqrt(k), a*k]]
    (the classical 2 x 2 bordered-matrix estimate; Horn and Johnson, *Matrix
    Analysis*, 4.3). Increasing in rho and in k. The weight is not validated.

    The new matrix is [[M + a*D_N, (1-a)*1_N], [(1-a)*1_N^T, a*k]], with M
    P's matrix and D_N the 0/1 diagonal of the neighbour set N. For a unit
    vector (x, y) its quadratic form is at most (rho + a)|x|^2 +
    2(1-a)sqrt(k)|x||y| + a*k*y^2, since x^T M x <= rho|x|^2, x^T D_N x <=
    |x|^2 and 1_N^T x <= sqrt(k)|x| (Cauchy-Schwarz); that is the 2 x 2
    form above at (|x|, |y|)."""
    if not k:
        return rho
    p, q = rho + a, a * k
    return (p + q) / 2 + math.sqrt(((p - q) / 2) ** 2 + (1.0 - a) ** 2 * k)


def collatz_wielandt_bound(g: Graph, alpha: float, steps: int) -> float:
    """Upper bound on the alpha index from the degree vector and ``steps``
    power iterates of it: the minimum over x = d, M d, ..., M^steps d of
    max over v of (M x)_v / x_v, with M = a*D + (1-a)*A and isolated
    vertices skipped (0 when every vertex is isolated).

    Each pass computes y = M x once, for its term and for the next iterate,
    y rescaled by its maximum. Every iterate is positive on the vertices
    with an edge, so each maximum bounds rho(M) from above (Collatz-Wielandt
    for nonnegative M and positive x; an isolated vertex is a component with
    eigenvalue 0), and further steps only tighten it.
    """
    a = require_weight(alpha)
    x, bound = g.degrees(), math.inf
    for step in range(steps + 1):
        y = _times_m(g, a, x)
        bound = min(bound, max([yv / xv for yv, xv in zip(y, x) if xv], default=0.0))
        top = max(y, default=0.0)
        if step == steps or not top:  # no edges: every later iterate is 0 too
            break
        x = [yv / top for yv in y]
    return bound


def jacobi_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Full eigensystem of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row pairs in a fixed lexicographic order until the off-diagonal
    Frobenius norm drops below JACOBI_TOL, within MAX_SWEEPS sweeps (both read
    at call time). Returns (eigenvalues, eigenvector columns, sweeps used).
    Deterministic for a fixed input.

    Row r of w = [A | V^T] holds row r of the iterate next to eigenvector r,
    so a step rotates rows p and q of w once and copies the two rotated rows
    of A into its columns p and q. For an exactly symmetric input the iterate
    stays exactly symmetric, and the copy is bit for bit the column rotation.
    (One symmetric only up to rounding may differ from it in the last bits.)
    A step's scalars are Python floats and its row products go through two
    preallocated buffers, with no temporary arrays: each entry of the new
    rows gets the IEEE operations of c*w[p] - s*w[q] and s*w[p] + c*w[q].
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n <= 1:
        return np.diagonal(a).copy(), np.eye(n), 0
    w = np.hstack([a, np.eye(n)])
    a = w[:, :n]
    rows = list(w)
    heads = [row[:n] for row in rows]  # the rows of the iterate
    cols = list(a.T)
    sp, sq = np.empty(2 * n), np.empty(2 * n)
    for sweep in range(MAX_SWEEPS + 1):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off2 = float(np.sum(off * off))
        if off2 <= JACOBI_TOL * JACOBI_TOL:
            return np.diagonal(a).copy(), w[:, n:].T.copy(), sweep
        if sweep == MAX_SWEEPS:
            break
        for p in range(n - 1):
            wp, ap = rows[p], heads[p]
            for q in range(p + 1, n):
                apq = ap.item(q)
                if abs(apq) < 1e-280:
                    ap[q] = 0.0
                    heads[q][p] = 0.0
                    continue
                aq = heads[q]
                app = ap.item(p)
                aqq = aq.item(q)
                tau = (aqq - app) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    sign = 1.0 if tau >= 0.0 else -1.0
                    t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                wq = rows[q]
                np.multiply(wp, s, out=sp)
                np.multiply(wq, s, out=sq)
                np.multiply(wp, c, out=wp)
                np.subtract(wp, sq, out=wp)
                np.multiply(wq, c, out=wq)
                np.add(sp, wq, out=wq)
                np.copyto(cols[p], ap)
                np.copyto(cols[q], aq)
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
    raise ConvergenceError(f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps")


def equitable_quotient(g: Graph, alpha: float) -> tuple[list[list[int]], np.ndarray]:
    """The coarsest equitable partition of g, cells ordered by their smallest
    vertex, and the symmetrized quotient of a*D + (1-a)*A on it.

    Cell i's diagonal entry is a*deg + (1-a)*inner, with deg and inner the
    degree and within-cell degree its vertices share; entry (i, j) is
    (1-a)*cnt*sqrt(|i|/|j|), with cnt the neighbors a vertex of cell i has
    in cell j, written once into both triangles, so the quotient is exactly
    symmetric. On a discrete partition it is the dense a*D + (1-a)*A itself.
    """
    a = require_weight(alpha)
    off = 1.0 - a
    cells = sorted(refine_partition(g.adj, [list(range(g.n))]), key=min)
    masks = [mask_of(cell) for cell in cells]
    k = len(cells)
    rows = [[0.0] * k for _ in range(k)]
    for i, cell in enumerate(cells):
        nbrs = g.adj[cell[0]]
        rows[i][i] = a * nbrs.bit_count() + off * (nbrs & masks[i]).bit_count()
        for j in range(i + 1, k):
            cnt = (nbrs & masks[j]).bit_count()
            if cnt:
                rows[i][j] = rows[j][i] = off * cnt * math.sqrt(len(cell) / len(cells[j]))
    return cells, np.array(rows)


def alpha_index(g: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of a*D + (1-a)*A with its unit eigenvector.

    Solved on the equitable quotient, whose largest eigenvalue is the full
    matrix's; the quotient eigenvector y lifts to x_v = y_i / sqrt(|i|) on
    each cell i. The sweep count is the quotient's, and the residual is
    measured on the full matrix M, as M x over the adjacency masks. The
    eigenvector sign is fixed by making the largest-magnitude entry
    positive; for connected graphs it is the positive Perron vector.
    """
    if g.n < 1:
        raise ValueError("alpha_index needs a graph of order >= 1")
    a = require_weight(alpha)
    cells, quotient = equitable_quotient(g, a)
    values, vectors, sweeps = jacobi_eigensystem(quotient)
    k = int(np.argmax(values))
    rho = float(values[k])
    x = np.empty(g.n)
    for cell, y in zip(cells, vectors[:, k].tolist()):
        x[cell] = y / math.sqrt(len(cell))
    top = int(np.argmax(np.abs(x)))
    if x[top] < 0.0:
        x = -x
    x = (x / np.sqrt(np.sum(x * x))).tolist()
    y = _times_m(g, a, x)
    residual = math.sqrt(sum((yv - rho * xv) ** 2 for yv, xv in zip(y, x)))
    return SpectralResult(rho, tuple(x), residual, sweeps)


def quotient_alpha_index(spec: ConstructionSpec, alpha: float) -> float:
    """Largest eigenvalue of the equitable quotient; equals the full graph's.

    One class per regular block, the clique class (size c, when c > 0)
    first. The quotient is built symmetric, as its similarity transform by
    diag(sqrt(class sizes)): the clique class's diagonal is a(n-1) +
    (1-a)(c-1), a part's is a(c+reg) + (1-a)reg for its within-class
    regularity reg, each clique-part entry is (1-a)sqrt(c*size) and parts
    are mutually non-adjacent. Each entry is one float written into both
    triangles, so the matrix of size <= 3 is exactly symmetric and solved by
    the same Jacobi routine.
    """
    a = require_weight(alpha)
    c, parts = quotient_classes(spec)
    n = c + sum(size for size, _ in parts)
    if not n:
        raise ValueError("empty construction has no spectrum")
    diagonal = [a * (n - 1) + (1.0 - a) * (c - 1)] if c else []
    diagonal.extend(a * (c + reg) + (1.0 - a) * reg for _, reg in parts)
    mat = np.diag(diagonal)
    if c:
        for j, (size, _) in enumerate(parts, start=1):
            mat[0, j] = mat[j, 0] = (1.0 - a) * math.sqrt(c * size)
    values, _, _ = jacobi_eigensystem(mat)
    return float(np.max(values))
