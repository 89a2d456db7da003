"""Merged degree/adjacency matrices and their largest eigenvalue.

For a graph G and weight a in [0,1] the matrix is a*D(G) + (1-a)*A(G); its
largest eigenvalue interpolates the adjacency spectral radius (a=0) and half
the signless Laplacian spectral radius (a=1/2). The eigensolver is an
in-repo cyclic Jacobi iteration with a deterministic sweep order, so repeated
runs are bitwise reproducible; library eigensolvers are used only as
independent oracles in the test suite.

collatz_wielandt_bound is a cheap upper bound on that eigenvalue, from the
degree vector and optionally a few power iterates of it, which lets a census
order its members and skip those that cannot reach its maximum.

Join constructions with a regular non-clique part admit a tiny equitable
quotient whose largest eigenvalue equals the full graph's exactly; that
cross-check route is exposed as quotient_alpha_index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ConstructionSpec, Graph, iter_bits, quotient_classes

JACOBI_TOL = 1e-12
# Graphs with high-multiplicity spectra (joins of many equal blocks) drain
# their off-diagonal mass slowly once the simple eigenvalues have converged.
# The budget does not cover all of them: K_2 joined to a perfect matching on
# 98 vertices at weight 1/2 has off-diagonal norm 1.1e-9 after 30 sweeps and
# 3.8e-12 after 250, shrinking about 2% per sweep. That is slow convergence,
# not a roundoff floor (eps * ||A||_F is 1.6e-14); it raises ConvergenceError.
MAX_SWEEPS = 250


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


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense symmetric matrix a*D + (1-a)*A."""
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


def collatz_wielandt_bound(g: Graph, alpha: float, steps: int = 0) -> float:
    """Upper bound on the alpha index from the degree vector and ``steps``
    power iterates of it: the minimum over x = d, M d, ..., M^steps d of
    max over v of (M x)_v / x_v, with M = a*D + (1-a)*A and isolated
    vertices skipped (0 when every vertex is isolated).

    With steps = 0 this is max_v a*d(v) + (1-a)*(sum of the neighbours'
    degrees)/d(v). Every iterate is positive on the vertices with an edge, so
    each maximum bounds rho(M) from above (Collatz-Wielandt for nonnegative
    M and positive x; an isolated vertex is a component with eigenvalue 0),
    and further steps only tighten it. Each iterate is rescaled by its
    maximum.
    """
    a = require_weight(alpha)
    deg = g.degrees()
    x = deg
    bound = math.inf
    for step in range(steps + 1):
        if step:
            top = max(y, default=0.0)
            if not top:  # no edges: every later iterate is 0 too
                break
            x = [yv / top for yv in y]
        y = [a * d * xv + (1.0 - a) * sum(x[u] for u in iter_bits(row))
             for d, row, xv in zip(deg, g.adj, x)]
        bound = min(bound, max([yv / xv for yv, xv in zip(y, x) if xv], default=0.0))
    return bound


def jacobi_eigensystem(
    matrix: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray, int]:
    """Full eigensystem of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row pairs in a fixed lexicographic order until the off-diagonal
    Frobenius norm drops below ``tol``. Returns (eigenvalues, eigenvector
    columns, sweeps used). Deterministic for a fixed input.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n <= 1:
        return np.diagonal(a).copy(), v, 0
    for sweep in range(max_sweeps + 1):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off2 = float(np.sum(off * off))
        if off2 <= tol * tol:
            return np.diagonal(a).copy(), v, sweep
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-280:
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                app = a[p, p]
                aqq = a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    sign = 1.0 if tau >= 0.0 else -1.0
                    t = sign / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    raise ConvergenceError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")


def alpha_index(g: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of a*D + (1-a)*A with its unit eigenvector.

    The eigenvector sign is fixed by making the largest-magnitude entry
    positive; for connected graphs it is the positive Perron vector.
    """
    if g.n < 1:
        raise ValueError("alpha_index needs a graph of order >= 1")
    mat = alpha_matrix(g, alpha)
    values, vectors, sweeps = jacobi_eigensystem(mat)
    k = int(np.argmax(values))
    rho = float(values[k])
    x = vectors[:, k]
    top = int(np.argmax(np.abs(x)))
    if x[top] < 0.0:
        x = -x
    x = x / np.sqrt(np.sum(x * x))
    residual_vec = np.sum(mat * x, axis=1) - rho * x
    residual = float(np.sqrt(np.sum(residual_vec * residual_vec)))
    return SpectralResult(rho, tuple(float(t) for t in x), residual, sweeps)


def quotient_matrix(spec: ConstructionSpec, alpha: float) -> np.ndarray:
    """Equitable-quotient matrix of a join construction.

    One class per regular block (clique part first). 2x2 for the families
    whose non-clique part is regular; the matching family with a leftover
    isolated vertex needs a third class.
    """
    a = require_weight(alpha)
    clique, parts = quotient_classes(spec)
    classes = []  # (size, within-class regularity, is the clique part)
    if clique > 0:
        classes.append((clique, clique - 1, True))
    classes.extend((size, reg, False) for size, reg in parts)
    n = sum(size for size, _, _ in classes)
    c = len(classes)
    mat = np.zeros((c, c))
    for i, (size_i, reg_i, clique_i) in enumerate(classes):
        degree = n - 1 if clique_i else clique + reg_i
        mat[i, i] = a * degree + (1.0 - a) * reg_i
        for j, (size_j, _, clique_j) in enumerate(classes):
            if i != j:
                count = size_j if (clique_i or clique_j) else 0
                mat[i, j] = (1.0 - a) * count
    return mat


def quotient_alpha_index(spec: ConstructionSpec, alpha: float) -> float:
    """Largest eigenvalue of the equitable quotient; equals the full graph's.

    The quotient is symmetrized by the similarity diag(sqrt(class sizes)),
    then solved with the same Jacobi routine on a matrix of size <= 3.
    """
    mat = quotient_matrix(spec, alpha)
    clique, parts = quotient_classes(spec)
    sizes = ([clique] if clique > 0 else []) + [size for size, _ in parts]
    if not sizes:
        raise ValueError("empty construction has no spectrum")
    root = np.sqrt(np.array(sizes, dtype=float))
    sym = mat * root[:, None] / root[None, :]
    values, _, _ = jacobi_eigensystem(sym)
    return float(np.max(values))
