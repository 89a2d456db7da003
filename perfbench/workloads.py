"""Workload definitions: the operations of one round and the checks on their outputs.

One operation is one (claim, n, alpha) grid point of ``alpha-extremal check``
or one ``alpha_index`` call. A round runs every operation of its workload
once. The census workloads have no random input (an exhaustive census of
all graphs of one order is the same for every seed); the spectral workload
draws its random graph from the seed. Every input graph is built here as an
edge list. Checks use only oracles.py, imported after the timed rounds so
that networkx is not part of the set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-9
RESIDUAL_TOL = 1e-10
SPECTRAL_ALPHA = 0.3

# name -> why the workload is in the benchmark
WORKLOADS = {
    "minor-census-n8": (
        "T1 r=4 n=8 at two weights plus T2 (2,3) n=7: K4-minor search and thousands of "
        "order-8 eigensolves dominate; membership is redone per weight"
    ),
    "star-census-n9": (
        "T3 (2,2) n=9: enumeration and canonical labeling of 274,668 graphs and the "
        "star-forest search dominate; almost no eigensolves, no minor search"
    ),
    "spectral-large": (
        "10 alpha_index calls at n=40..200 (paper joins, seeded G(200,0.08)): few large "
        "matrices, the solver used the opposite way to the censuses"
    ),
}


@dataclass
class Op:
    """One command of a round; ``points`` operations are counted for it."""

    label: str
    points: int
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], list[str]]


# -- the paper's extremal joins, as edge lists ---------------------------


def _join_edges(clique: int, part_edges, part_order: int):
    """Edges of K_clique joined to a graph on part_order vertices (shifted up)."""
    edges = list(combinations(range(clique), 2))
    edges += [(u, clique + v) for u in range(clique) for v in range(part_order)]
    edges += [(clique + u, clique + v) for u, v in part_edges]
    return edges


def complete_split(n: int, m: int):
    """K_m joined to an independent set of n - m vertices."""
    return _join_edges(m, [], n - m)


def clique_join_cliques(s: int, t: int, p: int):
    """K_{s-1} joined to p disjoint copies of K_t."""
    part = [(b * t + u, b * t + v) for b in range(p) for u, v in combinations(range(t), 2)]
    return _join_edges(s - 1, part, p * t)


def clique_join_matching(n: int, k: int):
    """K_{k-1} joined to a maximum matching on the other n - k + 1 vertices."""
    m = n - k + 1
    return _join_edges(k - 1, [(2 * i, 2 * i + 1) for i in range(m // 2)], m)


def clique_join_circulant(n: int, k: int, offsets):
    """K_{k-1} joined to the circulant on Z_{n-k+1} with the given offsets."""
    m = n - k + 1
    part = {tuple(sorted((v, (v + o) % m))) for o in offsets for v in range(m)}
    return _join_edges(k - 1, sorted(part), m)


# -- census workloads: alpha-extremal check ------------------------------


@dataclass(frozen=True)
class Claim:
    argv: tuple[str, ...]
    label: str  # the report's "class" field
    member: Callable  # (oracles module, networkx graph) -> is the graph in the class
    construction: Callable[[int], list | None]  # predicted extremal edge list at order n


T1_R4 = Claim(
    ("--theorem", "T1", "--r", "4"), "clique_minor_free(4)",
    lambda o, g: o.k4_minor_free(g), lambda n: complete_split(n, 2),
)
T2_S2T3 = Claim(
    ("--theorem", "T2", "--s", "2", "--t", "3"), "biclique_minor_free(2,3)",
    lambda o, g: o.k23_minor_free(g),
    lambda n: clique_join_cliques(2, 3, (n - 1) // 3) if (n - 1) % 3 == 0 else None,
)
T3_D22 = Claim(
    ("--theorem", "T3", "--degrees", "2,2"), "star_forest_free(2,2)",
    lambda o, g: o.star_forest_free(g, (2, 2)), lambda n: clique_join_matching(n, 2),
)


def _check_op(cli, claim: Claim, n: int, alphas: list[str], out_dir: Path) -> Op:
    argv = [
        "check", *claim.argv, "--n", str(n), "--workers", "1", "--out", str(out_dir),
        *(["--alpha", alphas[0]] if len(alphas) == 1 else ["--alpha-grid", ",".join(alphas)]),
    ]

    def run():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"check exited with code {code}")
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return text.getvalue(), files

    def digest(output) -> str:
        stdout, files = output
        h = hashlib.sha256(stdout.encode())
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        return h.hexdigest()

    def check(output) -> list[str]:
        _, files = output
        reports = [json.loads(data) for name, data in files.items() if name.endswith(".json")]
        if "summary.csv" not in files:
            return ["summary.csv missing"]
        errors = []
        seen = sorted((r["n"], r["alpha"]) for r in reports)
        if seen != sorted((n, float(a)) for a in alphas):
            errors.append(f"reports cover {seen}")
        for rep in reports:
            errors += _check_report(rep, claim, n)
        return errors

    label = " ".join(a for a in argv if a not in ("--out", str(out_dir)))
    return Op(label, len(alphas), run, digest, check)


def _check_report(rep: dict, claim: Claim, n: int) -> list[str]:
    import oracles

    where = f"{claim.label} n={n} alpha={rep['alpha']}"
    if rep["class"] != claim.label:
        return [f"{where}: report class {rep['class']!r}"]
    alpha, best = rep["alpha"], rep["exhaustive_max"]
    errors = []
    if not rep["witnesses"]:
        errors.append(f"{where}: no witnesses")
    for w in rep["witnesses"]:
        g = oracles.from_graph6(w)
        if g.number_of_nodes() != n:
            errors.append(f"{where}: witness {w} has order {g.number_of_nodes()}")
        elif not claim.member(oracles, g):
            errors.append(f"{where}: witness {w} is not a class member")
        elif abs(oracles.alpha_index(g, alpha) - best) > TOL:
            errors.append(f"{where}: witness {w} eigvalsh {oracles.alpha_index(g, alpha)} != max {best}")
    edges = claim.construction(n)
    if edges is not None:
        g = oracles.graph_from_edges(n, edges)
        value = oracles.alpha_index(g, alpha)
        if not claim.member(oracles, g):
            errors.append(f"{where}: predicted construction is not a class member")
        if best < value - TOL:
            errors.append(f"{where}: max {best} below the construction's eigvalsh {value}")
        witness = rep["predicted_witness"]
        if witness is None or not oracles.nx.is_isomorphic(oracles.from_graph6(witness), g):
            errors.append(f"{where}: predicted witness {witness} is not the construction")
    return errors


# -- spectral-large: alpha_index on the benchmark's own inputs -----------


def spectral_inputs(seed: int) -> list[tuple[str, int, list]]:
    """(label, order, edge list) for every alpha_index call of a round."""
    rng = np.random.default_rng(seed)
    gnp = [(i, j) for i in range(200) for j in range(i + 1, 200) if rng.random() < 0.08]
    return [
        ("CompleteSplit(40,2)", 40, complete_split(40, 2)),
        ("CompleteSplit(73,3)", 73, complete_split(73, 3)),
        ("CliqueJoinCliques(41,2,4,10)", 41, clique_join_cliques(2, 4, 10)),
        ("CliqueJoinCliques(61,2,5,12)", 61, clique_join_cliques(2, 5, 12)),
        ("CliqueJoinMatching(45,3)", 45, clique_join_matching(45, 3)),
        ("CliqueJoinMatching(73,4)", 73, clique_join_matching(73, 4)),
        ("CliqueJoinRegular(52,3,4)", 52, clique_join_circulant(52, 3, (1, 25))),
        (f"G(200,0.08) seed {seed}", 200, gnp),
        ("CompleteSplit(200,3)", 200, complete_split(200, 3)),
        ("CliqueJoinRegular(200,2,3)", 200, clique_join_circulant(200, 2, (1,))),
    ]


def _spectral_op(spectral, graph_type, label: str, n: int, edges: list) -> Op:
    graph = graph_type.from_edges(n, edges)

    def run():
        return spectral.alpha_index(graph, SPECTRAL_ALPHA)

    def digest(result) -> str:
        data = repr((result.alpha_index, result.residual, result.sweeps, result.vector))
        return hashlib.sha256(data.encode()).hexdigest()

    def check(result) -> list[str]:
        import oracles

        g = oracles.graph_from_edges(n, edges)
        mat = oracles.alpha_matrix(g, SPECTRAL_ALPHA)
        want = float(np.linalg.eigvalsh(mat)[-1])
        x = np.array(result.vector)
        residual = float(np.linalg.norm(mat @ x - result.alpha_index * x))
        errors = []
        if abs(result.alpha_index - want) > TOL:
            errors.append(f"{label}: alpha index {result.alpha_index} != eigvalsh {want}")
        if max(residual, result.residual) > RESIDUAL_TOL:
            errors.append(f"{label}: residual {result.residual} (recomputed {residual})")
        if oracles.nx.is_connected(g) and not np.all(x > 0):
            errors.append(f"{label}: Perron vector of a connected graph is not positive")
        return errors

    return Op(f"alpha_index {label} alpha={SPECTRAL_ALPHA}", 1, run, digest, check)


def build_ops(name: str, seed: int, program, out_dir: Path) -> list[Op]:
    """Operations of one round of workload ``name``; inputs depend only on ``seed``."""
    if name == "minor-census-n8":
        return [
            _check_op(program.cli, T1_R4, 8, ["0.25", "0.75"], out_dir / "T1"),
            _check_op(program.cli, T2_S2T3, 7, ["0.5"], out_dir / "T2"),
        ]
    if name == "star-census-n9":
        return [_check_op(program.cli, T3_D22, 9, ["0.5"], out_dir / "T3")]
    if name == "spectral-large":
        return [
            _spectral_op(program.spectral, program.Graph, label, n, edges)
            for label, n, edges in spectral_inputs(seed)
        ]
    raise ValueError(f"unknown workload {name!r}")
