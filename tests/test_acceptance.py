"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here. Exhaustive statements run over complete
enumerations; grid statements cover the stated parameter ranges, with the
order grids thinned to representative values (endpoints always included)
where a full scan would leave the stated runtime budget.
"""

import math

import numpy as np

from alpha_extremal.bounds import (
    StarForestSpec,
    biclique_q_bound,
    clique_join_quadratic,
    complete_split_quadratic,
    lower_bound_crossover,
    lower_bound_gap,
    star_forest_edge_bound,
)
from alpha_extremal.cli import main as cli_main
from alpha_extremal.graphs import (
    CliqueJoinCliques,
    CompleteSplit,
    Graph,
    construct,
    join,
    regular_circulant,
)
from alpha_extremal.harness import (
    BicliqueMinorFree,
    CliqueMinorFree,
    StarForestFree,
    canonical_graph6,
    class_member,
    extremal_search,
    predicted_witness_spec,
)
from alpha_extremal.spectral import alpha_index
from alpha_extremal.star_forests import is_star_forest_free
from conftest import alpha_matrix


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def test_criterion_1_eigensolver_oracle_bounds(graphs_by_order):
    """Row-sum and max-degree bounds plus residual <= 1e-10 on every graph of
    order <= 7 at five weights including both endpoints."""
    weights = (0.0, 0.25, 0.5, 0.75, 1.0)
    instances = 0
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            two_e_over_n = 2 * g.edge_count() / g.n
            delta = g.max_degree()
            for a in weights:
                result = alpha_index(g, a)
                assert result.residual <= 1e-10, (g, a, result.residual)
                assert two_e_over_n <= result.alpha_index + 1e-10, (g, a)
                assert result.alpha_index <= delta + 1e-10, (g, a)
                instances += 1
    assert instances == 1252 * 5
    report(1, f"{instances} eigensolves within row-sum/degree bounds, residual <= 1e-10")


def test_criterion_2_complete_split_closed_form():
    """Quadratic root equals the alpha index of the complete split graph,
    and eigvalsh of its dense matrix, to 1e-9 for k <= 6, orders up to 60,
    and a 9-point weight grid."""
    weights = [i / 10 for i in range(1, 10)]
    checked = 0
    for k in range(2, 7):
        orders = sorted({k, k + 1, k + 4, 12, 25, 40, 60})
        for n in orders:
            if n < k:
                continue
            g = construct(CompleteSplit(n, k - 1))
            for a in weights:
                root = complete_split_quadratic(n, k, a).largest_root
                rho = alpha_index(g, a).alpha_index
                dense = float(np.linalg.eigvalsh(alpha_matrix(g, a))[-1])
                assert abs(root - rho) <= 1e-9, (n, k, a, root, rho)
                assert abs(root - dense) <= 1e-9, (n, k, a, root, dense)
                checked += 1
    assert checked >= 300
    report(2, f"{checked} closed-form agreements at 1e-9 (k <= 6, n <= 60, 9 weights)")


def test_criterion_3_clique_join_equality_condition():
    """Degree-capped joins stay below the quadratic root, with equality
    exactly for regular parts: k in {2,3}, d in {2,3,4}, n <= 40."""
    weights = (0.3, 0.5, 0.7)
    orders = (16, 17, 28, 29, 40)
    for k in (2, 3):
        for d in (2, 3, 4):
            sampled = 0
            equality_cases = 0
            for n in orders:
                m = n - k + 1
                clique = Graph.complete(k - 1)
                regular_part = None
                if 0 <= d - 1 < m and (d - 1) * m % 2 == 0:
                    regular_part = regular_circulant(m, d - 1)
                for a in weights:
                    root = clique_join_quadratic(n, k, d, a).largest_root
                    if regular_part is not None:
                        rho = alpha_index(join(clique, regular_part), a).alpha_index
                        assert abs(rho - root) <= 1e-9, ("regular", n, k, d, a)
                        equality_cases += 1
                    rng = np.random.default_rng([k, d, n, int(a * 100)])
                    for _ in range(2):
                        part = _random_capped(m, d - 1, rng)
                        rho = alpha_index(join(clique, part), a).alpha_index
                        sampled += 1
                        assert rho <= root + 1e-9, ("upper", n, k, d, a, rho, root)
                        if part.is_regular(d - 1):
                            assert abs(rho - root) <= 1e-9
                            equality_cases += 1
                        else:
                            assert rho < root - 1e-9, ("strict", n, k, d, a, rho, root)
            assert sampled >= 30
            assert equality_cases > 0, (k, d)
    report(3, "equality holds exactly for regular parts over k in {2,3}, d in {2,3,4}, n <= 40")


def _random_capped(m, max_degree, rng):
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    deg = [0] * m
    edges = []
    for idx in rng.permutation(len(pairs)):
        u, v = pairs[int(idx)]
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph.from_edges(m, edges)


def test_criterion_4_biclique_instance():
    """The order-10 clique-join-of-triangles instance: alpha index at weight
    1/2 equals (7+sqrt(13))/2, and twice that matches the signless Laplacian
    closed form."""
    g = construct(CliqueJoinCliques(10, 2, 3, 3))
    rho = alpha_index(g, 0.5).alpha_index
    want = (7 + math.sqrt(13)) / 2
    assert abs(rho - want) <= 1e-9
    assert abs(rho - clique_join_quadratic(10, 2, 3, 0.5).largest_root) <= 1e-9
    assert abs(2 * rho - biclique_q_bound(10, 2, 3)) <= 1e-9
    assert abs(2 * rho - (7 + math.sqrt(13))) <= 1e-9
    report(4, "alpha index (7+sqrt(13))/2 and q-form 7+sqrt(13) agree at 1e-9")


def test_criterion_5_exhaustive_star_maximum():
    """Exhaustive search over triangle-minor-free graphs returns the star
    with the complete-split root value for n in 4..8 and three weights."""
    for n in range(4, 9):
        star = canonical_graph6(Graph.star(n - 1))
        for a in (0.25, 0.5, 0.75):
            best, witnesses = extremal_search(n, [a], CliqueMinorFree(3))[0]
            root = complete_split_quadratic(n, 2, a).largest_root
            assert witnesses == [star], (n, a, witnesses)
            assert abs(best - root) <= 1e-9, (n, a, best, root)
    report(5, "star is the unique triangle-minor-free maximizer for n in 4..8")


def test_criterion_6_star_forest_edge_bound_exhaustive(graphs_by_order):
    """Every star-forest-free graph on up to 7 vertices satisfies the edge
    ceiling, for the three smallest forbidden forests."""
    checked = 0
    for degrees in ((1, 1), (2, 1), (2, 2)):
        spec = StarForestSpec(degrees)
        for n in range(spec.degree_sum + spec.k, 8):
            bound = star_forest_edge_bound(spec, n)
            for g in graphs_by_order[n]:
                if not is_star_forest_free(g, spec):
                    continue
                assert g.edge_count() <= bound, (spec.label(), n, g)
                checked += 1
    assert checked > 150
    report(6, f"{checked} star-forest-free graphs under the edge ceiling (n <= 7)")


def test_criterion_7_construction_class_membership():
    """Every predicted extremal construction lies in its forbidden class for
    all feasible orders up to 10."""
    validated = 0
    for r in (3, 4, 5):
        cls = CliqueMinorFree(r)
        for n in range(max(3, r - 1), 11):
            spec = predicted_witness_spec(cls, n)
            assert spec is not None
            assert class_member(construct(spec), cls), (cls, n)
            validated += 1
    for s, t in ((2, 2), (2, 3), (3, 3)):
        cls = BicliqueMinorFree(s, t)
        for n in range(s + t, 11):
            spec = predicted_witness_spec(cls, n)
            if spec is None:
                continue
            assert class_member(construct(spec), cls), (cls, n)
            validated += 1
    for degrees in ((2, 1), (2, 2), (3, 2), (3, 3)):
        cls = StarForestFree(StarForestSpec(degrees))
        for n in range(sum(degrees) + len(degrees), 11):
            spec = predicted_witness_spec(cls, n)
            if spec is None:
                continue
            assert class_member(construct(spec), cls), (cls, n)
            validated += 1
    assert validated >= 40
    report(7, f"{validated} predicted witnesses validated as class members (n <= 10)")


def test_criterion_8_lower_bound_crossover_bisection():
    """The sign change of the lower-bound gap sits at (2k-3)/(2k-2) to
    1e-12, located by bisection for k = 2..6."""
    for k in range(2, 7):
        lo, hi = 1e-6, 1 - 1e-6
        assert lower_bound_gap(k, lo) > 0 > lower_bound_gap(k, hi)
        for _ in range(80):
            mid = (lo + hi) / 2
            if lower_bound_gap(k, mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13:
                break
        found = (lo + hi) / 2
        assert abs(found - lower_bound_crossover(k)) <= 1e-12, (k, found)
    report(8, "gap sign changes at (2k-3)/(2k-2) within 1e-12 for k = 2..6")


def test_criterion_9_worker_count_determinism(tmp_path, capsys):
    """Two full harness runs with different worker counts write byte-identical
    report files over the criterion-5 grid."""
    digests = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"workers{workers}"
        code = cli_main([
            "check", "--theorem", "T1", "--r", "3", "--n-range", "4:8",
            "--alpha-grid", "0.25,0.5,0.75", "--workers", workers,
            "--out", str(out_dir), "--format", "csv",
        ])
        assert code == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    capsys.readouterr()
    assert digests[0].keys() == digests[1].keys()
    assert len(digests[0]) == 16  # 15 grid points + summary.csv
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], name
    report(9, "16 report files byte-identical across worker counts 1 and 2")
