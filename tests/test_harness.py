import json
import re

import jsonschema
import pytest

from alpha_extremal import harness
from alpha_extremal.bounds import StarForestSpec, clique_join_quadratic, complete_split_quadratic
from alpha_extremal.graphs import CliqueJoinMatching, Graph, construct, disjoint_union
from alpha_extremal.harness import (
    TIE_TOL,
    BicliqueMinorFree,
    CliqueMinorFree,
    StarForestFree,
    canonical_graph6,
    check_theorem,
    class_member,
    classify_verdict,
    extremal_search,
    predicted_value,
    predicted_witness_spec,
    reports_to_csv,
    sweep_inequalities,
)
from alpha_extremal.spectral import alpha_index, quotient_alpha_index

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "class", "n", "alpha", "exhaustive_max", "witnesses", "predicted_value",
        "predicted_witness", "verdict", "threshold_satisfied", "notes",
    ],
    "additionalProperties": False,
    "properties": {
        "class": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "exhaustive_max": {"type": "number", "minimum": 0},
        "witnesses": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "predicted_value": {"type": "number"},
        "predicted_witness": {"type": ["string", "null"]},
        "verdict": {
            "enum": ["MATCH", "PREDICTION_EXCEEDED", "PREDICTION_UNATTAINED", "SMALL_N_CAVEAT"]
        },
        "threshold_satisfied": {"type": "boolean"},
        "notes": {"type": "string"},
    },
}


class TestClassBasics:
    def test_labels_and_ids(self):
        assert CliqueMinorFree(3).label == "clique_minor_free(3)"
        assert BicliqueMinorFree(2, 3).label == "biclique_minor_free(2,3)"
        assert StarForestFree(StarForestSpec((2, 2))).label == "star_forest_free(2,2)"
        assert CliqueMinorFree(3).claim == "T1"
        assert BicliqueMinorFree(2, 2).claim == "T2"
        assert StarForestFree(StarForestSpec((1, 1))).claim == "T3"
        assert CliqueMinorFree(5).clique_join == (4, 1)
        assert BicliqueMinorFree(2, 3).clique_join == (2, 3)
        assert StarForestFree(StarForestSpec((3, 2, 4))).clique_join == (3, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CliqueMinorFree(2)
        with pytest.raises(ValueError):
            BicliqueMinorFree(1, 3)

    def test_membership(self):
        assert class_member(Graph.star(4), CliqueMinorFree(3))
        assert not class_member(Graph.cycle(4), CliqueMinorFree(3))
        assert class_member(Graph.empty(6), StarForestFree(StarForestSpec((1, 1))))


class TestExtremalSearch:
    def test_star_wins_among_forests(self):
        best, witnesses = extremal_search(5, [0.5], CliqueMinorFree(3))[0]
        assert best == pytest.approx(complete_split_quadratic(5, 2, 0.5).largest_root, abs=1e-9)
        assert witnesses == [canonical_graph6(Graph.star(4))]

    def test_tie_reporting_matching_free_order_4(self):
        best, witnesses = extremal_search(4, [0.5], StarForestFree(StarForestSpec((1, 1))))[0]
        assert best == pytest.approx(2.0, abs=1e-9)
        expected = {
            canonical_graph6(Graph.star(3)),
            canonical_graph6(disjoint_union(Graph.complete(3), Graph.empty(1))),
        }
        assert set(witnesses) == expected
        assert witnesses == sorted(witnesses)

    def test_single_vertex(self):
        best, witnesses = extremal_search(1, [0.5], CliqueMinorFree(3))[0]
        assert best == 0.0
        assert witnesses == [canonical_graph6(Graph.empty(1))]

    def test_monotone_in_order(self):
        for cls in (CliqueMinorFree(3), StarForestFree(StarForestSpec((1, 1)))):
            prev = -1.0
            for n in range(1, 7):
                best, _ = extremal_search(n, [0.4], cls)[0]
                assert best >= prev - 1e-12
                prev = best

    def test_worker_counts_agree(self):
        serial = extremal_search(6, [0.5], CliqueMinorFree(3), workers=1)
        parallel = extremal_search(6, [0.5], CliqueMinorFree(3), workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("n, cls, workers, size", [
        (7, CliqueMinorFree(3), 10**6, 20),  # the 20 forests of order 6
        (4, CliqueMinorFree(3), 1000, 6),  # n <= 6 deals out the order-n members
        (6, StarForestFree(StarForestSpec((3, 3))), 10**9, 156),  # every order-6 graph is a member
        (7, StarForestFree(StarForestSpec((2, 2))), 3, 3),
    ])
    def test_pool_clamped_to_prefix_nodes(self, in_process_pool, n, cls, workers, size):
        clamped = extremal_search(n, [0.5], cls, workers=workers)
        assert in_process_pool == [size]
        assert clamped == extremal_search(n, [0.5], cls, workers=1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_prefix_walked_once(self, monkeypatch, in_process_pool, workers):
        # The prefix walk is shared, not repeated per shard: the forest walk
        # to order 6 makes 46 class_member calls at any worker count, and one
        # more checks the predicted witness.
        calls = []

        def counted(g, cls):
            calls.append(g)
            return class_member(g, cls)

        monkeypatch.setattr(harness, "class_member", counted)
        check_theorem(CliqueMinorFree(3), 6, [0.5], workers=workers)
        assert len(calls) == 47
        assert in_process_pool == ([3] if workers > 1 else [])

    @pytest.mark.parametrize("cls", [
        CliqueMinorFree(3), CliqueMinorFree(4), BicliqueMinorFree(2, 3),
        StarForestFree(StarForestSpec((2, 2))),
    ], ids=lambda cls: cls.label)
    def test_equals_brute_force_over_all_members(self, graphs_by_order, cls):
        # Every member solved at every weight: the bound-ordered solves must
        # find the same maximum and the same ties.
        weights = (0.25, 0.75)
        for n in range(1, 8):
            members = [g for g in graphs_by_order[n] if class_member(g, cls)]
            want = []
            for a in weights:
                values = [alpha_index(g, a).alpha_index for g in members]
                best = max(values)
                ties = {canonical_graph6(g) for g, v in zip(members, values) if v >= best - TIE_TOL}
                want.append((best, sorted(ties)))
            assert extremal_search(n, weights, cls) == want

    def test_repeat_runs_identical(self):
        a = extremal_search(6, [0.3], BicliqueMinorFree(2, 2))
        b = extremal_search(6, [0.3], BicliqueMinorFree(2, 2))
        assert a == b

    def test_weight_must_be_open(self):
        with pytest.raises(ValueError):
            extremal_search(4, [0.0], CliqueMinorFree(3))


class TestVerdicts:
    def test_classify(self):
        assert classify_verdict(5.0, 5.0 + 5e-10, True) == "MATCH"
        assert classify_verdict(5.1, 5.0, True) == "PREDICTION_EXCEEDED"
        assert classify_verdict(4.9, 5.0, True) == "PREDICTION_UNATTAINED"
        assert classify_verdict(5.1, 5.0, False) == "SMALL_N_CAVEAT"
        assert classify_verdict(4.9, 5.0, False) == "SMALL_N_CAVEAT"
        assert classify_verdict(5.0, 5.0, False) == "MATCH"


class TestCheckTheorem:
    def test_t1_small_order_matches(self):
        rep = check_theorem(CliqueMinorFree(3), 7, [0.5])[0]
        assert rep.verdict == "MATCH"
        assert rep.witnesses == (canonical_graph6(Graph.star(6)),)
        assert rep.predicted_witness == rep.witnesses[0]
        assert not rep.threshold_satisfied

    def test_t2_exact_at_seven(self):
        rep = check_theorem(BicliqueMinorFree(2, 3), 7, [0.5])[0]
        assert rep.verdict == "MATCH"
        assert rep.exhaustive_max == pytest.approx(4.0, abs=1e-9)
        assert rep.predicted_witness in rep.witnesses

    def test_t2_indivisible_equality_order(self):
        # n - s + 1 = 7 is not divisible by t = 3: no witness construction.
        rep = check_theorem(BicliqueMinorFree(2, 3), 8, [0.5])[0]
        assert rep.predicted_witness is None
        assert rep.verdict == "SMALL_N_CAVEAT"
        assert rep.exhaustive_max < rep.predicted_value

    def test_t2_below_order_minimum_refuses(self):
        with pytest.raises(ValueError, match="n >="):
            check_theorem(BicliqueMinorFree(2, 4), 7, [0.5])

    def test_order_above_cap_refused_before_the_witness(self, monkeypatch):
        from alpha_extremal import harness
        from alpha_extremal.enumeration import EnumerationCapError

        def never(g, cls):
            raise AssertionError("class_member called for an order above the cap")

        monkeypatch.setattr(harness, "class_member", never)
        with pytest.raises(EnumerationCapError, match="cap 10"):
            check_theorem(CliqueMinorFree(5), 14, [0.5])
        with pytest.raises(EnumerationCapError, match="cap 10"):
            extremal_search(11, [0.5], CliqueMinorFree(3), workers=2)

    def test_t3_odd_matching_part(self):
        # The matching leaves a vertex over, so the construction falls short
        # of the quadratic's root; it is predicted by its own index.
        for n in (8, 10):
            construction = CliqueJoinMatching(n, 2)
            rep = check_theorem(StarForestFree(StarForestSpec((2, 2))), n, [0.5])[0]
            assert rep.verdict == "MATCH"
            assert rep.predicted_witness == canonical_graph6(construct(construction))
            assert rep.witnesses == (rep.predicted_witness,)
            assert rep.predicted_value == quotient_alpha_index(construction, 0.5)
            assert rep.predicted_value == pytest.approx(
                alpha_index(construct(construction), 0.5).alpha_index, abs=1e-12
            )
            root = clique_join_quadratic(n, 2, 2, 0.5).largest_root
            assert rep.predicted_value < root - 1e-3

    def test_t3_notes_carry_both_thresholds(self):
        spec = StarForestSpec((2, 2))
        rep = check_theorem(StarForestFree(spec), 6, [0.5])[0]
        assert "640" in rep.notes and "320" in rep.notes

    def test_report_json_schema(self):
        rep = check_theorem(CliqueMinorFree(3), 5, [0.25])[0]
        data = json.loads(rep.to_json())
        jsonschema.validate(data, REPORT_SCHEMA)

    def test_predicted_helpers(self):
        assert predicted_witness_spec(BicliqueMinorFree(2, 3), 10) is not None
        assert predicted_witness_spec(BicliqueMinorFree(2, 3), 9) is None
        spec = predicted_witness_spec(CliqueMinorFree(3), 7)
        value = predicted_value(CliqueMinorFree(3), 7, spec, 0.5)
        assert value == pytest.approx(complete_split_quadratic(7, 2, 0.5).largest_root, abs=1e-12)
        # No construction: T2 falls back on the quadratic's root.
        value = predicted_value(BicliqueMinorFree(2, 3), 9, None, 0.5)
        assert value == clique_join_quadratic(9, 2, 3, 0.5).largest_root

    def test_csv_round_trips_floats(self):
        rep = check_theorem(CliqueMinorFree(3), 6, [0.5])[0]
        text = reports_to_csv([rep])
        header, row = text.splitlines()
        idx = header.split(",").index("exhaustive_max")
        value = float(row.split(",")[idx])
        assert f"{value:.12g}" == f"{rep.exhaustive_max:.12g}"
        assert value == rep.exhaustive_max  # repr round-trip is exact


class TestSweep:
    def test_clean_sweep(self):
        report = sweep_inequalities()
        assert (report.checked, report.skipped) == (857, 66)
        assert not report.violations
        assert "0 violations" in report.summary()

    def test_corrupted_sweep_detects_violations(self):
        report = sweep_inequalities(corrupt=3.0)
        assert {v.check for v in report.violations} == {
            "split_lower_bound_1", "split_lower_bound_2", "split_root_vs_quotient",
            "lower_bound_gap_sign", "clique_join_upper", "clique_join_equality",
            "clique_join_strictness", "star_forest_edge_bound", "star_minor_edge_bound",
            "biclique_q_consistency", "star_forest_q_consistency",
        }
        graph_rows = [v for v in report.violations
                      if v.check.startswith("clique_join_") or v.check.endswith("_edge_bound")]
        assert graph_rows
        for v in graph_rows:
            assert re.search(r" \(witness [^ ]+\)$", v.detail), str(v)
