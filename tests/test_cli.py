import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import alpha_extremal
from alpha_extremal.cli import CliParseError, main, parse_alpha_grid
from alpha_extremal.graph6 import decode_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlphaGridParsing:
    def test_range_syntax(self):
        grid = parse_alpha_grid("0.1:0.9:0.1")
        assert grid == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]

    def test_comma_list(self):
        assert parse_alpha_grid("0.25, 0.5,0.75") == ["0.25", "0.5", "0.75"]

    def test_bad_grid(self):
        with pytest.raises(CliParseError):
            parse_alpha_grid("0.1:0.9")
        with pytest.raises(CliParseError):
            parse_alpha_grid("0.1:0.9:-0.1")
        with pytest.raises(CliParseError):
            parse_alpha_grid("a,b")
        with pytest.raises(CliParseError, match="empty"):
            parse_alpha_grid(" , ")
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("0.1:inf:0.1")
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("nan:1:0.1")
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("0.5,sNaN")
        # The same weight twice would solve it twice and write two reports.
        with pytest.raises(CliParseError, match="repeats"):
            parse_alpha_grid("0.5,0.50")
        with pytest.raises(CliParseError, match="repeats"):
            parse_alpha_grid("0.25,0.5,5E-1")
        # Distinct decimals that round to one float are one weight to the census.
        with pytest.raises(CliParseError, match="repeats"):
            parse_alpha_grid("0.1,0.1000000000000000000001")
        with pytest.raises(CliParseError, match="repeats"):
            parse_alpha_grid("0.1:0.1000000000000000000002:0.0000000000000000000001")
        # A decimal beyond the float range is an infinite weight.
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("1e400")
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("1e400,2e400")
        with pytest.raises(CliParseError, match="finite"):
            parse_alpha_grid("1e400:1e400:1")

    @pytest.mark.parametrize("argv", [
        ("check", "--theorem", "T1", "--r", "3", "--n", "5", "--workers", "1"),
        ("bounds", "--table", "join", "--n", "10", "--k", "2", "--d", "3"),
    ])
    @pytest.mark.parametrize("grid", [
        "0.1,0.1000000000000000000001", "0.1:0.1000000000000000000002:0.0000000000000000000001",
    ])
    def test_float_repeat_is_parse_error(self, capsys, argv, grid):
        code, out, err = run(capsys, *argv, "--alpha-grid", grid)
        assert code == 2
        assert out == ""
        assert "repeats a weight" in err

    @pytest.mark.parametrize("argv", [
        ("check", "--theorem", "T1", "--r", "3", "--n", "5", "--workers", "1", "--alpha-grid", "1e400"),
        ("check", "--theorem", "T1", "--r", "3", "--n", "5", "--workers", "1",
         "--alpha-grid", "1e400,2e400"),
        ("check", "--theorem", "T1", "--r", "3", "--n", "5", "--workers", "1",
         "--alpha-grid", "1e400:1e400:1"),
        ("alpha-index", "--g6", "Bw", "--alpha", "1e400"),
        ("bounds", "--table", "join", "--n", "10", "--k", "2", "--d", "3", "--alpha", "1e400"),
    ])
    def test_float_overflow_is_parse_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "not a finite weight" in err

    def test_range_grid_is_counted_before_it_is_built(self, capsys):
        # 8e8 points: building the list first would take minutes and gigabytes.
        with pytest.raises(CliParseError, match="10000"):
            parse_alpha_grid("0.1:0.9:1e-9")
        assert len(parse_alpha_grid("0:0.9999:0.0001")) == 10000
        code, out, err = run(
            capsys, "bounds", "--table", "join", "--n", "10", "--k", "2", "--d", "3",
            "--alpha-grid", "0.1:0.9:1e-9",
        )
        assert code == 2
        assert out == ""
        assert "more than 10000 points" in err


class TestAlphaIndexCommand:
    def test_graph6_text(self, capsys):
        code, out, _ = run(capsys, "alpha-index", "--g6", "Bw", "--alpha", "0.5")
        assert code == 0
        assert "alpha index = 2.0" in out

    def test_family_json(self, capsys):
        code, out, _ = run(
            capsys, "alpha-index", "--family", "split", "--n", "4", "--m", "1",
            "--alpha", "0.5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["rho"] == pytest.approx(2.0, abs=1e-9)
        assert data["residual"] <= 1e-10
        assert len(data["vector"]) == 4

    def test_bad_graph6_is_parse_error(self, capsys):
        code, _, err = run(capsys, "alpha-index", "--g6", "invalid~", "--alpha", "0.5")
        assert code == 2
        assert "offset" in err

    def test_both_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "alpha-index", "--g6", "Bw", "--family", "split", "--alpha", "0.5"
        )
        assert code == 2

    def test_infeasible_family_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "alpha-index", "--family", "cliques", "--n", "10", "--s", "2",
            "--t", "3", "--p", "2", "--alpha", "0.5",
        )
        assert code == 3
        assert "p*t" in err

    def test_non_convergence_is_domain_error(self, capsys, monkeypatch):
        from alpha_extremal import spectral

        # The split graph's quotient has two classes and converges in one
        # sweep, so only a budget of none leaves it unconverged.
        monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
        code, _, err = run(
            capsys, "alpha-index", "--family", "split", "--n", "6", "--m", "2", "--alpha", "0.5"
        )
        assert code == 3
        assert err.startswith("error:") and "did not converge" in err

    def test_large_many_block_join_converges(self, capsys):
        # A many-block join: 310 sweeps on the full matrix, its two-class
        # quotient one.
        code, out, _ = run(
            capsys, "alpha-index", "--family", "matching", "--n", "100", "--k", "3",
            "--alpha", "0.5",
        )
        assert code == 0
        fields = dict(map(str.strip, line.split("=")) for line in out.splitlines() if "=" in line)
        assert float(fields["alpha index"]) == pytest.approx(51.0, abs=1e-9)
        assert float(fields["residual"]) <= 1e-10
        assert fields["sweeps"] == "1"

    def test_missing_family_param(self, capsys):
        code, _, err = run(capsys, "alpha-index", "--family", "split", "--alpha", "0.5")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["alpha-index", "--nope", "1"])
        assert info.value.code == 2


class TestEnumerateCommand:
    def test_stream_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert len({line for line in lines}) == 11
        for line in lines:
            assert decode_graph6(line).n == 4

    def test_cap_refusal(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "11")
        assert code == 3
        assert "cap" in err

    def test_cap_refusal_creates_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "g11.g6"
        code, _, err = run(capsys, "enumerate", "--n", "11", "--out", str(target))
        assert code == 3
        assert "cap" in err
        assert not target.exists()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g5.g6"
        code, _, _ = run(capsys, "enumerate", "--n", "5", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 34

    def test_unusable_out_path_is_parse_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, "enumerate", "--n", "4", "--out", str(blocker / "g4.g6"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_closed_pipe_ends_quietly(self):
        # `alpha-extremal enumerate --n 8 | head -1`: the reader leaves after one line.
        src = Path(alpha_extremal.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "alpha_extremal.cli", "enumerate", "--n", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert decode_graph6(first.decode().strip()).n == 8
        assert "Traceback" not in err and "Error" not in err


class TestCheckCommand:
    @pytest.mark.parametrize(
        "degrees,n,alpha,rho", [("1,1", "1", "0.5", 0.0), ("1,1,1", "2", "0.75", 1.0)]
    )
    def test_star_forest_clique_witness_matches(self, capsys, degrees, n, alpha, rho):
        # At n = k-1 the witness is the clique K_{k-1}, of index k-2; the
        # complete split quadratic's root there is max(k-2, a(k-1)).
        code, out, _ = run(
            capsys, "check", "--theorem", "T3", "--degrees", degrees, "--n", n, "--alpha", alpha,
        )
        assert code == 0
        assert f"max={rho} predicted={rho} verdict=MATCH" in out

    def test_text_run(self, capsys):
        code, out, _ = run(
            capsys, "check", "--theorem", "T1", "--r", "3", "--n", "6",
            "--alpha", "0.5", "--workers", "1",
        )
        assert code == 0
        assert "verdict=MATCH" in out

    def test_text_line(self, capsys):
        # The whole line: claim id, class label, point, values, verdict, witnesses.
        code, out, _ = run(
            capsys, "check", "--theorem", "T3", "--degrees", "2,2", "--n", "6",
            "--alpha", "0.5", "--workers", "1",
        )
        assert code == 0
        assert out == (
            "T3 star_forest_free(2,2) n=6 alpha=0.5: max=4.0 predicted=3.186140661634507 "
            "verdict=SMALL_N_CAVEAT witnesses=EJ\\w\n"
        )

    def test_report_files_and_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, _ = run(
            capsys, "check", "--theorem", "T3", "--degrees", "2,2", "--n-range", "6:7",
            "--alpha-grid", "0.25,0.5", "--workers", "1", "--out", str(out_dir),
            "--format", "csv",
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "report_T3_d2-2_n6_a0.25.json",
            "report_T3_d2-2_n6_a0.5.json",
            "report_T3_d2-2_n7_a0.25.json",
            "report_T3_d2-2_n7_a0.5.json",
            "summary.csv",
        ]
        data = json.loads((out_dir / "report_T3_d2-2_n6_a0.5.json").read_text())
        assert data["class"] == "star_forest_free(2,2)"
        from test_harness import REPORT_SCHEMA

        jsonschema.validate(data, REPORT_SCHEMA)
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 5  # header + 4 grid points

    def test_weight_is_stripped_once_for_both_inputs(self, capsys, tmp_path):
        # --alpha and an --alpha-grid item name the same report file, whatever
        # space surrounds them.
        reports = []
        for flag in ("--alpha", "--alpha-grid"):
            out_dir = tmp_path / flag.strip("-")
            code, _, _ = run(
                capsys, "check", "--theorem", "T1", "--r", "3", "--n", "4",
                flag, " 0.5", "--workers", "1", "--out", str(out_dir),
            )
            assert code == 0
            assert sorted(p.name for p in out_dir.iterdir()) == [
                "report_T1_r3_n4_a0.5.json", "summary.csv"]
            reports.append((out_dir / "report_T1_r3_n4_a0.5.json").read_bytes())
        assert reports[0] == reports[1]

    def test_worker_counts_byte_identical(self, capsys, tmp_path):
        dirs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            code, _, _ = run(
                capsys, "check", "--theorem", "T1", "--r", "3", "--n-range", "4:6",
                "--alpha", "0.5", "--workers", workers, "--out", str(out_dir),
            )
            assert code == 0
            dirs.append(out_dir)
        first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
        second = {p.name: p.read_bytes() for p in dirs[1].iterdir()}
        assert first == second

    def test_infeasible_claim_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--theorem", "T1", "--r", "2", "--n", "5", "--alpha", "0.5"
        )
        assert code == 3
        # No complete split construction at the order, and no quadratic to
        # fall back on for T1 or T3 with d_k = 1.
        for claim in (("T1", "--r", "6"), ("T3", "--degrees", "1,1,1,1")):
            code, _, err = run(capsys, "check", "--theorem", *claim, "--n", "2", "--alpha", "0.5")
            assert code == 3
            assert "m <= n" in err

    def test_negative_workers_is_parse_error(self, capsys):
        code, out, err = run(
            capsys, "check", "--theorem", "T1", "--r", "3", "--n", "5", "--alpha", "0.5",
            "--workers", "-3",
        )
        assert code == 2
        assert out == ""
        assert "--workers" in err

    def test_missing_claim_params(self, capsys):
        code, _, err = run(capsys, "check", "--theorem", "T2", "--n", "6", "--alpha", "0.5")
        assert code == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_order_above_cap_refused_before_any_work(self, capsys, monkeypatch, tmp_path, workers):
        from alpha_extremal import harness

        def never(g, cls):
            raise AssertionError("class_member called for an order above the cap")

        monkeypatch.setattr(harness, "class_member", never)
        out_dir = tmp_path / "reports"
        code, out, err = run(
            capsys, "check", "--theorem", "T2", "--s", "2", "--t", "3", "--n", "16",
            "--alpha", "0.5", "--workers", workers, "--out", str(out_dir),
        )
        assert code == 3
        assert out == ""
        assert "cap" in err
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_membership_once_per_class_and_order(self, capsys, monkeypatch, in_process_pool):
        from alpha_extremal import harness

        calls = []
        original = harness.class_member

        def counted(g, cls, new=None):
            calls.append((g, new))
            return original(g, cls, new)

        monkeypatch.setattr(harness, "class_member", counted)
        counts = {}
        prefix = {}
        for grid in ("0.25,0.5,0.75", "0.5"):
            for workers in ("1", "3"):
                calls.clear()
                code, _, _ = run(
                    capsys, "check", "--theorem", "T1", "--r", "3", "--n", "6",
                    "--alpha-grid", grid, "--workers", workers,
                )
                assert code == 0
                # The walk tests no graph twice, whatever the grid.
                walked = [harness.canonical_graph6(g) for g, new in calls if new is not None]
                assert len(walked) == len(set(walked))
                counts[grid, workers] = len(calls)
                prefix[grid, workers] = [g for g, _ in calls if g.n < 6]
        # The forests to order 5 whose descendants can reach a weight's
        # floor are tested alike at every worker count; at one worker, the
        # order-6 forests the bound order reaches and the gate lets through
        # are tested too, plus the floor witness. (Before each node carried a
        # bordered bound to its children: (21, 23) and (15, 17); while degree
        # sums were grown down: (17, 19) and (14, 16); before the walk read
        # only the children within the class's ceiling: (17, 19) and
        # (13, 15).) The three-weight prefix ends in three order-5 forests
        # (four before the ceiling), dealt to three shards; the one-weight
        # prefix ends in one, so no pool is opened for it.
        for grid in ("0.25,0.5,0.75", "0.5"):
            assert prefix[grid, "1"] == prefix[grid, "3"]
        assert in_process_pool == [3]
        assert (len(prefix["0.25,0.5,0.75", "1"]), counts["0.25,0.5,0.75", "1"]) == (11, 13)
        assert (len(prefix["0.5", "1"]), counts["0.5", "1"]) == (5, 7)

    def test_solves_cut_off_by_the_bound(self, capsys, monkeypatch, tmp_path):
        from alpha_extremal import harness

        calls = []
        original = harness.alpha_index

        def counted(g, a):
            calls.append(g)
            return original(g, a)

        monkeypatch.setattr(harness, "alpha_index", counted)
        outputs = []
        for workers in ("1", "2"):
            calls.clear()
            out_dir = tmp_path / f"w{workers}"
            code, out, _ = run(
                capsys, "check", "--theorem", "T1", "--r", "4", "--n", "8",
                "--alpha-grid", "0.25,0.75", "--workers", workers, "--out", str(out_dir),
            )
            assert code == 0
            outputs.append((out, {p.name: p.read_bytes() for p in out_dir.iterdir()}))
            if workers == "1":
                # 1,715 members at two weights; solving them all takes 3,430.
                # The degree-vector bound alone leaves 165 solves; tightened
                # by two power steps it leaves only each weight's maximizer,
                # after each weight's floor witness.
                assert len(calls) == 4
        assert outputs[0] == outputs[1]

    def test_infeasible_weight_fails_before_any_report(self, capsys, tmp_path):
        # T2 (2,3) has no construction at n = 8 (3 does not divide 7), and the
        # quadratic it falls back on needs n >= 10 at weight 0.25, so the grid
        # fails before the census and before the feasible 0.5 point is written.
        out_dir = tmp_path / "reports"
        code, _, err = run(
            capsys, "check", "--theorem", "T2", "--s", "2", "--t", "3", "--n", "8",
            "--alpha-grid", "0.5,0.25", "--workers", "1", "--out", str(out_dir),
        )
        assert code == 3
        assert "n >=" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_order_without_prediction_refused_before_any_census(
        self, capsys, monkeypatch, tmp_path, workers
    ):
        # n = 4 has a construction; n = 5 has none, and the quadratic it falls
        # back on needs n >= 10 at weight 0.25, so no order of the range is run.
        from alpha_extremal import harness

        def never(*args, **kwargs):
            raise AssertionError("census started before every order was predicted")

        monkeypatch.setattr(harness, "extremal_search", never)
        out_dir = tmp_path / "reports"
        code, out, err = run(
            capsys, "check", "--theorem", "T2", "--s", "2", "--t", "3", "--n-range", "4:8",
            "--alpha-grid", "0.25,0.5", "--workers", workers, "--out", str(out_dir),
        )
        assert code == 3
        assert out == ""
        assert "got n=5" in err
        assert not out_dir.exists()

    def test_construction_predicted_below_the_quadratic_order_minimum(self, capsys, tmp_path):
        # The quadratic refuses weight 0.1 at order 4, but the construction,
        # K_1 joined to one K_3, is K_4 with index 3.
        out_dir = tmp_path / "reports"
        code, out, _ = run(
            capsys, "check", "--theorem", "T2", "--s", "2", "--t", "3", "--n", "4",
            "--alpha", "0.1", "--workers", "1", "--out", str(out_dir),
        )
        assert code == 0
        assert "verdict=MATCH" in out
        report = json.loads((out_dir / "report_T2_s2t3_n4_a0.1.json").read_text())
        assert report["verdict"] == "MATCH"
        assert report["predicted_value"] == pytest.approx(3.0, abs=1e-12)

    def test_unusable_out_path_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        from alpha_extremal import harness

        def never(*args, **kwargs):
            raise AssertionError("census started for an unusable --out path")

        monkeypatch.setattr(harness, "extremal_search", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "check", "--theorem", "T1", "--r", "4", "--n", "8", "--alpha", "0.5",
            "--workers", "1", "--out", str(blocker / "reports"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def out_dir_digest(out_dir: Path) -> str:
    """SHA-256 of a --out directory: each file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


# The report files of `check --out` at grid points that the benchmark and
# earlier comparisons use, as out_dir_digest pins them.
REPORT_PINS = [
    pytest.param(
        ("--theorem", "T1", "--r", "4", "--n", "8", "--alpha-grid", "0.25,0.75"),
        "1a1861c85da4ca3f7c0ec9a65a7ecf96dc40ce3d4d03634f86c29b76358d7351", id="T1-r4-n8"),
    pytest.param(
        ("--theorem", "T2", "--s", "2", "--t", "3", "--n", "7", "--alpha", "0.5"),
        "f8f88ee9bdc234821420e3997101b9062c11a83c4cd5936814adfb5c9d9dcf0b", id="T2-s2t3-n7"),
    pytest.param(
        ("--theorem", "T3", "--degrees", "2,2", "--n", "8", "--alpha", "0.5"),
        "a6521b306b6731882d6cf9562835fedb28400ab42b61ea6e38b38fdee7e7f5de", id="T3-2,2-n8"),
    pytest.param(
        ("--theorem", "T3", "--degrees", "2,2", "--n", "9", "--alpha", "0.5"),
        "61aa69b6ec3a691bf632866eba184b211e53d8fcdbf908279089ce5bb27fef27", id="T3-2,2-n9"),
    pytest.param(
        ("--theorem", "T3", "--degrees", "2,2", "--n", "10", "--alpha", "0.5"),
        "3ab1f691e6776aab2860f7d98bd6fae3a761014d8b4cf0141c79cadda395b5a9", id="T3-2,2-n10"),
    pytest.param(
        ("--theorem", "T1", "--r", "3", "--n-range", "4:8", "--alpha-grid", "0.25,0.5,0.75"),
        "84f6306fa5cc8414d220b82efeab397caf50c5d07eaed8fdee572217f23b12d8", id="T1-r3-n4:8"),
    # d_k = 1: the complete split graph.
    pytest.param(
        ("--theorem", "T3", "--degrees", "1,1", "--n", "6", "--alpha-grid", "0.25,0.75"),
        "8cbca78875e18153a0e3a186c63a9a6f9ed0e49df47cccf6225cdf36edab2b3c", id="T3-1,1-n6"),
    # A 2-regular part.
    pytest.param(
        ("--theorem", "T3", "--degrees", "3,3", "--n", "7", "--alpha", "0.5"),
        "1c5b59c2e65badf3b9863e9478f272ea1bfdc0902116c5ff274ece0fa2e082f9", id="T3-3,3-n7"),
    # No 3-regular graph on 7 vertices: the quadratic's root is predicted.
    pytest.param(
        ("--theorem", "T3", "--degrees", "4,4", "--n", "8", "--alpha", "0.5"),
        "819ed224bb33e7cf2b8b56e458c5c54d2cc1c373500b61dbe6bb253b38fd670d", id="T3-4,4-n8"),
    # 3 does not divide n-s+1 = 7: the quadratic's root is predicted.
    pytest.param(
        ("--theorem", "T2", "--s", "2", "--t", "3", "--n", "8", "--alpha", "0.5"),
        "bf71c001195eeccf2909da57d89a6ac732d65cd6727fab4bf3cea7ef823d8ee5", id="T2-s2t3-n8"),
    # K5 membership through the branch-set search.
    pytest.param(
        ("--theorem", "T1", "--r", "5", "--n", "7", "--alpha-grid", "0.25,0.5,0.75"),
        "c694df6f657c00ea3411394981b36196bfa580b787b9d11c410bfb30205d98ac", id="T1-r5-n7"),
    # K5 membership at order 8, decided only for the leaves the bound order reaches.
    pytest.param(
        ("--theorem", "T1", "--r", "5", "--n", "8", "--alpha", "0.5"),
        "4f23741c76793d9599baaeadc11ed1e75500fa268cd51234b5538f3134d40bd4", id="T1-r5-n8"),
    # Minor classes at order 9, where the order-n leaves outnumber the nodes above them.
    pytest.param(
        ("--theorem", "T1", "--r", "4", "--n", "9", "--alpha-grid", "0.25,0.5,0.75"),
        "44b7a0c5a43474729b61e3770401b7b8cdf81a6131a0cbf63caba615c34020f9", id="T1-r4-n9"),
    pytest.param(
        ("--theorem", "T2", "--s", "2", "--t", "3", "--n", "9", "--alpha-grid", "0.5,0.75"),
        "fd3255661c19495965dc1dc6c6cf63fa690c2e20f1dca1e588bc8f6109969f99", id="T2-s2t3-n9"),
    # Branch-set searches at order 9, where the floor prunes most of the walk
    # (digests taken from a census that walked and decided every member node).
    pytest.param(
        ("--theorem", "T1", "--r", "5", "--n", "9", "--alpha", "0.5"),
        "3671c8553b74e6e4daa068f0ae470e16fd7f84cc7d5092246ea74732885c18e9", id="T1-r5-n9"),
    # No construction at n = 9: the floor is K2 joined to 3K3 less two part vertices.
    pytest.param(
        ("--theorem", "T2", "--s", "3", "--t", "3", "--n", "9", "--alpha", "0.5"),
        "17364df62353f2b4b97bb9cc5d71c87693389d56024ba613f3f80af5eacc1f5d", id="T2-s3t3-n9"),
    # Order 10 in classes whose min_degree_ceiling (1 or 2) cuts the walk most
    # (digests taken from a census that read every child of a node).
    pytest.param(
        ("--theorem", "T1", "--r", "3", "--n", "10", "--alpha-grid", "0.25,0.5,0.75"),
        "1034b956fd9ca28ec1bd81be74318b353a40778aba79629d6a1ffd848bae1a39", id="T1-r3-n10"),
    pytest.param(
        ("--theorem", "T1", "--r", "4", "--n", "10", "--alpha-grid", "0.25,0.5,0.75"),
        "7307e274c80032bac2022bb4d6494b3e5b1d2b5084115ea55c5ff6b225fcd4e9", id="T1-r4-n10"),
    pytest.param(
        ("--theorem", "T2", "--s", "2", "--t", "2", "--n", "10", "--alpha-grid", "0.25,0.5,0.75"),
        "b0686aafb6acf6a21d7501d5997c1981d3d091d5a0772b619561c2383edd780e", id="T2-s2t2-n10"),
]


class TestReportPins:
    """The report files of `check --out`, byte for byte: the JSON reports
    plus summary.csv."""

    @pytest.mark.parametrize("argv, digest", REPORT_PINS)
    def test_report_bytes(self, capsys, tmp_path, argv, digest):
        code, _, _ = run(capsys, "check", *argv, "--workers", "1", "--out", str(tmp_path))
        assert code == 0
        assert out_dir_digest(tmp_path) == digest

    # Censuses whose shards each walk and decide their own leaves: below the
    # order-6 prefix, or at n <= 6 below the order-(n-1) one. Each order
    # with more than one prefix node opens a pool of min(3, prefix nodes):
    # the floor leaves two order-4 prefix nodes at T1 r=3 n=5 and two order-5
    # ones at T3 (1,1) n=6, where every such pool was of 3 before each node
    # carried a bordered bound to its children.
    @pytest.mark.parametrize("argv, digest, pools", [
        pytest.param(*pin.values, pools, id=pin.id) for pin in REPORT_PINS
        for pin_id, pools in (("T1-r4-n8", [3]), ("T2-s2t3-n7", [3]), ("T3-2,2-n9", [3]),
                              ("T1-r3-n4:8", [2, 3, 3, 3]), ("T3-1,1-n6", [2]),
                              ("T1-r3-n10", [3]), ("T1-r4-n10", [3]), ("T2-s2t2-n10", [3]))
        if pin.id == pin_id
    ])
    def test_report_bytes_at_three_workers(self, capsys, tmp_path, in_process_pool, argv, digest,
                                           pools):
        code, _, _ = run(capsys, "check", *argv, "--workers", "3", "--out", str(tmp_path))
        assert code == 0
        assert in_process_pool == pools
        assert out_dir_digest(tmp_path) == digest

    # Order 1, walked from the order-0 root, the one prefix node. T2 has no
    # prediction at n = 1, so its census there is tested in test_harness.
    @pytest.mark.parametrize("argv, digest", [
        pytest.param(("--theorem", "T1", "--r", "3"),
                     "c03a48e147dfcb125e854bc6022dda314787367b65d97f4d851def14c27c3c50", id="T1-r3"),
        pytest.param(("--theorem", "T3", "--degrees", "1,1"),
                     "9dc6de1e203712cc920b991ad88e134b82c16af4e25f69213b115afd7100e283", id="T3-1,1"),
    ])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_order_one(self, capsys, tmp_path, in_process_pool, argv, digest, workers):
        code, out, _ = run(capsys, "check", *argv, "--n", "1", "--alpha-grid", "0.25,0.5,0.75",
                           "--workers", workers, "--out", str(tmp_path))
        assert code == 0
        assert out.count("verdict=MATCH witnesses=@\n") == 3
        assert in_process_pool == []
        assert out_dir_digest(tmp_path) == digest


class TestSweepCommand:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        assert "0 violations" in out

    def test_corrupt(self, capsys):
        code, out, _ = run(capsys, "sweep", "--corrupt", "0.2")
        assert code == 0
        assert "VIOLATION" in out

    @pytest.mark.parametrize("corrupt", ["-100", "inf", "nan"])
    def test_negative_or_non_finite_corrupt_is_parse_error(self, capsys, corrupt):
        # A negative value loosens every check, so the self-test would pass anything.
        code, out, err = run(capsys, "sweep", "--corrupt", corrupt)
        assert code == 2
        assert out == ""
        assert "--corrupt" in err

    def test_negative_samples_is_parse_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--samples", "-1")
        assert code == 2
        assert out == ""
        assert "--samples" in err


class TestBoundsCommand:
    def test_split_table_crossover(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--table", "split", "--n", "100", "--k", "3",
            "--alpha-grid", "0.1:0.9:0.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # header + 9 rows
        gaps = [float(line.split(",")[6]) for line in lines[1:]]
        # sign change exactly between 0.7 and 0.8 for k=3 (crossover 0.75)
        assert all(g > 0 for g in gaps[:7])
        assert all(g < 0 for g in gaps[7:])

    def test_split_reason_column(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--table", "split", "--n", "1", "--k", "3", "--alpha", "0.5"
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert "n >= k-1" in row

    def test_join_table(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--table", "join", "--n", "10", "--k", "2", "--d", "3",
            "--alpha", "0.5",
        )
        assert code == 0
        root = float(out.strip().splitlines()[1].split(",")[4])
        assert root == pytest.approx((7 + math.sqrt(13)) / 2, abs=1e-9)

    def test_q_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--table", "q", "--s", "2", "--t", "3", "--n", "10")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(7 + math.sqrt(13), abs=1e-9)
        assert float(row[3]) == pytest.approx(float(row[4]), abs=1e-9)

    def test_q_table_star_forest(self, capsys):
        code, out, _ = run(capsys, "bounds", "--table", "q", "--degrees", "3,3", "--n", "20")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "star_forest"
        assert float(row[3]) == pytest.approx(20.2462, abs=5e-5)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "bounds", "--table", "join", "--n", "12", "--k", "2", "--d", "3",
            "--alpha-grid", "0.3,0.5", "--out", str(target),
        )
        assert code == 0
        assert len(target.read_text().splitlines()) == 3

    def test_unusable_out_path_is_parse_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "bounds", "--table", "join", "--n", "12", "--k", "2", "--d", "3",
            "--alpha", "0.5", "--out", str(blocker / "table.csv"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
