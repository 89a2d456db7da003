"""Command-line surface for the alpha-index toolkit.

Subcommands: alpha-index (spectral computation for one graph), enumerate
(isomorph-free graph6 stream), check (exhaustive claim verification over
parameter grids, JSON/CSV reports), sweep (closed-form inequality sweeps),
and bounds (plot-ready CSV tables of bound curves).

Exit codes: 0 success (also when the reader of stdout stops early), 2 parse
errors (bad or missing flags, malformed graph6 or grid syntax, a non-finite
weight, a weight repeated as a float (two decimals that round to one float
are one weight), a range grid of more than MAX_GRID_POINTS weights, an --out
path that cannot be created, a negative --workers or --samples, a negative
or non-finite --corrupt), 3 domain errors (infeasible parameters, an order
above the enumeration cap, violated preconditions) and eigensolver
non-convergence.
Weights are parsed as decimal strings and echoed verbatim in file names so
reports never drift across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from functools import partial
from pathlib import Path

from .bounds import (
    StarForestSpec,
    biclique_q_bound,
    clique_join_quadratic,
    complete_split_lower_bounds,
    complete_split_quadratic,
    lower_bound_gap,
    star_forest_q_bound,
)
from .enumeration import check_order, enumerate_graphs
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import (
    CliqueJoinCliques,
    CliqueJoinMatching,
    CliqueJoinRegular,
    CompleteSplit,
    construct,
)
from .harness import (
    BicliqueMinorFree,
    CliqueMinorFree,
    ForbiddenClass,
    StarForestFree,
    check_theorem,
    reports_to_csv,
    sweep_inequalities,
)
from .spectral import ConvergenceError, alpha_index


MAX_GRID_POINTS = 10_000


class CliParseError(ValueError):
    """Malformed command-line value (exit code 2)."""


@contextmanager
def _creating_out():
    """An --out path that cannot be created is a parse error."""
    try:
        yield
    except OSError as exc:
        raise CliParseError(f"cannot create --out path {exc.filename}: {exc.strerror}") from exc


def _parse_decimal(text: str) -> str:
    try:
        finite = Decimal(text).is_finite()
    except InvalidOperation as exc:
        raise CliParseError(f"not a decimal number: {text!r}") from exc
    if not finite:
        raise CliParseError(f"not a finite decimal number: {text!r}")
    return text


def parse_alpha_grid(spec: str) -> list[str]:
    """Weight grid: comma list ("0.25,0.5") or start:stop:step ("0.1:0.9:0.2").

    Values are kept as the decimal strings the user wrote (grid stepping is
    exact decimal arithmetic), so reports echo them without float drift. A
    range is counted before it is built and refused above MAX_GRID_POINTS.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliParseError(f"grid syntax is start:stop:step, got {spec!r}")
        try:
            start, stop, step = (Decimal(p) for p in parts)
        except InvalidOperation as exc:
            raise CliParseError(f"bad decimal in grid {spec!r}") from exc
        if not all(d.is_finite() for d in (start, stop, step)):
            raise CliParseError(f"grid {spec!r} is not finite")
        if step <= 0:
            raise CliParseError("grid step must be positive")
        try:
            count = int((stop - start) // step) + 1 if stop >= start else 0
        except InvalidOperation:
            count = MAX_GRID_POINTS + 1
        if count > MAX_GRID_POINTS:
            raise CliParseError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        out = []
        cur = start
        for _ in range(count):
            out.append(str(cur.normalize()))
            cur += step
    else:
        out = [_parse_decimal(p.strip()) for p in spec.split(",") if p.strip()]
    if not out:
        raise CliParseError(f"grid {spec!r} is empty")
    if len({float(Decimal(p)) for p in out}) < len(out):  # as the floats handed on
        raise CliParseError(f"grid {spec!r} repeats a weight")
    return out


def parse_n_values(args) -> list[int]:
    if args.n is not None and args.n_range:
        raise CliParseError("give --n or --n-range, not both")
    if args.n is not None:
        return [args.n]
    if args.n_range:
        parts = args.n_range.split(":")
        if len(parts) != 2:
            raise CliParseError(f"range syntax is first:last, got {args.n_range!r}")
        try:
            first, last = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise CliParseError(f"bad integer in range {args.n_range!r}") from exc
        if last < first:
            raise CliParseError(f"empty range {args.n_range!r}")
        return list(range(first, last + 1))
    raise CliParseError("one of --n or --n-range is required")


def parse_alphas(args) -> list[str]:
    if args.alpha is not None and args.alpha_grid:
        raise CliParseError("give --alpha or --alpha-grid, not both")
    if args.alpha is not None:
        return [_parse_decimal(args.alpha)]
    if args.alpha_grid:
        return parse_alpha_grid(args.alpha_grid)
    raise CliParseError("one of --alpha or --alpha-grid is required")


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise CliParseError(f"bad degree list {text!r}") from exc
    if not degrees:
        raise CliParseError("empty degree list")
    return degrees


def _construction_from_args(args) -> object:
    family = args.family
    def need(name):
        value = getattr(args, name)
        if value is None:
            raise CliParseError(f"--family {family} needs --{name}")
        return value
    if family == "split":
        return CompleteSplit(need("n"), need("m"))
    if family == "cliques":
        return CliqueJoinCliques(need("n"), need("s"), need("t"), need("p"))
    if family == "matching":
        return CliqueJoinMatching(need("n"), need("k"))
    if family == "regular":
        return CliqueJoinRegular(need("n"), need("k"), need("d"))
    raise CliParseError(f"unknown family {family!r}")


def _claim_from_args(args) -> ForbiddenClass:
    if args.theorem == "T1":
        if args.r is None:
            raise CliParseError("--theorem T1 needs --r")
        return CliqueMinorFree(args.r)
    if args.theorem == "T2":
        if args.s is None or args.t is None:
            raise CliParseError("--theorem T2 needs --s and --t")
        return BicliqueMinorFree(args.s, args.t)
    if args.degrees is None:
        raise CliParseError("--theorem T3 needs --degrees")
    return StarForestFree(StarForestSpec(_parse_degrees(args.degrees)))


# -- subcommand bodies ---------------------------------------------------


def _cmd_alpha_index(args) -> int:
    if (args.g6 is None) == (args.family is None):
        raise CliParseError("give exactly one of --g6 or --family")
    if args.g6 is not None:
        g = decode_graph6(args.g6)
    else:
        g = construct(_construction_from_args(args))
    result = alpha_index(g, float(Decimal(_parse_decimal(args.alpha))))
    if args.format == "json":
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(f"order {g.n}, {g.edge_count()} edges")
        print(f"alpha index = {result.alpha_index!r}")
        print(f"residual    = {result.residual:.3e}")
        print(f"sweeps      = {result.sweeps}")
    return 0


def _cmd_enumerate(args) -> int:
    check_order(args.n)
    lines = (encode_graph6(g) for g in enumerate_graphs(args.n))
    if args.out:
        with _creating_out():
            fh = open(args.out, "w", encoding="ascii")
        with fh:
            for line in lines:
                fh.write(line + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_check(args) -> int:
    cls = _claim_from_args(args)
    orders = parse_n_values(args)
    alphas = parse_alphas(args)
    if args.workers < 0:
        raise CliParseError(f"--workers must be >= 0, got {args.workers}")
    for n in orders:
        check_order(n)
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        with _creating_out():
            out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    weights = [float(Decimal(alpha_str)) for alpha_str in alphas]
    for n in orders:
        found = check_theorem(cls, n, weights, workers=workers)
        reports.extend(found)
        if out_dir:
            for alpha_str, rep in zip(alphas, found):
                name = f"report_{cls.tag}_n{n}_a{alpha_str}.json"
                (out_dir / name).write_text(rep.to_json(), encoding="ascii")
    csv_text = reports_to_csv(reports)
    if out_dir:
        (out_dir / "summary.csv").write_text(csv_text, encoding="ascii")
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        print(csv_text, end="")
    else:
        for rep in reports:
            line = (
                f"{cls.claim} {rep.class_label} n={rep.n} alpha={rep.alpha}: "
                f"max={rep.exhaustive_max!r} predicted={rep.predicted_value!r} "
                f"verdict={rep.verdict} witnesses={','.join(rep.witnesses)}"
            )
            print(line)
    return 0


def _cmd_sweep(args) -> int:
    if args.samples < 0:
        raise CliParseError(f"--samples must be >= 0, got {args.samples}")
    if not 0 <= args.corrupt < math.inf:  # also refuses nan
        raise CliParseError(f"--corrupt must be finite and >= 0, got {args.corrupt}")
    report = sweep_inequalities(corrupt=args.corrupt, seed=args.seed, samples=args.samples)
    print(report.summary())
    return 0


def _bounds_rows(args) -> tuple[list[str], list[list[str]]]:
    """The table's header and one row per point: the point's key cells, its
    values (floats in repr, None as empty) and an empty reason, or, when the
    values raise ValueError, empty value cells and the error as the reason."""
    n, k, d = args.n, args.k, args.d
    if args.table == "split":
        if n is None or k is None:
            raise CliParseError("--table split needs --n and --k")
        header = ["alpha", "n", "k", "lower_bound_1", "lower_bound_2", "largest_root", "gap", "reason"]
        keys = [str(n), str(k)]

        def values(a):
            return [*complete_split_lower_bounds(n, k, a),
                    complete_split_quadratic(n, k, a).largest_root, lower_bound_gap(k, a)]
    elif args.table == "join":
        if n is None or k is None or d is None:
            raise CliParseError("--table join needs --n, --k and --d")
        header = ["alpha", "n", "k", "d", "largest_root", "reason"]
        keys = [str(n), str(k), str(d)]

        def values(a):
            return [clique_join_quadratic(n, k, d, a).largest_root]
    if args.table != "q":
        points = [([a, *keys], partial(values, float(Decimal(a)))) for a in parse_alphas(args)]
    else:
        if n is None:
            raise CliParseError("--table q needs --n")
        header = ["n", "family", "parameters", "q_bound", "twice_join_root", "reason"]
        points = []
        if args.s is not None and args.t is not None:
            s, t = args.s, args.t
            points.append(([str(n), "biclique", f"s={s};t={t}"], lambda: [
                biclique_q_bound(n, s, t), 2 * clique_join_quadratic(n, s, t, 0.5).largest_root]))
        if args.degrees is not None:
            spec = StarForestSpec(_parse_degrees(args.degrees))
            points.append(([str(n), "star_forest", spec.label()], lambda: [
                star_forest_q_bound(n, spec),
                2 * clique_join_quadratic(n, spec.k, spec.min_degree, 0.5).largest_root]))
        if not points:
            raise CliParseError("--table q needs --s/--t or --degrees")
    rows = []
    for key_cells, compute in points:
        try:
            cells, reason = ["" if x is None else repr(float(x)) for x in compute()], ""
        except ValueError as exc:
            cells, reason = [""] * (len(header) - len(key_cells) - 1), str(exc)
        rows.append(key_cells + cells + [reason])
    return header, rows


def _cmd_bounds(args) -> int:
    header, rows = _bounds_rows(args)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with _creating_out():
            Path(args.out).write_text(text, encoding="ascii")
    else:
        print(text, end="")
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpha-extremal",
        description="alpha-index toolkit: spectra, extremal constructions, bounds, exhaustive checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha-index", help="alpha index of one graph")
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--family", choices=["split", "cliques", "matching", "regular"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_alpha_index)

    p = sub.add_parser("enumerate", help="isomorph-free graph6 stream of all order-n graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="exhaustively verify an extremal claim on a grid")
    p.add_argument("--theorem", choices=["T1", "T2", "T3"], required=True)
    p.add_argument("--r", type=int, help="clique order for T1")
    p.add_argument("--s", type=int, help="small side for T2")
    p.add_argument("--t", type=int, help="large side for T2")
    p.add_argument("--degrees", help="comma list of star degrees for T3")
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", dest="n_range")
    p.add_argument("--alpha")
    p.add_argument("--alpha-grid", dest="alpha_grid")
    p.add_argument("--workers", type=int, default=0, help="0 = machine parallelism")
    p.add_argument("--out", help="directory for per-point JSON reports and summary.csv")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="run every closed-form inequality sweep")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="tighten every bound by this much (self-test)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=3)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="plot-ready CSV tables of bound curves")
    p.add_argument("--table", choices=["split", "join", "q"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--degrees")
    p.add_argument("--alpha")
    p.add_argument("--alpha-grid", dest="alpha_grid")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (`| head`): send the unflushed rest to
        # /dev/null so the interpreter's exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CliParseError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
