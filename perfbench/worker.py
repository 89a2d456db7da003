"""One benchmark process: set up one workload, run its rounds, check the outputs.

run.py starts this file in a fresh interpreter for every measured run and
every set-up sample. It prints ``READY`` once the program is imported and the
inputs are built (the end of set-up), then, unless ``--setup-only``, one JSON
line with the round timings, the operation counts, the check results and,
with ``--trace 1``, the per-layer figures.

With ``--trace 1`` the worker runs one untraced round, then one round with
the tracer installed on the program's public entry points, and requires the
two rounds' outputs to be byte-identical.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better) of every per-layer figure the traced run reports.
PER_LAYER = [
    ("enumeration.graphs", "count", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("canon.calls", "count", "lower"),
    ("canon.self_s", "s", "lower"),
    ("minors.calls", "count", "lower"),
    ("minors.self_s", "s", "lower"),
    ("minors.us_per_call", "us", "lower"),
    ("star_forests.calls", "count", "lower"),
    ("star_forests.self_s", "s", "lower"),
    ("spectral.solves", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.us_per_solve", "us", "lower"),
    ("spectral.sweeps_total", "count", "lower"),
    ("spectral.sweeps_max", "count", "lower"),
    ("spectral.residual_max", "1", "lower"),
    ("harness.member_ratio", "ratio", "higher"),
    ("harness.solves_per_member", "ratio", "lower"),
    ("harness.self_s", "s", "lower"),
    ("report.self_s", "s", "lower"),
]


def load_program() -> SimpleNamespace:
    """Import the program from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import alpha_extremal
    from alpha_extremal import cli, enumeration, harness, spectral

    if Path(alpha_extremal.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"alpha_extremal imported from {alpha_extremal.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, enumeration=enumeration, harness=harness,
                           spectral=spectral, Graph=alpha_extremal.Graph)


def install_layers(tracer, program) -> None:
    """Wrap each layer's entry points where the layer above calls them."""
    enumeration, harness, spectral, cli = (
        program.enumeration, program.harness, program.spectral, program.cli)

    def graph_yielded(t, _):
        t.count("enumeration.graphs")

    def solved(t, result):
        t.count("spectral.sweeps_total", result[2])
        t.maximum("spectral.sweeps_max", result[2])

    def spectral_result(t, result):
        t.maximum("spectral.residual_max", result.residual)

    def membership(t, member):
        t.count("harness.members", int(member))

    for name in ("enumerate_graphs_sharded", "enumerate_graphs"):
        tracer.install(enumeration, name, "enumeration", graph_yielded, generator=True)
    tracer.install(enumeration, "canonical_labeling_masks", "canon")
    tracer.install(enumeration, "orbits_from_generators", "canon")
    tracer.install(harness, "canonical_form", "canon")
    tracer.install(harness, "is_minor_free", "minors")
    tracer.install(harness, "is_star_forest_free", "star_forests")
    tracer.install(spectral, "jacobi_eigensystem", "spectral", solved)
    tracer.install(spectral, "alpha_index", "spectral", spectral_result)
    tracer.install(harness, "alpha_index", "spectral", spectral_result)
    tracer.install(harness, "quotient_alpha_index", "spectral")
    tracer.install(cli, "check_theorem", "harness")
    tracer.install(harness, "extremal_search", "harness")
    tracer.install(harness, "class_member", "harness", membership)
    tracer.install(cli, "reports_to_csv", "report")
    tracer.install(harness.VerificationReport, "to_json", "report")


def layer_figures(tracer) -> dict[str, float | None]:
    """Every PER_LAYER figure; None where no wrapper feeding it was reached."""
    def calls(wrapper):
        w = tracer.wrappers.get(wrapper)
        return w.calls if w is not None and w.calls else None

    def ratio(num, den, scale=1.0):
        return None if num is None or not den else scale * num / den

    out: dict[str, float | None] = {}
    for layer in ("enumeration", "canon", "minors", "star_forests", "spectral", "harness", "report"):
        calls_, self_s = tracer.layer(layer) or (None, None)
        out[f"{layer}.calls"] = calls_
        out[f"{layer}.self_s"] = self_s
    solves = calls("spectral.jacobi_eigensystem")
    tests = calls("harness.class_member")
    members = tracer.counters.get("harness.members") if tests else None
    out.update({
        "enumeration.graphs": tracer.counters.get("enumeration.graphs"),
        "minors.us_per_call": ratio(out["minors.self_s"], out["minors.calls"], 1e6),
        "spectral.solves": solves,
        "spectral.us_per_solve": ratio(out["spectral.self_s"], solves, 1e6),
        "spectral.sweeps_total": tracer.counters.get("spectral.sweeps_total") if solves else None,
        "spectral.sweeps_max": tracer.counters.get("spectral.sweeps_max") if solves else None,
        "spectral.residual_max": tracer.counters.get("spectral.residual_max"),
        "harness.member_ratio": ratio(members, tests),
        "harness.solves_per_member": ratio(calls("harness.alpha_index"), members),
    })
    return {name: out[name] for name, _, _ in PER_LAYER}


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_round(ops, after_op=None) -> dict:
    """Run every operation once; failures are counted, not raised."""
    outputs, failed = [], 0
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception:  # a failed operation is counted and the round goes on
            traceback.print_exc(file=sys.stderr)
            outputs.append(None)
            failed += op.points
        if after_op is not None:
            after_op(op)
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": cpu_seconds() - cpu0,
            "outputs": outputs, "failed": failed}


def digests(ops, rnd) -> list[str | None]:
    return [None if out is None else op.digest(out) for op, out in zip(ops, rnd["outputs"])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import build_ops

    program = load_program()
    ops = build_ops(args.workload, args.seed, program, args.out / "reports")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    rounds = [run_round(ops)]
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        install_layers(tracer, program)
        per_op, before = {}, tracer.snapshot()

        def after_op(op):
            nonlocal before
            now = tracer.snapshot()
            per_op[op.label] = {
                name: {"calls": calls - before.get(name, (0, 0.0))[0],
                       "self_s": self_s - before.get(name, (0, 0.0))[1]}
                for name, (calls, self_s) in now.items()
                if calls != before.get(name, (0, 0.0))[0]
            }
            before = now

        try:
            rounds.append(run_round(ops, after_op))
        finally:
            tracer.uninstall()
    else:
        # Start another round only if it should end within --seconds.
        while time.perf_counter() - start + rounds[-1]["wall_s"] <= args.seconds:
            rounds.append(run_round(ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    first = digests(ops, rounds[0])
    for i, rnd in enumerate(rounds[1:], 1):
        if digests(ops, rnd) != first:
            errors.append(f"round {i} outputs differ from round 0"
                          + (" (traced against untraced)" if tracer else ""))
    for op, out in zip(ops, rounds[-1]["outputs"]):
        if out is not None:
            errors += [f"{op.label}: {e}" for e in op.check(out)]

    result = {
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "failed")} for r in rounds],
        "attempted": len(rounds) * sum(op.points for op in ops),
        "failed": sum(r["failed"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "ops": [op.label for op in ops],
        "digests": first,
    }
    if tracer is not None:
        result["layers"] = layer_figures(tracer)
        result["wrappers"] = tracer.wrapper_table()
        result["per_op"] = per_op
        result["trace_overhead"] = rounds[1]["wall_s"] / rounds[0]["wall_s"] - 1.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
