"""Benchmark of the alpha-extremal toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

Run from the root of a checkout. Each run starts worker.py in fresh
single-threaded processes: one that runs whole rounds of the workload for up
to --seconds (at least one round) and checks every output against
oracles.py, and SETUP_SAMPLES that only set up (their median, with the
measured process's own, is setup_s). The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer figures with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PER_LAYER, ROOT, SRC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 20
SETUP_SAMPLES = 8
TIMEOUT_S = 170

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric before it counts as a regression.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ALPHA_EXTREMAL_CAP", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(args.out), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def layer_table(res: dict) -> list[str]:
    lines = []
    for name, unit, _ in PER_LAYER:
        value = res["layers"][name]
        lines.append(f"  {name:28s} {'missing' if value is None else f'{value!r} {unit}'}")
    lines.append("wrappers:")
    for name, stats in res["wrappers"].items():
        if isinstance(stats, str):
            lines.append(f"  {name:40s} {stats}")
        else:
            lines.append(f"  {name:40s} {stats['calls']:9d} calls  self {stats['self_s']:.3f} s")
    for label, wrappers in res["per_op"].items():
        lines.append(f"{label}:")
        lines += [f"  {name:40s} {s['calls']:9d} calls  self {s['self_s']:.3f} s"
                  for name, s in sorted(wrappers.items())]
    lines.append(f"tracing overhead: {100 * res['trace_overhead']:+.1f}% of the untraced round's wall time")
    return ["per-layer figures (one traced round):", *lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "alpha_extremal" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    args.out = HERE / "out" / args.workload
    args.out.mkdir(parents=True, exist_ok=True)

    def setup_sample() -> float:
        proc, setup_s = start_worker(args, ["--setup-only"])
        finish(proc)
        return setup_s

    shutil.rmtree(args.out / "reports", ignore_errors=True)
    try:
        # Set-up samples before and after the measured process, so that
        # setup_s sees the machine over the whole run.
        setups = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        proc, setup_s = start_worker(args, [])
        setups.append(setup_s)
        res = json.loads(finish(proc).splitlines()[-1])
        setups += [setup_sample() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for err in res["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": res["layers"][name] or 0, "unit": unit}
                   for name, unit, _ in PER_LAYER}
        (args.out / f"trace-seed{args.seed}.json").write_text(json.dumps(res, indent=2) + "\n")
        print("\n".join(layer_table(res)))
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in res["rounds"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in res["rounds"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} round(s) of "
          f"{len(res['ops'])} command(s); setup samples {[round(s, 4) for s in setups]}")
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
