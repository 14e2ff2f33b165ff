"""Time-to-verdict benchmark for hardcore-lab.

Runs one workload in fresh single-threaded Python processes, checks every
op's output against a reference, and prints a report whose last line is one
JSON object.  Run from the repository root:

    python3 verdict_bench/run.py --workload engine_sparse --seed 1 --seconds 12 --trace 0

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from an extra traced process.  Workloads, metrics and
the layer table are described in verdict_bench/WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOAD_NAMES = ("engine_sparse", "small_graph_sweep", "orderings_web", "certified_tf",
                  "sampler_xval")
SETUP_PROBES = 5
BUDGET_S = 170.0


def fail(message: str) -> int:
    print(f"verdict_bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run the worker to completion; subprocess.run kills and reaps it if the
    deadline passes."""
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def run_worker(args: list[str], deadline: float) -> dict:
    proc = spawn(args, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(base: list[str], deadline: float) -> tuple[list[float], list[float]]:
    """Wall time of processes that only start, import and generate inputs,
    raw and scaled to the reference speed by the calibration kernel timed
    just before and after each.  One unmeasured probe first fills the
    bytecode and file caches."""
    from speed import REFERENCE_S, probe

    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        before = probe(5)
        t0 = time.perf_counter()
        proc = spawn([*base, "--setup-only"], deadline)
        elapsed = time.perf_counter() - t0
        after = probe(5)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return raw, scaled


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it:
    (value, percentile, ops beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def source_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "hardcore_lab").glob("*.py")):
        total += sum(1 for line in path.read_text().splitlines() if line.strip())
    return total


def op_latencies(rounds: list[list], field: int) -> list[float]:
    """Each distinct op's median latency over the run's rounds (the worker
    lines them up by op), so that a burst of machine noise in one round, or
    the first round's warm-up, moves no figure.  Rounds whose shape differs (an enumeration op
    failed) are pooled instead.  `field` picks the raw (1) or the scaled (4)
    latency of an op."""
    if len({len(r) for r in rounds}) != 1:
        return [op[field] for r in rounds for op in r]
    return [statistics.median(samples)
            for samples in zip(*([op[field] for op in r] for r in rounds))]


def end_to_end(run: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    from speed import REFERENCE_S

    ops = [op for round_ops in run["ops"] for op in round_ops]
    failed = sum(1 for op in ops if not op[2])
    inconclusive = sum(1 for op in ops if op[3])
    latencies = op_latencies(run["ops"], 4)
    raw = op_latencies(run["ops"], 1)
    tail_s, tail_pct, beyond = tail(latencies)
    setup_raw, setup_scaled = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        "ok_ratio": (1 - failed / len(ops), "ratio"),
        "conclusive_ratio": (1 - inconclusive / len(ops), "ratio"),
    }
    lines = [
        f"ops {len(ops)} in {run['rounds']} round(s); round walls s "
        + " ".join(f"{t:.3f}" for t in run["round_walls_s"]),
        f"latencies: {len(latencies)} ops, each its median over the rounds; op_tail_ms is "
        f"p{tail_pct:.2f} ({beyond} ops beyond it)",
        f"fail_ratio {failed / len(ops):.6f} ({failed} failed)",
        f"inconclusive_ratio {inconclusive / len(ops):.6f} ({inconclusive} inconclusive)",
        f"times are scaled to the reference speed: calibration kernel (speed.py) "
        f"{1000 * REFERENCE_S:.3f} ms; it took {1000 * statistics.median(run['probe_s']):.3f} ms "
        f"(median of {len(run['probe_s'])} probes, range "
        f"{1000 * min(run['probe_s']):.3f}-{1000 * max(run['probe_s']):.3f}) in this run",
        f"unscaled wall time: setup_s {statistics.median(setup_raw):.4f} ops_per_s "
        f"{len(raw) / sum(raw):.4f} op_p50_ms {1000 * statistics.median(raw):.4f} "
        f"op_tail_ms {1000 * tail(raw)[0]:.4f}",
        "setup probes s (scaled): " + " ".join(f"{t:.4f}" for t in setup_scaled),
    ]
    z = [note for note in run["notes"].values() if "z_mean" in note]
    if z:
        lines.append(f"sampler |z| against exact nE, nV: max {max(n['z_mean'] for n in z):.3f}, "
                     f"{max(n['z_var'] for n in z):.3f} over {len(z)} reports")
    return metrics, lines


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    from tracing import layer_metric_names

    summary = traced["trace"]
    wall = sum(traced["round_walls_s"])
    untraced_round = untraced["round_walls_s"][0]
    steps = summary["counts"].get("sampler.estimate.steps", 0)
    estimate_s = summary["self_s"].get("sampler.estimate", 0.0)
    derived = {
        "bounds.interval_le.rounds": summary["counts"].get("bounds.interval_le.rounds", 0),
        "sampler.estimate.steps_per_s": steps / estimate_s if estimate_s else 0.0,
        "trace.overhead_s": wall - untraced_round,
        "trace.wall_s": wall,
        "trace.top_self_share": summary["top_s"] / wall,
    }
    metrics = {}
    for name, unit in layer_metric_names():
        if name in derived:
            value = derived[name]
        else:
            span, _, field = name.rpartition(".")
            value = summary["calls" if field == "calls" else "self_s"].get(span, 0)
        metrics[name] = (value, unit)
    own = sorted((s, n) for n, s in summary["self_s"].items() if n.startswith("op."))
    lines = [
        f"traced one round: {summary['spans']} spans, wall {wall:.3f} s, "
        f"top-level spans {summary['top_s']:.3f} s; untraced round {untraced_round:.3f} s",
        "op span self s (untraced library code and benchmark glue): "
        + ", ".join(f"{n} {s:.4f}" for s, n in own),
        f"bindings patched ({len(summary['patched'])}): " + " ".join(summary["patched"]),
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOAD_NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if not (ROOT / "src" / "hardcore_lab" / "__init__.py").is_file():
        return fail(f"no hardcore_lab sources under {ROOT / 'src'}; run from a full checkout")
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            # One round each: the overhead compares the two processes' rounds.
            untraced = run_worker([*base, "--rounds", "1"], deadline)
            traced = run_worker([*base, "--rounds", "1", "--trace"], deadline)
            runs = [untraced, traced]
            metrics, lines = per_layer(untraced, traced)
        else:
            untraced = run_worker([*base, "--seconds", str(args.seconds), "--speed"], deadline)
            runs = [untraced]
            metrics, lines = end_to_end(untraced, setup_seconds(base, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        return fail(str(exc))

    ops = [op for r in runs for round_ops in r["ops"] for op in round_ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[2])
    print(f"# verdict_bench {args.workload} seed {args.seed} trace {args.trace} | "
          f"python {platform.python_version()} | nproc {len(os.sched_getaffinity(0))} | "
          f"src/hardcore_lab non-blank lines {source_lines()}")
    for line in lines:
        print(f"# {line}")
    if not all(r["cold_start"] for r in runs):
        print("# WARNING: all_graphs cache was not empty at process start")
    for r in runs:
        for err in r["errors"]:
            print(f"# FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0 and all(r["cold_start"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
