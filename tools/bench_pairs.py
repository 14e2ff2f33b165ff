"""Before/after pairs of the benchmark, and one layer timing, for two git
revisions.

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD \
        --workloads orderings_web --seeds 11 12 13 14 15 16 17 18 19 20 \
        --out BENCH_46.json

Each revision is unpacked by `git archive` into a fresh temporary directory,
so neither tree holds a `__pycache__`, and every process runs with
PYTHONDONTWRITEBYTECODE=1.  For each workload and seed, each tree's own
`verdict_bench/run.py` runs once, for the `run_seconds` of BENCHMARK.json,
and the tree that goes first alternates from pair to pair.  At least ten
seeds are needed, so that a gain can be won in nine pairs of ten.  A run
whose result is not correct stops the script before anything is written.

The layer timing is `roots._halfline_witness` over the PART, OCC and VAR
numerators of the `repro` web (seed 20260809, 2,000 pairs), one pair per
seed, in a fresh process per tree; a name missing from a tree is reported
as missing.

The output holds, for each workload or layer and each metric, both sides'
medians and quartiles, and the pairs the change won.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LAYER = "roots._halfline_witness"
LAYER_REPEATS = 5
MIN_PAIRS = 10

# Run in a tree with its src/ first on the path: prints one JSON object.
LAYER_SCRIPT = f"""
import json, statistics, sys, time
from hardcore_lab import orderings, roots
from hardcore_lab.sampler import SplitMix64
need = [(orderings, "random_generating_pair"), (orderings, "_int_occ_numerator"),
        (orderings, "_int_var_certificate"), (roots, "_halfline_witness")]
missing = [m.__name__ + "." + n for m, n in need if not hasattr(m, n)]
if missing:
    print(json.dumps({{"missing": missing}}))
    sys.exit()
rng = SplitMix64(20260809)
cases = []
for _ in range(2000):
    p, q = orderings.random_generating_pair(rng)
    n = max(p.degree, q.degree)
    a = list(p.coeffs) + [0] * (n - p.degree)
    b = list(q.coeffs) + [0] * (n - q.degree)
    cases += [[x - y for x, y in zip(a, b)], orderings._int_occ_numerator(a, b),
              orderings._int_var_certificate(a, b)]
f = roots._halfline_witness
times = []
for _ in range({LAYER_REPEATS}):
    t = time.perf_counter()
    for cs in cases:
        f(cs)
    times.append(time.perf_counter() - t)
print(json.dumps({{"metrics": {{"pass_s": statistics.median(times)}}}}))
"""


def archive(rev: str, dest: Path) -> Path:
    """A fresh copy of the tree at rev under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return dest


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "verdict_bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} is not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in out["metrics"].items()}


def run_layer(tree: Path) -> dict:
    env = dict(_env(), PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPT], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out.get("metrics", {"missing": out.get("missing")})


def source_lines(tree: Path) -> int:
    return sum(1 for path in sorted((tree / "src" / "hardcore_lab").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(records: list[dict], better: dict[str, str]) -> dict:
    """Per name and metric: both sides' medians and quartiles, the pairs
    the change won and lost (ties count for neither), and whether that is a
    gain: won at least nine pairs in ten, with the medians further apart than
    the base's quartiles.  Each record is one pair, {"name", "seed", "first",
    "base": {metric: value}, "change": {metric: value}}; better maps each
    metric to "lower" or "higher"."""
    out: dict = {}
    for name in dict.fromkeys(r["name"] for r in records):
        pairs = [r for r in records if r["name"] == name]
        out[name] = {}
        for metric in pairs[0]["base"]:
            base = [r["base"][metric] for r in pairs]
            change = [r["change"][metric] for r in pairs]
            if not all(isinstance(v, (int, float)) for v in base + change):
                out[name][metric] = {"base": base, "change": change}
                continue
            sign = 1 if better.get(metric, "lower") == "lower" else -1
            won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
            lost = sum(sign * (b - c) < 0 for b, c in zip(base, change))
            bq, cq = _quartiles(base), _quartiles(change)
            bm, cm = statistics.median(base), statistics.median(change)
            out[name][metric] = {
                "better": better.get(metric, "lower"), "pairs": len(pairs),
                "base_median": bm, "base_quartiles": bq,
                "change_median": cm, "change_quartiles": cq,
                "won": won, "lost": lost,
                "gain": won >= 0.9 * len(pairs) and sign * (bm - cm) > bq[1] - bq[0],
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads", nargs="*", default=["orderings_web"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < MIN_PAIRS:
        parser.error(f"--seeds needs at least {MIN_PAIRS} seeds, one pair each")

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": archive(args.base, Path(tmp) / "base"),
                 "change": archive(args.change, Path(tmp) / "change")}
        jobs = [(w, seed, lambda tree, w=w, seed=seed: run_workload(tree, w, seed, seconds))
                for w in args.workloads for seed in args.seeds]
        jobs += [(LAYER, seed, run_layer) for seed in args.seeds]
        for i, (name, seed, job) in enumerate(jobs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            record = {"name": name, "seed": seed, "first": order[0]}
            for side in order:
                record[side] = job(trees[side])
            records.append(record)
            print(f"{name} {seed} {order[0]} first: done", file=sys.stderr)
        lines = {side: source_lines(tree) for side, tree in trees.items()}
    result = {
        "base": args.base, "change": args.change,
        "revisions": {side: subprocess.run(["git", "rev-parse", getattr(args, side)], cwd=REPO,
                                           capture_output=True, text=True,
                                           check=True).stdout.strip()
                      for side in ("base", "change")},
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "seconds": seconds, "seeds": args.seeds, "source_lines": lines,
        "summary": summarize(records, better), "pairs": records,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
