"""One workload in one fresh process: import the library from the checkout,
make the inputs from the seed, run the timed pass, then check every op.

Prints one JSON object on stdout.  run.py starts this process; it is not
meant to be run by hand, though it can be:

    python3 verdict_bench/worker.py --workload orderings_web --seed 1 --rounds 1
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Each op's latency is its median over the rounds, so with three rounds one
# slow sample cannot move it.
MIN_ROUNDS = 3
LIBRARY_MODULES = ("graphs", "polynomials", "roots", "verdict", "intervals", "hardcore",
                   "corpus", "orderings", "bounds", "sampler")


def import_library() -> SimpleNamespace:
    """Import hardcore_lab from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("hardcore_lab")
    location = Path(package.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"hardcore_lab imported from {location}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"hardcore_lab.{name}")
                              for name in LIBRARY_MODULES})


def run_round(workload, tracer=None, speed=None) -> tuple[list, float]:
    """Run one round; return every op's result and the round's wall time.
    Only op calls and round glue are inside the clock.  With a SpeedTrack,
    the calibration kernel runs between ops; its time is left out of the
    round's wall time."""
    from workloads import Result

    results = []
    clock = time.perf_counter
    start = clock()
    probed = speed.spent if speed is not None else 0.0
    for op in workload.round_ops():
        if speed is not None:
            speed.maybe_sample()
        t0 = clock()
        try:
            if tracer is None:
                out = op.run()
            else:
                out = tracer.span(f"op.{op.kind}", op.run)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            results.append(Result(op, clock() - t0, t0,
                                  error=f"{type(exc).__name__}: {exc}"))
            continue
        results.append(Result(op, clock() - t0, t0, output=out))
    if speed is not None:
        speed.sample()  # so that the round's last ops have a probe after them
        probed = speed.spent - probed
    return results, clock() - start - probed


def check_round(workload, results: list) -> None:
    """Run every op's check; an exception or a mismatch fails that op only.
    Outputs are dropped afterwards, so rounds do not pile up in memory."""
    from workloads import CheckFailed

    for r in results:
        if r.error is None:
            try:
                r.inconclusive = bool(r.op.inconclusive(r.output))
                r.note = r.op.check(r.output)
            except CheckFailed as exc:
                r.error = f"check failed: {exc}"
            except Exception:
                r.error = "check raised: " + traceback.format_exc(limit=3).replace("\n", " ")
    round_check = getattr(workload, "round_check", None)
    if round_check is not None:
        round_check(results)
    for r in results:
        r.output = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="rounds to run (default: from --seconds and the nominal round)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--speed", action="store_true",
                        help="time the calibration kernel between ops (speed.py) and "
                             "report each op's latency scaled to the reference speed")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under -O: the library's own asserts would vanish",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    lib = import_library()
    workload = WORKLOADS[args.workload](lib, args.seed)
    if args.setup_only:
        return 0
    # Nothing before the timed pass may have enumerated graphs.
    cold = lib.corpus.all_graphs.cache_info().currsize == 0

    rounds = args.rounds or max(MIN_ROUNDS, round(args.seconds / workload.nominal_round_s))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    speed = None
    if args.speed:
        from speed import SpeedTrack
        speed = SpeedTrack()
    per_round, walls = [], []
    for i in range(rounds):
        if tracer is not None:
            tracer.install()  # only around the ops, never around the checks
        try:
            round_results, wall = run_round(workload, tracer, speed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if i == 0:
            # Rounds are identical, so the first one sets the peak; read it
            # before any check allocates.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_round(workload, round_results)
        # Each round ran in its own order; line them up by op for the medians.
        per_round.append(sorted(round_results, key=lambda r: r.op.index))
        walls.append(wall)
    results = [r for round_results in per_round for r in round_results]
    for r in results:
        r.scaled = r.seconds if speed is None else r.seconds * speed.factor(r.at + r.seconds / 2)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "round_walls_s": walls,
        "cold_start": cold,
        "peak_rss_kb": peak_rss_kb,
        "ops": [[[r.op.kind, r.seconds, r.error is None, r.inconclusive,
                  r.scaled] for r in round_results]
                for round_results in per_round],
        "probe_s": speed.seconds if speed is not None else [],
        "errors": [f"{r.op.kind} {r.op.label}: {r.error}" for r in results if r.error][:20],
        "notes": {r.op.label: r.note for r in results if r.note},
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["patched"] = tracer.patched
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
