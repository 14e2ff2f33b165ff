"""Record pins.json: the digests the benchmark compares outputs against.

- orderings_web: for each pool seed 0..ORDERINGS_POOL-1, the sha256 of every
  verdict, witness and margin of that seed's random pairs, in pair order;
- sampler_xval: for each pinned cross-validation case, the sha256 of its
  report at the benchmark's step count and burn-in.

These are regression pins, not independent references: they were recorded
once, at the commit that introduced the benchmark, and must not be
re-recorded to make a later commit pass.  Run from the repository root:

    python3 verdict_bench/record_pins.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from worker import import_library  # noqa: E402


def main() -> int:
    lib = import_library()
    orderings = []
    for pool_seed in range(wl.ORDERINGS_POOL):
        outputs = [lib.orderings.implication_web_check(lib.polynomials.Poly(p),
                                                       lib.polynomials.Poly(q))
                   for p, q in wl.random_pairs(pool_seed)]
        orderings.append(wl.verdicts_digest(outputs))
    sampler = {}
    for spec, lam, seed in lib.sampler.CROSS_VALIDATION_CASES:
        rep = lib.sampler.estimate(lib.graphs.generate(spec), Fraction(lam), wl.SAMPLER_STEPS,
                                   wl.SAMPLER_BURN_IN, seed=seed)
        sampler[wl.SamplerXval.case_key(spec, lam, seed)] = wl.report_digest(rep)
    pins = {"orderings_web": orderings, "sampler_xval": sampler}
    wl.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
