"""Every demo script runs to completion against the library in `src/` and
prints what it printed when pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The sha256 of each demo's stdout.  The demos print verdicts and exact
# values, so these move only when a printed number does.  They hold on this
# platform, x86-64 Linux with CPython 3.11: the Lambert-W seed of the
# certified enclosures comes from libm floats, and the sampling demo prints
# float estimates.
STDOUT_SHA256 = {
    "bounds_tour.py": "74ab459e0a59b6a47b05febb8d19f1618bea4419571496a3483c422e21c4f42e",
    "certified_numerics.py": "0f60d24bd4dca90af7c4b5f5aaf43a95adcffa2ac61cc812981b4e0a844c8db6",
    "orderings_tour.py": "56c45e78b5795ea164775a1e6b3c31f6e91acf89c9482cbe4ca4de4025846453",
    "partition_functions.py": "cf02026b6f366bbb5ef7944576b51007c8bf714e200b69a39b1d5287dd80f1d1",
    "sampling.py": "4b13e655614efd9a27de43bbf921fb6305959775373f15bae1d6f58d274a7070",
    "series_identities.py": "2801ba69b7cf4ff311debf1af1ff753253ef2a6823b576fdb75ca427b2a943c6",
}


def test_demos_are_found():
    assert DEMOS
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
