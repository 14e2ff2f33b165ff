"""Tests of the benchmark itself (not of the library).  Run from the
repository root:

    python3 -m pytest -q verdict_bench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import check_round, import_library, run_round  # noqa: E402

LIB = import_library()


def _results(workload):
    results, _ = run_round(workload)
    check_round(workload, results)
    return results


class _Trimmed:
    """A workload cut down to its first few ops, for fast tests."""

    def __init__(self, inner, keep):
        self.inner = inner
        self.keep = keep

    def round_ops(self):
        ops = self.inner.round_ops()
        return [op for op, _ in zip(ops, range(self.keep))]


# -- failure isolation ------------------------------------------------------------

def test_wrong_reference_fails_only_that_op():
    w = wl.EngineSparse(LIB, 1)
    g, _ = w.z_inputs[0]
    w.z_inputs = w.z_inputs[:2]
    w.z_inputs[0] = (g, lambda: ref.path_z(g.n + 1))  # a wrong closed form
    w.profile_inputs = []
    results = {r.op.label: r for r in _results(w)}
    assert "closed-form reference disagrees" in results[g.label].error
    assert [r.error for label, r in results.items() if label != g.label] == [None]


def test_wrong_pinned_digest_fails_the_ops_it_covers():
    w = wl.SamplerXval(LIB, 1)
    w.cases = w.cases[:2]
    first_key = w.case_key(*w.cases[0][:3])
    w.expected = dict(w.expected, **{first_key: "0" * 64})
    second_key = w.case_key(*w.cases[1][:3])
    results = {r.op.label: r.error is None for r in _results(w)}
    assert results == {first_key: False, second_key: True}


def test_round_digest_mismatch_fails_every_random_pair():
    w = wl.OrderingsWeb(LIB, 1)
    w.pairs = w.pairs[:3]  # the pinned digest covers all 4096 pairs
    results = _results(w)
    lemmas = [r for r in results if r.op.kind == "web.lemma"]
    pairs = [r for r in results if r.op.kind == "web.random"]
    assert len(pairs) == 3 and all("round digest differs" in r.error for r in pairs)
    assert all(r.error is None for r in lemmas)


def test_op_that_raises_is_a_failed_op_not_a_crash():
    def boom():
        raise RuntimeError("residual cache exceeded")

    class Raising:
        def round_ops(self):
            yield wl.Op("x", "raises", boom, lambda out: None)
            yield wl.Op("x", "fine", lambda: 1, lambda out: wl.expect(out == 1, "one"))

    results = _results(Raising())
    assert results[0].error.startswith("RuntimeError") and results[1].error is None


def test_variance_routes_are_compared_by_the_benchmark():
    w = wl.EngineSparse(LIB, 1)
    w.z_inputs = []
    w.profile_inputs = w.profile_inputs[:1]
    (result,), _ = run_round(w)
    g, thunk = w.profile_inputs[0]
    w._check_profile(g, thunk, result.output)
    prof, _ = result.output
    other = LIB.hardcore.variance_fraction(LIB.graphs.generate("path:5"))
    with pytest.raises(wl.CheckFailed, match="variance routes disagree"):
        w._check_profile(g, thunk, (prof, other))


# -- determinism -------------------------------------------------------------------

def _inputs(name, seed):
    w = wl.WORKLOADS[name](LIB, seed)
    if name == "engine_sparse":
        return [g.adj for g, _ in w.z_inputs + w.profile_inputs]
    if name == "small_graph_sweep":
        return w.perms
    if name == "orderings_web":
        return [(p, q) for p, q, _, _ in w.pairs]
    if name == "certified_tf":
        return [g.adj for g in w.tf_inputs] + [(g.adj, lam) for g, lam in w.chain_inputs]
    return [op.label for op in w.round_ops()]  # the seed only orders the cases


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_rounds_shuffle_afresh_and_line_up_by_op():
    w = wl.CertifiedTF(LIB, 3)
    first, second = w.round_ops(), w.round_ops()
    assert [op.label for op in first] != [op.label for op in second]
    assert (sorted((op.index, op.label) for op in first)
            == sorted((op.index, op.label) for op in second))


def test_scaled_latency_uses_the_kernel_times_around_the_op():
    track = speed.SpeedTrack()
    track.at = [0.0, 1.0, 2.0, 3.0]
    track.seconds = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S,
                     2 * speed.REFERENCE_S]
    assert track.factor(2.5) == 0.5


def test_orderings_inputs_come_from_the_recorded_pool():
    assert _inputs("orderings_web", 3) == _inputs("orderings_web", 3 + wl.ORDERINGS_POOL)


# -- references ------------------------------------------------------------------------

def test_references_agree_with_each_other():
    pet = LIB.graphs.generate("petersen")
    assert ref.SplitZ(pet.n, pet.adj)() == ref.brute_z(pet.n, pet.adj)
    for n in (5, 9):
        path = LIB.graphs.generate(f"path:{n}")
        cycle = LIB.graphs.generate(f"cycle:{n}")
        assert ref.path_z(n) == ref.brute_z(n, path.adj) == ref.SplitZ(n, path.adj)()
        assert ref.cycle_z(n) == ref.brute_z(n, cycle.adj)
    z = ref.path_z(5)
    assert ref.variance_at(z, 5, Fraction(33)) > Fraction(33, 34 ** 2)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (1.0, 100 / 3, 2)


# -- tracing ---------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    intervals, bounds, polys = LIB.intervals, LIB.bounds, LIB.polynomials
    import hardcore_lab

    orig_w, orig_mul = intervals.lambert_w_interval, polys.Poly.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = intervals.lambert_w_interval
        assert wrapped is not orig_w and wrapped.__wrapped__ is orig_w
        assert bounds.lambert_w_interval is wrapped
        assert hardcore_lab.lambert_w_interval is wrapped
        assert polys.Poly.__rmul__ is polys.Poly.__mul__ is not orig_mul
        tf = bounds.check_occupancy_tf(LIB.graphs.generate("cycle:5"), Fraction(1, 1600))
        assert tf.holds
    finally:
        tracer.uninstall()
    assert intervals.lambert_w_interval is orig_w and bounds.lambert_w_interval is orig_w
    assert polys.Poly.__rmul__ is orig_mul
    summary = tracer.summary()
    assert summary["calls"]["bounds.interval_le"] == 1
    assert summary["calls"]["intervals.lambert_w_interval"] > 0
    assert summary["counts"]["bounds.interval_le.rounds"] >= 1


def test_trace_counts_repeat_exactly_and_self_times_add_up():
    def traced_counts():
        w = _Trimmed(wl.CertifiedTF(LIB, 3), 4)
        tracer = Tracer()
        tracer.install()
        try:
            _, wall = run_round(w, tracer)
        finally:
            tracer.uninstall()
        s = tracer.summary()
        assert s["top_s"] <= wall
        assert sum(s["self_s"].values()) == pytest.approx(s["top_s"], rel=1e-6)
        return s["calls"], s["counts"]

    assert traced_counts() == traced_counts()


# -- whole processes -------------------------------------------------------------------

def test_sweep_process_starts_cold():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), "--workload",
                           "small_graph_sweep", "--seed", "1", "--rounds", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["cold_start"] is True
    assert all(op[2] for round_ops in out["ops"] for op in round_ops)


def test_sweep_round_starts_cold():
    LIB.corpus.all_graphs(4)
    w = wl.SmallGraphSweep(LIB, 1)
    assert w.cache_size() > 0
    first = next(iter(w.round_ops()))
    assert w.cache_size() == 0
    assert first.label == "all_graphs(1)"


def test_worker_refuses_optimized_mode():
    proc = subprocess.run([sys.executable, "-O", str(BENCH_DIR / "worker.py"), "--workload",
                           "sampler_xval", "--seed", "1", "--setup-only"],
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 3


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                           "orderings_web", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
