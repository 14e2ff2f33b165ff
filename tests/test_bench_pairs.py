"""The summary step of tools/bench_pairs.py, on canned pair records, and its
refusal of fewer than ten pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(name, base, change, metric="op_tail_ms"):
    return [{"name": name, "seed": i, "first": ("base", "change")[i % 2],
             "base": {metric: b}, "change": {metric: c}}
            for i, (b, c) in enumerate(zip(base, change))]


def test_summary_counts_wins_and_claims_a_gain_only_past_the_base_spread():
    better = {"op_tail_ms": "lower", "ops_per_s": "higher"}
    records = _pairs("orderings_web", [2.0, 2.4, 2.2, 2.6, 2.1, 2.5, 2.3, 2.2, 2.4, 2.0],
                     [0.8, 0.7, 0.9, 0.8, 0.75, 0.8, 0.7, 0.85, 0.8, 0.9])
    # ahead in 9 of 10 but by less than the base's quartile spread
    records += _pairs("certified_tf", [100, 90, 110, 95, 105, 100, 98, 102, 97, 103],
                      [101, 91, 111, 96, 106, 101, 99, 103, 98, 100], "ops_per_s")
    records += _pairs("layer", [0.5, 0.5], [0.5, "missing"], "pass_s")
    out = bench_pairs.summarize(records, better)
    tail = out["orderings_web"]["op_tail_ms"]
    assert (tail["pairs"], tail["won"], tail["lost"], tail["gain"]) == (10, 10, 0, True)
    assert tail["base_median"] == 2.25 and tail["change_median"] == 0.8
    assert tail["base_quartiles"] == [2.125, 2.4] and tail["better"] == "lower"
    ops = out["certified_tf"]["ops_per_s"]
    assert (ops["won"], ops["lost"], ops["gain"]) == (9, 1, False)
    assert ops["base_median"] == 100 and ops["change_median"] == 100.5
    assert out["layer"]["pass_s"] == {"base": [0.5, 0.5], "change": [0.5, "missing"]}


def test_summary_of_one_pair_has_flat_quartiles_and_ties_count_for_neither():
    out = bench_pairs.summarize(_pairs("w", [3.0], [3.0]), {})
    row = out["w"]["op_tail_ms"]
    assert row["base_quartiles"] == row["change_quartiles"] == [3.0, 3.0]
    assert (row["won"], row["lost"], row["gain"]) == (0, 0, False)


def test_fewer_than_ten_seeds_are_refused_before_any_run(tmp_path):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "HEAD", "--change", "HEAD", "--seeds", "1", "2",
                          "--out", str(out)])
    assert not out.exists()
