"""Command-line surface: JSON output, exit codes, graph-spec resolution."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from hardcore_lab import cli, hardcore, repro
from hardcore_lab.bounds import DEFAULT_TOL, BoundCheck
from hardcore_lab.cli import main
from hardcore_lab.graphs import Graph, generate
from hardcore_lab.intervals import RationalInterval
from hardcore_lab.verdict import FAILS, HOLDS, INCONCLUSIVE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_command(capsys):
    code, out, _ = run(capsys, "poly", "pasch")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == "1,10,33,42,20,6,1"
    assert data["n"] == 10 and data["edges"] == 12


def test_quantities_matches_displayed_value(capsys):
    code, out, _ = run(capsys, "quantities", "pasch", "--lambda", "5")
    assert code == 0
    data = json.loads(out)
    lam = F(5)
    num = lam * (6 * lam**5 + 30 * lam**4 + 80 * lam**3 + 126 * lam**2 + 66 * lam + 10)
    den = 10 * (lam**6 + 6 * lam**5 + 20 * lam**4 + 42 * lam**3 + 33 * lam**2 + 10 * lam + 1)
    assert data["occupancy_at_lambda"] == f"{num / den}"
    assert data["partition_at_lambda"] == "53001"


def test_order_failing_pair_exit_code(capsys):
    code, out, _ = run(capsys, "order", "FV", "1,9,30,45,30,9,1", "1,9,30,44,24,9")
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "fails" and data["witness"] == "4"


def test_order_holding_pair(capsys):
    code, out, _ = run(capsys, "order", "VAR", "1,9,30,45,30,9,1", "1,9,30,44,24,9")
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_order_on_rational_pairs(capsys):
    # Rational coefficients reach the integer decision through one common
    # denominator; the output is what the Fraction route printed.
    code, out, _ = run(capsys, "order", "OCC", "1,1/2", "1,1/3")
    assert code == 0
    assert out == '{"kind": "OCC", "p": "1,1/2", "q": "1,1/3", "status": "holds"}\n'
    code, out, _ = run(capsys, "order", "VAR", "1,1/2,1/5", "1,1/3")
    assert code == 2
    assert out == ('{"kind": "VAR", "margin": "-3615/188018944", "p": "1,1/2,1/5", '
                   '"q": "1,1/3", "status": "fails", "witness": "45"}\n')


def test_order_unknown_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "order", "WIBBLE", "1,1", "1,1")
    assert code == 1 and "unknown ordering kind" in err


@pytest.mark.parametrize("argv", [("COEF", "1,,2", "1,0,1"), ("COEF", ",1,2", "1,0,1"),
                                  ("VAR", "1,1", "1,2,")])
def test_order_refuses_an_empty_coefficient_field(argv, capsys):
    # "1,,2" once read as 1 + 2x and failed COEF at witness 2.
    code, out, err = run(capsys, "order", *argv)
    assert (code, out, err) == (1, "", "error: Invalid literal for Fraction: ''\n")


@pytest.mark.parametrize("argv, message", [
    (("quantities", "pasch", "--lambda", "x"), "argument --lambda: not a rational: 'x'"),
    (("quantities", "pasch", "--lambda", "1/0"), "argument --lambda: not a rational: '1/0'"),
    ((), "the following arguments are required: command"),
    (("bound",), "the following arguments are required: name"),
], ids=["lambda_not_a_number", "lambda_over_zero", "no_command", "bound_without_name"])
def test_argparse_refusals_are_usage_errors(argv, message, capsys):
    # argparse's refusal prints the usage, then one error line, and main
    # returns exit 1 instead of raising SystemExit.
    code, out, err = run(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (1, "", f"error: {message}")


def test_bound_groups(capsys):
    code, out, _ = run(capsys, "bound", "occupancy", "kab:1,3", "--lambda", "3/16")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {l["bound"] for l in lines} >= {"occupancy.complete_floor", "occupancy.degree_floor"}
    assert all(l["status"] == "holds" for l in lines)


def test_bound_graphless(capsys):
    code, out, _ = run(capsys, "bound", "p5_threshold")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_bound_vertex_ceiling_reports_failure(capsys):
    code, out, _ = run(capsys, "bound", "vertex_ceiling", "path:4", "--lambda", "1")
    assert code == 2
    assert json.loads(out.splitlines()[0])["status"] == "fails"


def _unread_cases():
    """(argv, unread) for every bound and every argument it does not read:
    argv gives the bound each argument it reads, and the unread one.  The
    bounds without a graph run at lambda = 5, edge_counterexamples' default."""
    for name, (_, reads) in sorted(cli.BOUNDS.items()):
        lam = "1" if "graph" in reads else "5"
        samples = {"graph": ["petersen"], "--lambda": ["--lambda", lam], "--tol": ["--tol", "1/100"]}
        for unread in [arg for arg in samples if arg not in reads]:
            yield (name, *(word for arg, words in samples.items()
                           if arg in reads or arg == unread for word in words)), unread


@pytest.mark.parametrize("argv, unread", list(_unread_cases()),
                         ids=lambda value: "-".join(value) if isinstance(value, tuple) else value)
def test_bound_refuses_an_argument_it_would_not_read(argv, unread, capsys, monkeypatch):
    def no_engine(*args):
        raise AssertionError("engine work before the refusal")

    monkeypatch.setattr(hardcore, "_z_packed", no_engine)
    code, out, err = run(capsys, "bound", *argv)
    assert (code, out, err) == (1, "", f"error: bound {argv[0]} takes no {unread}\n")


@pytest.mark.parametrize("argv", [
    ("occupancy", "petersen"),
    ("occupancy", "--lambda", "1"),
], ids="-".join)
def test_bound_on_a_graph_needs_the_graph_and_the_fugacity(argv, capsys, monkeypatch):
    def no_engine(*args):
        raise AssertionError("engine work before the refusal")

    monkeypatch.setattr(hardcore, "_z_packed", no_engine)
    code, out, err = run(capsys, "bound", *argv)
    assert (code, out, err) == (1, "", "error: this bound needs a graph and --lambda\n")


@pytest.mark.parametrize("name", sorted(name for name, (_, reads) in cli.BOUNDS.items()
                                         if "--tol" in reads))
def test_enclosed_bounds_default_to_the_library_tolerance(name, capsys):
    argv = ("bound", name, "cycle:8", "--lambda", "1/100")
    default = run(capsys, *argv)
    explicit = run(capsys, *argv, "--tol", str(DEFAULT_TOL))
    assert default[0] == 0 and default == explicit


_DENSE = "g6:Si_aqobx]b`OBHOMyOIDcG^B?jQOpObf?"  # G(20, 0.4), degrees 3 to 12


@pytest.mark.parametrize("argv", [
    ("free_energy", "kab:32,32"),
    ("free_energy", _DENSE),
    ("vertex_ceiling", _DENSE),
], ids=["free_energy-kab:32,32", "free_energy-dense", "vertex_ceiling-dense"])
def test_bound_refuses_a_cleared_side_too_long_to_print(argv, capsys):
    # Z(1)^1024 on kab:32,32, and Z(1) to the lcm 360360 of the degrees
    # plus one on the dense graph, have more digits than a report prints:
    # the refusal comes before any power is taken.
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", *argv, "--lambda", "1")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", "error: a cleared side would have more than 4300 digits\n")


@pytest.mark.parametrize("argv", [
    ("bound", "variance", "kab:32,32", "--lambda", str(10 ** 70)),
    ("quantities", "kab:32,32", "--lambda", str(10 ** 100)),
    ("bound", "occupancy", "kn:64", "--lambda", str(10 ** 70)),
], ids=["bound-variance", "quantities", "bound-occupancy"])
def test_a_report_too_long_to_print_is_refused_whole(argv, capsys):
    # At these fugacities V = N / (n Z^2) of kab:32,32 has more digits than
    # a report prints (Z(lam) alone has about 32 log10(lam)).  The first
    # three checks of the occupancy report on kn:64 would print, but not the
    # biregular ceiling, built from (1 + lam)^62, so none of them is written.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: a value to print has more than 4300 digits\n")


@pytest.mark.parametrize("spec, lam", [
    ("5*kab:1,3", 10 ** 200), ("petersen", 10 ** 400), ("kab:32,32", 10 ** 65),
], ids=["5*kab:1,3", "petersen", "kab:32,32"])
def test_bound_variance_prints_a_report_whose_values_fit(spec, lam, capsys):
    # Every value of these reports fits under the print limit, however close
    # a bound on Z(lam) would come to it: only a value that does not fit is
    # refused.
    code, out, err = run(capsys, "bound", "variance", spec, "--lambda", str(lam))
    assert (code, err) == (0, "") and len(out.splitlines()) == 3


def test_quantities_refuses_an_unprintable_partition_value_before_its_enclosure(capsys):
    # Z(lam) of cycle:64 at the largest power of ten the parser reads has
    # over 10^5 digits: the report is refused on it before log_interval
    # runs on it, which would take over a minute.
    start = time.perf_counter()
    code, out, err = run(capsys, "quantities", "cycle:64", "--lambda", str(10 ** 4299))
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (1, "", "error: a value to print has more than 4300 digits\n")


def test_bound_combined_refuses_an_unprintable_occupancy_before_its_enclosures(capsys):
    # E(lam) of cycle:64 at 10^1000 has about 32,000 digits, and every side
    # of the chain is built from it: the report is refused on E before the
    # enclosures run, which would take about 20 s.
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "combined", "cycle:64", "--lambda", str(10 ** 1000))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: the occupancy fraction would have more than 4300 digits\n"


def test_bound_occupancy_prints_where_the_variance_is_refused(capsys):
    code, out, err = run(capsys, "bound", "occupancy", "kab:32,32", "--lambda", str(10 ** 70))
    assert (code, err) == (0, "") and out


def test_quantities_refuses_a_free_energy_enclosure_too_long_to_print(capsys):
    # The enclosure of log Z(lam) / n carries several times the digits of
    # Z(lam); past the limit the report is one error line, not Python's own
    # conversion message.
    code, out, err = run(capsys, "quantities", "kab:32,32", "--lambda", str(10 ** 30))
    assert (code, out, err) == (1, "", "error: a value to print has more than 4300 digits\n")


def test_bound_free_energy_prints_a_long_side_in_full(capsys):
    code, out, err = run(capsys, "bound", "free_energy", "kab:16,16", "--lambda", "1")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 6


def test_bound_unknown_name(capsys):
    code, _, err = run(capsys, "bound", "nonsense", "kn:3", "--lambda", "1")
    assert code == 1 and "unknown bound" in err


def test_bound_inconclusive_exit_code(capsys):
    # Equality case: enclosure comparison must bottom out as inconclusive.
    code, out, _ = run(capsys, "bound", "combined", "empty:2", "--lambda", "1",
                       "--tol", "1/" + "1" + "0" * 28)
    assert code == 3
    statuses = {json.loads(l)["status"] for l in out.splitlines()}
    assert "inconclusive" in statuses and "fails" not in statuses


def test_graph6_and_file_specs(tmp_path, capsys):
    code, out, _ = run(capsys, "poly", "g6:Bw")
    assert code == 0 and json.loads(out)["coefficients"] == "1,3"

    edge_file = tmp_path / "tri.txt"
    edge_file.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run(capsys, "poly", f"@{edge_file}")
    assert code == 0 and json.loads(out)["coefficients"] == "1,3"


def test_non_integer_edge_list_vertex_is_a_one_line_usage_error(tmp_path, capsys):
    for bad in ("a b", "0 1.5", "0 1_0", "+0 1", "0 \u0661"):
        edge_file = tmp_path / "bad.txt"
        edge_file.write_text(f"0 1\n{bad}\n", encoding="utf-8")
        code, out, err = run(capsys, "poly", f"@{edge_file}")
        assert (code, out, err) == (1, "", f"error: bad edge line: '{bad}'\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "poly", "@/nonexistent/file.txt")
    assert code == 1 and err


def test_bad_generator_spec(capsys):
    code, _, err = run(capsys, "poly", "frobnicate:9")
    assert code == 1 and "unknown generator" in err


def test_malformed_generator_atom(capsys):
    assert run(capsys, "poly", "kab:1") == (
        1, "", "error: bad generator spec term 'kab:1': kab takes 2 size(s), got 1\n")


def test_sample_command(capsys):
    code, out, _ = run(capsys, "sample", "kn:3", "--lambda", "1",
                       "--steps", "100000", "--burn-in", "1000", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3 and data["steps"] == 100000


def test_bad_step_counts_are_a_one_line_usage_error(capsys):
    for argv, err_line in (
        (("--steps", "-5", "--burn-in", "-1"), "error: burn_in must be nonnegative\n"),
        (("--steps", "10", "--burn-in", "0"),
         "error: need steps >= batches (at least one step per batch)\n"),
    ):
        code, out, err = run(capsys, "sample", "kn:3", "--lambda", "1", *argv)
        assert (code, out, err) == (1, "", err_line), argv


def test_repro_selected_items(capsys):
    code, out, _ = run(capsys, "repro", "lemmas.fv_and_var_hold",
                       "series.clique_weight_identity")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert [l["id"] for l in lines] == ["lemmas.fv_and_var_hold",
                                        "series.clique_weight_identity"]
    assert all(l["status"] == "verified" for l in lines)


def test_repro_unknown_id(capsys):
    code, _, err = run(capsys, "repro", "nope.nothing")
    assert code == 1 and "unknown repro ids" in err


def test_repro_out_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    ids = ["lemmas.var_without_fv", "series.ratio_coefficients",
           "variance.p5_threshold"]
    assert main(["repro", *ids, "--out", str(out1)]) == 0
    assert main(["repro", *ids, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert [json.loads(l)["id"] for l in lines] == sorted(ids)


def test_memo_limit_is_a_one_line_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(hardcore, "DEFAULT_MEMO_LIMIT", 4)
    code, out, err = run(capsys, "poly", "petersen")
    assert code == 1 and out == ""
    assert err == "error: residual cache exceeded 4 entries\n"


def test_repro_variance_identity_failure_is_a_record(capsys, monkeypatch):
    def disagree(prof):
        raise ArithmeticError(f"{prof.graph.display_name()}: routes disagree")

    monkeypatch.setattr(repro, "variance_via_marginals", disagree)
    code, out, _ = run(capsys, "repro", "variance.pair_marginal_identity",
                       "variance.p5_threshold")
    assert code == 2
    records = {r["id"]: r for r in map(json.loads, out.splitlines())}
    item = records["variance.pair_marginal_identity"]
    assert item["status"] == "failed"
    assert len(item["payload"]["failing"]) == len(item["payload"]["graphs"])
    assert records["variance.p5_threshold"]["status"] == "verified"


@pytest.mark.parametrize("statuses, code, status", [
    ((HOLDS, HOLDS), 0, "verified"),
    ((HOLDS, INCONCLUSIVE), 3, "inconclusive"),
    ((INCONCLUSIVE, FAILS, HOLDS), 2, "failed"),
], ids=["verified", "inconclusive", "failed"])
def test_repro_item_status_from_its_checks(capsys, monkeypatch, statuses, code, status):
    # One failed check fails the item; otherwise one inconclusive check
    # makes it inconclusive.
    checks = [BoundCheck(f"test.check{i}", "kn:1", F(1), s) for i, s in enumerate(statuses)]
    monkeypatch.setitem(repro.REGISTRY, "test.checks", lambda: repro._item_from_checks(checks))
    got, out, err = run(capsys, "repro", "test.checks")
    assert (got, err) == (code, "")
    record = json.loads(out)
    assert record["status"] == status
    assert [c["status"] for c in record["payload"]["checks"]] == list(statuses)


@pytest.mark.parametrize("shift", ["apart", "wide"])
def test_repro_chain_exhibit_that_misses_fails_the_item(capsys, monkeypatch, shift):
    # Every chain check holds; the edgeless exhibit alone fails the item,
    # when its two enclosures miss each other or meet with a gap > 10^-15.
    real = repro.free_energy_interval

    def moved(*args):
        fe = real(*args)
        return fe + 1 if shift == "apart" else RationalInterval(fe.lo - F(1, 10**14), fe.hi)

    monkeypatch.setattr(repro, "free_energy_interval", moved)
    code, out, err = run(capsys, "repro", "combined.chain_samples")
    record = json.loads(out)
    assert (code, err, record["status"]) == (2, "", "failed")
    assert {c["status"] for c in record["payload"]["checks"]} == {HOLDS}
    assert record["payload"]["edgeless_equality"]["overlap"] == (shift == "wide")


def _small_corpus(monkeypatch):
    """Stand the connected corpus in with kn:3 and path:3."""
    graphs = [generate("kn:3"), generate("path:3")]
    monkeypatch.setattr(repro.corpus, "connected_corpus", lambda max_n: graphs)


def test_repro_degree_floor_equality_mismatch_fails_the_item(capsys, monkeypatch):
    # kn:3 meets the degree floor with equality; classified as no union of
    # cliques, it is the one mismatch.
    _small_corpus(monkeypatch)
    monkeypatch.setattr(Graph, "is_disjoint_union_of_cliques", lambda self: False)
    code, out, err = run(capsys, "repro", "occupancy.degree_floor_corpus")
    record = json.loads(out)
    assert (code, err, record["status"]) == (2, "", "failed")
    assert record["payload"]["graphs"] == 2
    assert record["payload"]["equality_classification_mismatches"] == 1


@pytest.mark.parametrize("wrong, mismatches", [
    (lambda n: n <= 6, 2),
    (lambda n: n >= 9, 60),
], ids=["corpus", "random"])
def test_repro_engine_oracle_mismatch_fails_the_item(capsys, monkeypatch, wrong, mismatches):
    # The oracle disagrees only on the corpus graphs (kn:3, path:3) or only
    # on the 60 random graphs (9 to 12 vertices); each disagreement counts.
    _small_corpus(monkeypatch)
    monkeypatch.setattr(repro, "brute_force_polynomial",
                        lambda g: repro.independence_polynomial(g) + int(wrong(g.n)))
    code, out, err = run(capsys, "repro", "engine.oracle_equivalence")
    record = json.loads(out)
    assert (code, err, record["status"]) == (2, "", "failed")
    assert record["payload"] == {"corpus_graphs": 2, "random_graphs": 60,
                                 "mismatches": mismatches, "cycle_recurrence_ok": True}


def test_repro_corpus_summary_lists_every_check_that_does_not_hold(capsys, monkeypatch):
    _small_corpus(monkeypatch)
    statuses = {"kn:3": (HOLDS, FAILS), "path:3": (INCONCLUSIVE, HOLDS)}
    monkeypatch.setattr(repro.bounds, "check_free_energy_bounds", lambda g, lam: [
        BoundCheck(f"test.check{i}", g.display_name(), lam, s)
        for i, s in enumerate(statuses[g.display_name()])])
    code, out, err = run(capsys, "repro", "free_energy.small_corpus")
    record = json.loads(out)
    assert (code, err, record["status"]) == (2, "", "failed")
    payload = record["payload"]
    assert payload["comparisons"] == 4
    assert payload["by_status"] == {HOLDS: 2, FAILS: 1, INCONCLUSIVE: 1}
    assert [(c["bound"], c["graph"], c["status"]) for c in payload["failing"]] == [
        ("test.check1", "kn:3", FAILS), ("test.check0", "path:3", INCONCLUSIVE)]


def test_repro_run_without_ids_runs_every_item_sorted(monkeypatch):
    monkeypatch.setattr(repro, "REGISTRY", {"b.second": lambda: (repro.VERIFIED, {}),
                                            "a.first": lambda: (repro.FAILED, {"n": 1})})
    for ids in (None, []):
        assert [r.to_json() for r in repro.run(ids)] == [
            {"id": "a.first", "status": "failed", "payload": {"n": 1}},
            {"id": "b.second", "status": "verified", "payload": {}}]


def test_module_entry_point_prints_what_main_prints(capsys):
    code, out, _ = run(capsys, "poly", "kn:2")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hardcore_lab", "poly", "kn:2"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert code == 0 and json.loads(out)["coefficients"] == "1,2"


def test_repro_item_that_raises_is_a_failed_record(capsys, monkeypatch):
    def raises():
        raise ValueError("boom")

    monkeypatch.setitem(repro.REGISTRY, "test.raises", raises)
    code, out, err = run(capsys, "repro", "test.raises", "lemmas.var_without_fv")
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["id"] for r in records] == ["lemmas.var_without_fv", "test.raises"]
    assert records[0]["status"] == "verified"
    assert records[1] == {"id": "test.raises", "status": "failed",
                          "payload": {"error": "ValueError: boom"}}
    assert "ValueError: boom" in err


def test_nonpositive_fugacity_is_a_one_line_usage_error(capsys):
    positive = "error: fugacity must be positive\n"
    for argv, err_line in (
        (("bound", "weighted_marginals_tf", "petersen", "--lambda", "0"), positive),
        (("bound", "weighted_marginals_tf", "petersen", "--lambda=-1/2"), positive),
        (("bound", "vertex_ceiling", "petersen", "--lambda=-1/2"), positive),
        (("bound", "local_occupancy", "cycle:5", "--lambda=-1/2"), positive),
        (("bound", "local_occupancy", "cycle:5", "--lambda", "0"), positive),
        (("bound", "weighted_marginals", "cycle:5", "--lambda", "0"), positive),
        (("bound", "edge_counterexamples", "--lambda", "0"), positive),
        (("quantities", "path:1", "--lambda=-1/2"), positive),
        (("quantities", "kab:1,2", "--lambda=-1/3"), positive),
        (("sample", "petersen", "--lambda=-1/2"),
         "error: fugacity must be nonnegative\n"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", err_line), argv


def test_nonpositive_tolerance_is_a_one_line_usage_error(capsys):
    for argv in (
        ("bound", "occupancy_tf", "petersen", "--lambda", "1/100", "--tol", "0"),
        ("bound", "combined", "cycle:5", "--lambda", "1", "--tol", "-1"),
        ("quantities", "cycle:5", "--lambda", "1", "--tol", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: tolerance must be positive\n"


def test_graph_without_vertices_is_a_one_line_usage_error(capsys):
    # Every command that averages over the vertices refuses n = 0, instead
    # of a verdict on (1/n) log Z or an arithmetic error.
    for argv in (
        ("bound", "free_energy", "path:0", "--lambda", "1"),
        ("bound", "occupancy", "kab:0,0", "--lambda", "1"),
        ("bound", "variance", "g6:?", "--lambda", "1"),
        ("bound", "combined", "path:0", "--lambda", "1"),
        ("bound", "occupancy_tf", "path:0", "--lambda", "1"),
        ("bound", "weighted_marginals", "path:0", "--lambda", "1"),
        ("bound", "local_occupancy", "path:0", "--lambda", "1"),
        ("bound", "vertex_ceiling", "path:0", "--lambda", "1"),
        ("bound", "weighted_marginals_tf", "path:0", "--lambda", "1"),
        ("quantities", "path:0", "--lambda", "1"),
        ("sample", "path:0", "--lambda", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: graph has no vertices\n"), argv
