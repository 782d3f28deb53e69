import argparse
import json
from dataclasses import replace
from itertools import product

import pytest

from ppsign import cli, core, exactalg, formulas, oracle, paths
from ppsign.errors import InternalConsistencyError, ResourceLimitError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_tc_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "3", "--b", "1"
    )
    assert code == 0
    records = json.loads(out)
    assert records[-1] == {"verdict": "OK"}
    values = {r["method"]: r["value"] for r in records if "method" in r}
    assert values == {"oracle": "1", "lgv": "1", "formula": "1"}
    assert all(isinstance(r["value"], str) for r in records if "method" in r)


def test_enumerate_zero_case(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1",
        "--method", "oracle",
    )
    assert code == 0
    assert json.loads(out)[0]["value"] == "0"


def test_enumerate_sc(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "sc", "--a", "2", "--b", "2", "--c", "2"
    )
    assert code == 0
    records = json.loads(out)
    assert records[-1]["verdict"] == "OK"
    assert {r["value"] for r in records if "method" in r} == {"2"}


def test_enumerate_usage_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--class", "tc")
    assert code == 2
    assert "need" in err


def test_enumerate_unknown_class(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--class", "nope", "--a", "1", "--b", "1")
    assert code == 2


def test_json_output_is_deterministic(capsys):
    args = ("verify", "--class", "tc", "--max-a", "3", "--max-b", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "elapsed" not in first  # timings only with --timing


def test_timing_flag_adds_elapsed(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1",
        "--method", "formula", "--timing",
    )
    assert code == 0
    assert all("elapsed_ms" in r for r in json.loads(out))


def test_verify_smoke_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class", "all", "--smoke")
    assert code == 0
    records = json.loads(out)
    assert records and all(r["status"] == "OK" for r in records)


def test_verify_csscpp(capsys):
    code, out, _ = run_cli(capsys, "verify", "--class", "csscpp", "--max-alpha", "2")
    assert code == 0
    rows = json.loads(out)
    assert [r["values"]["cyclic-orbit-weight"] for r in rows] == ["1", "4"]


def test_verify_unknown_class(capsys):
    code, _, err = run_cli(capsys, "verify", "--class", "bogus")
    assert code == 2
    assert "unknown" in err


def test_identity_commands(capsys):
    code, out, _ = run_cli(capsys, "identity", "--name", "mrr", "--n", "4", "--mu", "2")
    assert code == 0
    assert json.loads(out)[0]["result"] == "PASS"

    code, out, _ = run_cli(
        capsys, "identity", "--name", "detl", "--n", "1"
    )
    assert code == 0
    assert json.loads(out)[0]["result"] == "PASS"

    code, out, _ = run_cli(
        capsys, "identity", "--name", "pfaff-saalschutz", "--fuzz", "20", "--seed", "7"
    )
    assert code == 0
    assert all(r["result"] == "PASS" for r in json.loads(out))


def test_identity_seed_determinism(capsys):
    args = ("identity", "--name", "minor-summation", "--fuzz", "10", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--class", "tc", "--max-a", "2", "--max-b", "1",
        "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == sorted(lines[0].split("\t"))
    assert len(lines) == 1 + 2 * 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "cstc", "--alpha", "2",
        "--method", "formula", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["value"] == "0"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--class", "cstc", "--alpha", "2", "--method", "formula"),
    ("verify", "--class", "tc", "--smoke"),
    ("identity", "--name", "mrr", "--n", "4", "--mu", "2"),
])
def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys, argv):
    # a missing directory raises FileNotFoundError, a directory
    # IsADirectoryError: both are OSError, and exit 1 would read as MISMATCH
    for target in (tmp_path / "missing" / "result.json", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {target}") and "Traceback" not in err


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("PPSIGN_NODE_BUDGET", "10")
    code, _, err = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "4", "--b", "2",
        "--method", "oracle",
    )
    assert code == 0  # budget exhaustion is not an error unless --strict
    assert "budget" in err
    monkeypatch.setenv("PPSIGN_NODE_BUDGET", "10")
    code, _, err = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "4", "--b", "2",
        "--method", "oracle", "--strict",
    )
    assert code == 3


def test_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("PPSIGN_NODE_BUDGET", "10")
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "4", "--b", "2",
        "--method", "oracle", "--node-budget", "1000000",
    )
    assert code == 0
    assert json.loads(out)[0]["value"] == "4"


def test_enumerate_empty_box_agrees_on_every_route(capsys):
    for argv in (
        ("--class", "tssc", "--alpha", "0"),
        ("--class", "cstc", "--alpha", "0"),
        ("--class", "tc", "--a", "0", "--b", "1"),
        ("--class", "stc", "--a", "0", "--b", "1"),
    ):
        code, out, _ = run_cli(capsys, "enumerate", *argv)
        assert code == 0, argv
        records = json.loads(out)
        assert records[-1] == {"verdict": "OK"}, argv
        assert {r["value"] for r in records if "method" in r} == {"1"}, argv


def test_enumerate_negative_side_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--class", "tc", "--a", "-1", "--b", "1")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "nonnegative" in err and "Traceback" not in err


def test_zero_flag_values_are_not_replaced_by_defaults(capsys):
    code, out, err = run_cli(capsys, "identity", "--name", "mrr", "--n", "0")
    assert code == 2
    assert out == ""
    assert "n must be positive" in err
    code, out, err = run_cli(capsys, "identity", "--name", "m1", "--alpha", "3")
    assert code == 2
    assert out == ""
    assert "even alpha only" in err
    code, out, _ = run_cli(capsys, "identity", "--name", "2ji", "--beta", "0")
    assert code == 0
    assert json.loads(out)[0]["identity"] == "2ji alpha=2 beta=0 gamma=0"
    code, out, err = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1", "--node-budget", "0"
    )
    assert code == 2
    assert out == ""
    assert "budgets must be positive" in err


def test_negative_counts_are_usage_errors(capsys):
    for argv in (
        ("identity", "--name", "detl", "--fuzz", "-5"),
        ("verify", "--class", "tc", "--max-a", "-3"),
        ("verify", "--class", "tc", "--max-b", "-1"),
        ("verify", "--class", "sc", "--max-c", "-2"),
        ("verify", "--class", "cstc", "--max-alpha", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1, argv
        assert f"{argv[-2]} must be nonnegative" in err, argv


def test_identity_out_of_domain_alpha_is_usage_error(capsys):
    for name, alpha in (("2ji", "-3"), ("m1", "-2"), ("recurrence-s4", "-2")):
        code, out, err = run_cli(capsys, "identity", "--name", name, "--alpha", alpha)
        assert code == 2, name
        assert out == ""
        assert "alpha must be nonnegative" in err, name
    code, out, err = run_cli(capsys, "identity", "--name", "m1", "--b", "-2")
    assert code == 2
    assert "b must be nonnegative" in err
    code, out, err = run_cli(capsys, "identity", "--name", "recurrence-s4", "--alpha", "3")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for name in ("2ji", "m1", "recurrence-s4"):
        code, out, _ = run_cli(capsys, "identity", "--name", name, "--alpha", "0")
        assert code == 0, name
        assert json.loads(out)[0]["result"] == "PASS", name


def test_sign_convention_flag_is_gone(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1",
        "--sign-convention", "tc=relabelled",
    )
    assert code == 2
    assert out == ""


def test_verify_tssc_compares_signs(capsys, monkeypatch):
    real = paths.tsscpp_enum
    monkeypatch.setattr(
        paths, "tsscpp_enum", lambda alpha: replace(real(alpha), value=-real(alpha).value)
    )
    code, out, _ = run_cli(capsys, "verify", "--class", "tssc", "--max-alpha", "1")
    assert code == 1
    assert json.loads(out)[0]["status"] == "MISMATCH"


@pytest.mark.parametrize("name, route", [
    ("cstc", "cstcpp_full_det"),
    ("tssc", "tsscpp_pfaffian_value"),
])
def test_verify_lgv_runs_the_measured_path_construction(capsys, monkeypatch, name, route):
    # the lgv value is the path matrix's own determinant or Pfaffian, the one
    # the benchmark times, at even alpha too, where the value is 0
    real = getattr(paths, route)
    monkeypatch.setattr(paths, route, lambda alpha: real(alpha) + 1)
    code, out, _ = run_cli(capsys, "verify", "--class", name, "--max-alpha", "2")
    assert code == 1
    records = json.loads(out)
    assert [r["status"] for r in records] == ["MISMATCH", "MISMATCH"]
    assert [r["values"]["lgv"] for r in records] == [
        str(real(alpha) + 1) for alpha in (1, 2)
    ]


def test_enumerate_deep_box_stops_on_budget(capsys):
    # 33 x 33 cells: a walk that recursed once per cell overflowed the stack
    argv = ("enumerate", "--class", "tc", "--a", "33", "--b", "1", "--method", "oracle",
            "--node-budget", "100000")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == [
        {"class": "tc", "box": [33, 33, 2], "method": "oracle", "status": "SKIPPED"}
    ]
    assert err.startswith("budget:") and "Traceback" not in err
    code, strict_out, err = run_cli(capsys, *argv, "--strict")
    assert code == 3
    assert strict_out == out
    assert err.startswith("budget:")


def test_identity_mismatch_inside_a_check_is_fail(capsys, monkeypatch):
    # lemma_2ji and mrr_det return both sides; the check compares them
    real = exactalg.det
    monkeypatch.setattr(exactalg, "det", lambda m: real(m) + 1)
    for argv in (("--name", "2ji"), ("--name", "mrr"), ("--name", "2ji", "--fuzz", "3")):
        code, out, err = run_cli(capsys, "identity", *argv)
        assert code == 1
        assert all(r["result"] == "FAIL" for r in json.loads(out))
        assert err == ""


def test_failed_kernel_cross_check_exits_one(capsys, monkeypatch):
    real = exactalg._pfaffian_matching_sum
    monkeypatch.setattr(exactalg, "_pfaffian_matching_sum", lambda rows: real(rows) + 1)
    code, out, err = run_cli(capsys, "verify", "--class", "stc-odd", "--max-alpha", "1",
                             "--max-b", "1")
    assert code == 1
    assert "MISMATCH" in {r["status"] for r in json.loads(out)}
    assert "definition sum" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, "identity", "--name", "minor-summation")
    assert code == 1
    assert [r["result"] for r in json.loads(out)] == ["FAIL"]
    assert err.startswith("error:") and "definition sum" in err


def test_identity_flag_nothing_reads_is_usage_error(capsys):
    for argv in (
        ("--name", "pfaff-saalschutz", "--n", "3"),
        ("--name", "detl", "--alpha", "5"),
        ("--name", "2ji", "--fuzz", "1", "--alpha", "5"),
        ("--name", "minor-summation", "--b", "2"),
    ):
        code, out, err = run_cli(capsys, "identity", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, argv
        assert argv[-2] in err, argv


def test_enumerate_box_flag_the_class_does_not_read_is_usage_error(capsys):
    for argv, stray in (
        (("tc", "--a", "3", "--b", "1", "--c", "7"), "--c"),
        (("stc", "--a", "2", "--b", "1", "--alpha", "1"), "--alpha"),
        (("tcpp", "--a", "3", "--b", "1", "--c", "2", "--alpha", "1"), "--c --alpha"),
        (("sc", "--a", "2", "--b", "2", "--c", "2", "--alpha", "1"), "--alpha"),
        (("cstc", "--alpha", "1", "--a", "2"), "--a"),
        (("tssc", "--alpha", "1", "--b", "0"), "--b"),
        (("cssc", "--alpha", "1", "--a", "2", "--b", "2", "--c", "2"), "--a --b --c"),
    ):
        code, out, err = run_cli(capsys, "enumerate", "--class", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, argv
        assert f"reads no {stray}\n" in err, argv
    # a missing flag is named first, as before
    code, out, err = run_cli(capsys, "enumerate", "--class", "cstc", "--a", "2", "--b", "1")
    assert code == 2
    assert err == "cstc needs --alpha (box (2a)^3)\n"


def test_internal_failure_in_a_route_exits_one(capsys, monkeypatch):
    def broken(m):
        raise InternalConsistencyError("pfaffian disagrees with its cross-check")

    monkeypatch.setattr(exactalg, "pfaffian", broken)
    code, out, err = run_cli(capsys, "verify", "--class", "stc-odd", "--max-alpha", "3",
                             "--max-b", "2")
    assert code == 1
    assert "MISMATCH" in {r["status"] for r in json.loads(out)}
    assert "cross-check" in err
    code, out, err = run_cli(capsys, "enumerate", "--class", "stc", "--a", "7", "--b", "3",
                             "--method", "lgv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    # the oracle's reference member re-checks itself
    monkeypatch.setattr(core, "satisfies", lambda pp, cls: False)
    code, out, err = run_cli(capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1",
                             "--method", "oracle")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_subset_budget_reaches_minor_summation(capsys, monkeypatch):
    argv = ("identity", "--name", "minor-summation", "--fuzz", "3", "--seed", "1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--subset-budget", "1")
    assert code == 0
    # a stop skips only its instance, and the run goes on
    assert [r["result"] for r in json.loads(out)] == ["SKIPPED", "PASS", "PASS"]
    assert err.startswith("budget:") and err.count("budget:") == 1
    assert run_cli(capsys, *argv, "--subset-budget", "1", "--strict")[0] == 3
    monkeypatch.setenv("PPSIGN_SUBSET_BUDGET", "1")
    code, _, err = run_cli(capsys, *argv, "--strict")
    assert code == 3 and err.startswith("budget:")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--class", "tc", "--a", "2", "--b", "1", "--subset-budget", "0"),
    ("enumerate", "--class", "tc", "--a", "2", "--b", "1", "--subset-budget", "5"),
    ("verify", "--class", "tc", "--subset-budget", "-1"),
    ("identity", "--name", "mrr", "--node-budget", "1"),
])
def test_budget_flag_of_another_command_is_usage_error(capsys, argv):
    # enumerate and verify spend a node budget, identity a subset budget
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_command_reads_only_the_budget_variable_it_spends(capsys, monkeypatch):
    monkeypatch.setenv("PPSIGN_SUBSET_BUDGET", "x")
    code, out, err = run_cli(capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1")
    assert code == 0 and err == ""
    assert json.loads(out)[-1] == {"verdict": "OK"}
    assert run_cli(capsys, "verify", "--class", "tc", "--smoke")[0] == 0
    code, _, err = run_cli(capsys, "identity", "--name", "minor-summation")
    assert code == 2
    assert "PPSIGN_SUBSET_BUDGET must be an integer" in err
    monkeypatch.delenv("PPSIGN_SUBSET_BUDGET")
    monkeypatch.setenv("PPSIGN_NODE_BUDGET", "x")
    code, out, err = run_cli(capsys, "identity", "--name", "mrr")
    assert code == 0 and err == ""
    assert json.loads(out)[0]["result"] == "PASS"
    code, _, err = run_cli(capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1")
    assert code == 2
    assert "PPSIGN_NODE_BUDGET must be an integer" in err


def test_budget_stop_skips_one_method_and_the_verdict_takes_the_rest(capsys):
    argv = ("enumerate", "--class", "cstc", "--alpha", "2", "--node-budget", "10")
    for strict, expected_code in (((), 0), (("--strict",), 3)):
        code, out, err = run_cli(capsys, *argv, *strict)
        assert code == expected_code
        records = json.loads(out)
        assert [r.get("status") for r in records] == ["SKIPPED", None, None, None]
        assert "value" not in records[0]
        assert [r["value"] for r in records[1:3]] == ["0", "0"]
        assert records[3] == {"verdict": "OK"}
        assert err.startswith("budget:") and len(err.splitlines()) == 1


def test_identity_fail_then_budget_stop_exits_one(capsys, monkeypatch):
    calls = []

    def fail_then_stop(tmat, amat, budget):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise ResourceLimitError("subset budget exceeded")
        return 1, 2

    monkeypatch.setattr(paths, "minor_summation", fail_then_stop)
    argv = ("identity", "--name", "minor-summation", "--fuzz", "2")
    for strict in ((), ("--strict",)):
        code, out, err = run_cli(capsys, *argv, *strict)
        assert code == 1
        assert [r["result"] for r in json.loads(out)] == ["FAIL", "SKIPPED"]
        assert err.startswith("budget:")


def test_main_calls_share_one_parser(capsys, monkeypatch):
    used = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(2):
        code, _, _ = run_cli(capsys, "enumerate", "--class", "tc", "--a", "2", "--b", "1")
        assert code == 0
    assert len(used) == 2 and used[0] is used[1]


def test_verify_stc_runs_the_oracle_up_to_1000_cells(capsys, monkeypatch):
    # a stub records the boxes the oracle is asked for, and answers with
    # the closed form; 10 x 10 x 10 is exactly 1,000 cells
    asked = []

    def stub(box, cls, node_budget):
        asked.append(box)
        return core.SignedCount(formulas.thm2_stcpp(box.a // 2, box.c // 2), "stub")

    monkeypatch.setattr(oracle, "signed_count", stub)
    code, out, _ = run_cli(capsys, "verify", "--class", "stc", "--max-alpha", "6", "--max-b", "5")
    assert code == 0
    rows = {(r["params"]["alpha"], r["params"]["b"]): r["values"] for r in json.loads(out)}
    assert rows[6, 4].keys() == {"lgv", "formula"}  # 12 x 12 x 8: 1,152 cells
    assert rows[5, 5].keys() == {"lgv", "formula", "oracle"}
    assert asked == [
        core.BoxDims(2 * alpha, 2 * alpha, 2 * b)
        for alpha, b in product(range(1, 7), range(6)) if 8 * alpha * alpha * b <= 1000
    ]
