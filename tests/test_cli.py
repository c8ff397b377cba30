"""Command-line interface: flags, output schemas, determinism, exit codes."""

import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from polyrank import VarSet, bound_ratios, build_instance, parse
from polyrank import moment as moment_module
from polyrank.incidence import full_report
from polyrank.cli import main
from polyrank.poly import _from_decimal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------ subcommands

def test_rank_command(capsys):
    doc = run_json(capsys, "rank", "--poly", "x1*x3 + x2*x3^2", "--vars", "x1,x2,x3",
                   "--method", "exact")
    assert doc["overall"] == 2
    assert doc["spec_version"] == "1"
    assert doc["per_variable"] == {"x1": 2, "x2": 2, "x3": 2}


def test_special_command(capsys):
    doc = run_json(capsys, "special", "--poly", "x1*x2*x3", "--vars", "x1,x2,x3")
    assert doc["verdict"] == "special"


def test_moment_points_command(capsys):
    doc = run_json(capsys, "moment", "--d", "2", "--points", "0,1,2,3")
    assert doc["count"] == 2
    assert doc["theoretical_exponent"] == "3/2"


def test_moment_summary_command(capsys):
    doc = run_json(capsys, "moment", "--d", "3", "--summary")
    assert doc["rank_ok"] and doc["factorization_ok"]


def test_moment_summary_refuses_d_9(capsys, monkeypatch):
    monkeypatch.setattr(moment_module, "_vandermonde", lambda *args: pytest.fail("expanded"))
    code, out, err = run_cli(capsys, "moment", "--d", "9", "--summary")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("polyrank: error: ")
    assert "--d 9" in err and "3,628,800 terms" in err


def test_reduce_command(capsys):
    doc = run_json(capsys, "reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4",
                   "--pivot", "x1", "--seed", "3")
    assert doc["certified_rank"] == 2
    assert doc["kept"] == ["x2", "x3"]
    assert set(doc["fixed"]) == {"x4"}


def test_reduce_with_grid_sets(capsys):
    doc = run_json(capsys, "reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4",
                   "--pivot", "x1", "--sets", "interval:6")
    assert doc["certified_rank"] == 2
    assert 1 <= int(doc["fixed"]["x4"]) <= 6


def test_expand_command_json(capsys):
    doc = run_json(capsys, "expand", "--poly", "x1+x2+x3", "--vars", "x1,x2,x3",
                   "--n", "10,20,40", "--sets", "interval", "--workers", "1")
    assert doc["rank"] == 1
    assert doc["generator"] == "interval"


def test_expand_command_csv(capsys):
    code, out, err = run_cli(capsys, "expand", "--poly", "x1+x2+x3", "--vars", "x1,x2,x3",
                             "--n", "4,8,16", "--sets", "interval", "--output", "csv",
                             "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,image_size,elapsed_ms"
    assert [line.split(",")[:2] for line in lines[1:]] == [["4", "10"], ["8", "22"], ["16", "46"]]


def test_expand_degenerate_demo(capsys):
    doc = run_json(capsys, "expand", "--degenerate", "2", "--n", "5")
    assert doc["equal"] is True
    assert doc["sumset_size"] == 9


def test_incidence_command(capsys):
    doc = run_json(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                   "--sets", "1,2,3|1,2,3|1,2,3")
    assert doc["S"] == 27
    assert doc["S0"] == 0
    assert doc["curves"] == 9
    assert doc["incidences"] == 27
    assert doc["checks"]["all_ok"] is True


# ------------------------------------------------------------ error handling

def test_parse_error_is_computational(capsys):
    code, out, err = run_cli(capsys, "rank", "--poly", "x1 +", "--vars", "x1,x2")
    assert code == 1
    assert "error" in err
    assert out == ""


def test_usage_error_is_2(capsys):
    code, _, _ = run_cli(capsys, "rank", "--poly", "x1")  # missing --vars
    assert code == 2
    code, _, _ = run_cli(capsys, "definitely-not-a-command")
    assert code == 2


def test_precondition_violation_is_1(capsys):
    code, out, err = run_cli(capsys, "reduce", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                             "--pivot", "x1")
    assert code == 1
    assert "no reduction" in err


def test_expand_without_n_is_1():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrank", "expand", "--poly", "x1*x2+x3", "--vars", "x1,x2,x3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "--n" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--sets", "interval"),
    ("expand", "--degenerate", "2"),
    ("moment", "--d", "2"),
])
@pytest.mark.parametrize("n", ["4,abc,8", "4,,8", "3.5"])
def test_malformed_n_is_1(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv, "--n", n)
    assert (code, out) == (1, "")
    assert err == f"polyrank: error: --n must be comma-separated integers, got {n!r}\n"


@pytest.mark.parametrize("argv", [
    ("moment", "--d", "2", "--n", "2,3,4"),  # a size below d+1
    ("moment", "--d", "2", "--n", "8,6,10"),
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "2,3"),  # too few for the fit
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "4,3,5"),
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "0,1,2"),
])
def test_invalid_n_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("polyrank: error: --n ")
    assert repr(argv[-1]) in err


@pytest.mark.parametrize("points", ["0,abc,2", "1/0,1,2", "0,,2", ""])
def test_malformed_points_is_1(capsys, points):
    code, out, err = run_cli(capsys, "moment", "--d", "2", "--points", points)
    assert (code, out) == (1, "")
    assert err == f"polyrank: error: --points must be comma-separated rationals, got {points!r}\n"


@pytest.mark.parametrize("modes, message", [
    (("--points", "1,2,3", "--summary"), "argument --summary: not allowed with argument --points"),
    (("--points", "1,2,3", "--n", "3,4,5"), "argument --n: not allowed with argument --points"),
    (("--summary", "--n", "3,4,5"), "argument --n: not allowed with argument --summary"),
    ((), "one of the arguments --points --n --summary is required"),
])
def test_moment_takes_exactly_one_mode(capsys, modes, message):
    code, out, err = run_cli(capsys, "moment", "--d", "2", *modes)
    assert (code, out) == (2, "")
    assert err.endswith(f"polyrank moment: error: {message}\n")


@pytest.mark.parametrize("points, message", [
    ("1,1,2", "--points must be distinct rationals, got '1,1,2'"),
    ("1/2,2/4,3", "--points must be distinct rationals, got '1/2,2/4,3'"),
    ("1,2", "--points needs at least d+1 = 3 rationals, got '1,2'"),
])
def test_invalid_points_name_the_flag(capsys, points, message):
    code, out, err = run_cli(capsys, "moment", "--d", "2", "--points", points)
    assert (code, out) == (1, "")
    assert err == f"polyrank: error: {message}\n"


@pytest.mark.parametrize("sets, group", [("a,b|1|2", "a,b"), ("1/0|1|2", "1/0"), ("1,2||3", "")])
def test_invalid_sets_name_the_flag(capsys, sets, group):
    code, out, err = run_cli(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--sets", sets)
    assert (code, out) == (1, "")
    assert err == f"polyrank: error: --sets must be comma-separated rationals, got {group!r}\n"


@pytest.mark.parametrize("poly", ["(x1+2*x2+x3)^12 + x1*x2^2", "x1*x2 + x3"])
def test_special_ignores_trials(capsys, poly):
    argv = ("special", "--poly", poly, "--vars", "x1,x2,x3")
    outputs = {run_cli(capsys, *argv, *trials) for trials in ((), ("--trials", "1"), ("--trials", "9"))}
    assert len(outputs) == 1
    ((code, out, err),) = outputs
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "not_special"


@pytest.mark.parametrize("flag", ["--workers", "--budget"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_nonpositive_count_flags_are_usage_errors(capsys, flag, value):
    code, out, err = run_cli(capsys, "expand", "--poly", "x1*x2+x3", "--vars", "x1,x2,x3",
                             "--sets", "interval", "--n", "3,4,5", flag, value)
    assert code == 2
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize("argv", [
    ("rank", "--poly", "x1*x2", "--vars", "x1,x2", "--trials"),
    ("special", "--poly", "x1*x2", "--vars", "x1,x2", "--trials"),
    ("reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4", "--pivot", "x1", "--max-attempts"),
    ("moment", "--points", "1,2,3", "--d"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_trials_attempts_and_dimension_are_usage_errors(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, value)
    assert code == 2
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf", "1e308"])
def test_incidence_eps_outside_unit_interval_is_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                             "--sets", "interval:3", "--eps", value)
    assert code == 2
    assert out == ""
    assert "(0, 1]" in err


@pytest.mark.parametrize("poly, names, sets", [
    ("x1*x2 + x3", ("x1", "x2", "x3"), [[1, 2, 3]] * 3),
    # k = 2: a one-dimensional family, the trivial bound's branch
    ("x1*x2 + x2^2", ("x1", "x2"), [[1, 2, 3], [1, 2, 4]]),
])
def test_incidence_eps_sets_the_bound(capsys, poly, names, sets):
    text = "|".join(",".join(map(str, s)) for s in sets)
    doc = run_json(capsys, "incidence", "--poly", poly, "--vars", ",".join(names), "--sets", text, "--eps", "0.5")
    inst = build_instance(parse(poly, VarSet(names)), sets)
    assert doc["sz_ratio"] == bound_ratios(inst, eps=0.5)["sz_ratio"]


def test_explicit_sets_are_canonical_and_checked(capsys):
    from polyrank.cli import _parse_sets
    from polyrank.poly import VarSet

    sets = _parse_sets("3,-1/2,4/2|1/3", VarSet.of("x1", "x2"), seed=0)
    assert sets == [(Fraction(-1, 2), 2, 3), (Fraction(1, 3),)]
    assert [type(v) for v in sets[0]] == [Fraction, int, int]
    code, out, err = run_cli(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                             "--sets", "1,2,2/1|3|5")
    assert (code, out) == (1, "")
    assert err == "polyrank: error: explicit set 1, 2, 2 must list 3 distinct values\n"


@pytest.mark.parametrize("command", ["incidence", "reduce"])
@pytest.mark.parametrize("size", ["", "3.5", "three"])
def test_non_integer_set_size_is_1(capsys, command, size):
    argv = {"incidence": ("incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3"),
            "reduce": ("reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4", "--pivot", "x1")}
    code, out, err = run_cli(capsys, *argv[command], "--sets", f"interval:{size}")
    assert (code, out) == (1, "")
    assert err == f"polyrank: error: set size must be an integer, got {size!r}\n"


def test_incidence_budget_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                           "--sets", "interval:3", "--budget", "0")
    assert code == 2
    assert "positive integer" in err


def test_memory_error_is_1(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module("polyrank.cli"), "_cmd_rank", exhausted)
    code, out, err = run_cli(capsys, "rank", "--poly", "x1", "--vars", "x1")
    assert code == 1
    assert out == ""
    assert err == "polyrank: error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "10,20,2000000", "--sets", "random_int"),
    ("incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--sets", "interval:2000000"),
    ("expand", "--degenerate", "1", "--n", "2000000"),
])
def test_over_budget_grid_is_refused_before_any_set_is_drawn(capsys, monkeypatch, argv):
    fail = lambda *args, **kwargs: pytest.fail("a set was drawn or f ranked")
    for name in ("generate_set", "rank"):
        monkeypatch.setattr(importlib.import_module("polyrank.expansion"), name, fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "polyrank: error: grid has 8000000000000000000 tuples, over the budget of 100000000\n"


@pytest.mark.parametrize("argv", [
    ("moment", "--d", "5", "--n", "400", "--sets", "interval"),
    ("moment", "--d", "3", "--points", ",".join(map(str, range(1, 3001)))),
])
def test_over_budget_simplex_count_is_1(capsys, monkeypatch, argv):
    monkeypatch.setattr(moment_module, "combinations", lambda *args: pytest.fail("enumerated"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("polyrank: error: ")
    assert "simplices, over the budget of 100000000" in err


def test_literal_past_the_int_str_digit_limit(capsys):
    doc = run_json(capsys, "reduce", "--poly", "3^10000*x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4",
                   "--pivot", "x1")
    assert doc["certified_rank"] == 2


def test_points_past_the_int_str_digit_limit(capsys):
    doc = run_json(capsys, "moment", "--d", "1", "--points", "1," + "9" * 5000)
    assert doc["count"] == 1


def test_sets_past_the_int_str_digit_limit(capsys):
    doc = run_json(capsys, "incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3",
                   "--sets", "1,2|3," + "9" * 5000 + "|5")
    inst = build_instance(parse("x1*x2 + x3", VarSet.of("x1", "x2", "x3")), [[1, 2], [3, 10**5000 - 1], [5]])
    assert doc == {"spec_version": "1", **json.loads(json.dumps(full_report(inst)))}


def test_fixed_values_past_the_int_str_digit_limit(capsys):
    # the reduction fixes x4 to the one value of its set, an int or a ratio
    # too long for json.dumps, which the output still writes in full
    nines = "9" * 5000
    for value, expected in ((nines, 10**5000 - 1), ("1/" + nines, "1/" + nines)):
        code, out, err = run_cli(capsys, "reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4",
                                 "--pivot", "x1", "--sets", "1,2|3,4|5,6|" + value)
        assert code == 0, err
        assert json.loads(out, parse_int=_from_decimal)["fixed"]["x4"] == expected


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("POLYRANK_BUDGET", "10")
    code, out, err = run_cli(capsys, "expand", "--poly", "x1+x2+x3", "--vars", "x1,x2,x3",
                             "--n", "4,8,16", "--sets", "interval", "--workers", "1")
    assert code == 1
    assert "budget" in err.lower()
    monkeypatch.setenv("POLYRANK_BUDGET", "notanumber")
    code, _, err = run_cli(capsys, "expand", "--poly", "x1+x2+x3", "--vars", "x1,x2,x3",
                           "--n", "4,8,16", "--sets", "interval", "--workers", "1")
    assert code == 1


def test_explicit_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYRANK_BUDGET", "10")
    doc = run_json(capsys, "expand", "--poly", "x1+x2+x3", "--vars", "x1,x2,x3",
                   "--n", "4,8,16", "--sets", "interval", "--budget", "100000",
                   "--workers", "1")
    assert doc["rank"] == 1


# ------------------------------------------------------------ determinism

DETERMINISTIC_COMMANDS = [
    ("rank", "--poly", "x1*x3 + x2*x3^2", "--vars", "x1,x2,x3"),
    ("rank", "--poly", "x1*x3 + x2*x3^2", "--vars", "x1,x2,x3", "--method", "exact"),
    ("special", "--poly", "(x1 + x2^2 + x3^3)^2", "--vars", "x1,x2,x3"),
    ("reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4", "--pivot", "x1",
     "--seed", "11"),
    ("expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "4,6,8",
     "--sets", "random_int", "--workers", "1"),
    ("incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--sets", "interval:3"),
    ("moment", "--d", "2", "--points", "0,1,2,3"),
    ("moment", "--d", "2", "--n", "6,9,12", "--sets", "random_int", "--seed", "4"),
]


@pytest.mark.parametrize("argv", DETERMINISTIC_COMMANDS, ids=lambda a: a[0])
def test_repeated_runs_identical(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # every report is one valid JSON document


def test_module_entry_point_matches_programmatic(capsys):
    argv = ["rank", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--seed", "5"]
    _, programmatic, _ = run_cli(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "polyrank", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == programmatic
