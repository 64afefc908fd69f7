import copy
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sncalc.cli
import sncalc.projective
import sncalc.scenarios
from sncalc.casetable import load_cases, run_case_table
from sncalc.cli import main
from sncalc.errors import InvariantError
from sncalc.projective import QuadExt
from sncalc.reports import TAGS, Report
from sncalc.scenarios import _CHECKS, SCENARIO_NAMES, load_fixture, run_scenario


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenarios_pass(name):
    rep = run_scenario(name)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_case_table_passes():
    rep = run_case_table()
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_case_table_reports_an_f_infty_that_is_no_fiber():
    # B (0) and a (-2)-twig contract no further: the table reports the
    # stated fiber as failed and stops that case's ruling checks there
    fixture = copy.deepcopy(load_cases())
    case = next(c for c in fixture["cases"] if c["id"] == "X0")
    case["ruling"]["f_infty"] = {"B": 1, "T1_1": 1}
    checks = {c.name: c for c in run_case_table(fixture).checks}
    assert checks["X0.f_infty_is_fiber"].actual is False
    assert not checks["X0.f_infty_is_fiber"].passed
    assert not any(name.startswith("X0.f_") and name != "X0.f_infty_is_fiber" for name in checks)
    assert "X0.sigma_fujita" not in checks
    assert sum(name.endswith(".f_infty_mu") for name in checks) == 9  # the other cases


def test_case_table_zero_set():
    fixture = load_cases()
    zero_ids = {c["id"] for c in fixture["cases"] if c["d"]["zero"]}
    assert zero_ids == {"Y1a", "Y2a", "Y3a"}
    assert len(fixture["cases"]) == 13


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_fixture_provenance_discipline(name):
    fixture = load_fixture(name)
    for check_name, entry in fixture["checks"].items():
        assert entry["tag"] in TAGS, check_name
        if entry["tag"] == "stated":
            assert entry.get("ref"), f"{check_name} lacks an anchor"


def test_case_fixture_provenance_discipline():
    for case in load_cases()["cases"]:
        assert case["d"]["tag"] in TAGS
        if case["d"]["zero"]:
            assert case["d"]["ref"]
        if "ruling" in case:
            assert case["ruling"]["ref"]


def test_mutated_fixture_reports_failures():
    fixture = copy.deepcopy(load_fixture("y333"))
    fixture["boundary"].remove("T11")
    fixture["ruling_curves"].remove("T11")
    rep = run_scenario("y333", fixture)
    assert not rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["k_plus_sharp_zero"].passed
    assert not by_name["d_boundary"].passed
    # untouched coordinate-level facts still hold
    assert by_name["theorem_collinearities"].passed


def test_run_scenario_survives_broken_arrangement():
    fixture = copy.deepcopy(load_fixture("y244"))
    fixture["arrangement"] = "nonexistent.arr"
    rep = run_scenario("y244", fixture)
    assert not rep.passed
    assert all(not c.passed for c in rep.checks)


def test_check_registry_matches_the_fixtures():
    # every check head the fixtures use has one entry, and no entry is unused
    heads = {
        check_name.partition(":")[0]
        for name in SCENARIO_NAMES
        for check_name in load_fixture(name)["checks"]
    }
    assert heads == set(_CHECKS)


def test_each_ruling_is_decomposed_once(monkeypatch):
    real = sncalc.scenarios.ruling_decompose
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sncalc.scenarios, "ruling_decompose", counting)
    # y244: main, open and second ruling; y333: main and open
    for name, rulings in (("y244", 3), ("y333", 2)):
        calls.clear()
        assert run_scenario(name).passed
        assert len(calls) == rulings, name


def test_k_plus_sharp_is_computed_once_per_scenario(monkeypatch, capsys):
    # the k_plus_sharp_zero and Kobayashi checks share one K + D# per scenario
    real = sncalc.scenarios.k_plus_sharp_class
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sncalc.scenarios, "k_plus_sharp_class", counting)
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    assert len(calls) == len(SCENARIO_NAMES) == 2


def test_unknown_check_is_reported():
    fixture = copy.deepcopy(load_fixture("y244"))
    fixture["checks"]["no_such:1"] = {"expect": 1, "tag": "direct"}
    rep = run_scenario("y244", fixture)
    failed = [(c.name, c.actual) for c in rep.checks if not c.passed]
    assert failed == [("no_such:1", "error: \"unknown check 'no_such:1'\"")]


def test_reports_are_deterministic():
    a = run_scenario("y244").render()
    b = run_scenario("y244").render()
    assert a == b
    assert run_case_table().render() == run_case_table().render()


# sha256 of the `verify all` stdout, text and --json; a refactor of the
# scenario runner must leave both byte for byte unchanged
VERIFY_ALL_SHA256 = {
    "text": "9cae7772213935212915b3cb82189ed6fd1f4544088b70ffb29b93ce682182eb",
    "json": "3102485bfe22521037e5698982aef919070b4f0ec119ee7fb198d64285719cb9",
}


def test_verify_all_output_is_pinned(capsys):
    for key, argv in (("text", ["verify", "all"]), ("json", ["--json", "verify", "all"])):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[key], key


def test_python_m_sncalc_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sncalc.cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "sncalc", "verify", "all"], capture_output=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == VERIFY_ALL_SHA256["text"]


# QuadExt arithmetic in one `verify all`; it was 11,731 while projective
# equality took 2x2 minors instead of comparing scaled coordinates, and
# 8,719 while the dual Hesse check evaluated each incidence up to three times,
# and 7,855 while the 3x3 determinant expanded six terms, and 7,792 while the
# dot, matrix-vector, cross and pencil kernels and the scaling of points went
# through these operators
VERIFY_ALL_QUADEXT_OPS = 74
# canonical Q(eps) elements built (`projective._quad` calls) in one `verify
# all`, which the kernels make without the operators above; it was 7,751
# while they built one per product and partial sum, and the automorphism
# check applied the order-3 map 35 times for its 12 point images
VERIFY_ALL_QUAD_CALLS = 1568
QUADEXT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "inverse",
)


def test_verify_all_quadext_operation_count(monkeypatch, capsys):
    # the Q(eps) work of one `verify all`, counted rather than timed so the
    # bound does not depend on the machine
    count = 0

    def counting(fn):
        def wrapper(*args):
            nonlocal count
            count += 1
            return fn(*args)

        return wrapper

    for name in QUADEXT_OPS:
        monkeypatch.setattr(QuadExt, name, counting(QuadExt.__dict__[name]))
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    assert 0 < count <= VERIFY_ALL_QUADEXT_OPS


def test_verify_all_canonicalisation_count(monkeypatch, capsys):
    # every Q(eps) result entry is canonicalised once, through `_quad`
    count = 0
    real = sncalc.projective._quad

    def counting(a, b, d):
        nonlocal count
        count += 1
        return real(a, b, d)

    monkeypatch.setattr(sncalc.projective, "_quad", counting)
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    assert 0 < count <= VERIFY_ALL_QUAD_CALLS


def test_report_tag_validation():
    rep = Report("t")
    with pytest.raises(ValueError, match="tag"):
        rep.add("x", 1, 1, "guessed")
    with pytest.raises(ValueError, match="anchor"):
        rep.add("x", 1, 1, "stated", "")


def test_report_json_round_trip():
    rep = run_scenario("y244")
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert payload["total_count"] == len(rep.checks)


# -- CLI ---------------------------------------------------------------


def test_cli_det(capsys):
    assert main(["det", "y1a.graph"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_det_with_support(capsys):
    assert main(["det", "y1a.graph", "--support", "T1_1,T2_1"]) == 0
    assert capsys.readouterr().out == "9\n"


def test_cli_mumford(capsys):
    assert main(["mumford", "chain22.graph"]) == 0
    assert capsys.readouterr().out == "invariant factors: 3\n"


def test_cli_classify(capsys):
    assert main(["classify", "y2c.graph"]) == 0
    assert capsys.readouterr().out == "Y(2, 4, 4)\n"


def test_cli_fiber_check(capsys):
    assert main(["fiber-check", "fiber212.graph"]) == 0
    out = capsys.readouterr().out
    assert "valid fiber" in out and "v2=2" in out
    assert main(["fiber-check", "y1a.graph"]) == 1


def test_cli_bark(capsys):
    assert main(["bark", "y2c.graph"]) == 0
    out = capsys.readouterr().out
    assert "T1_1 1/2" in out


def test_cli_dot(capsys):
    assert main(["dot", "chain22.graph"]) == 0
    assert "--" in capsys.readouterr().out


def test_cli_arr_run(capsys):
    assert main(["arr", "run", "y244.arr"]) == 0
    out = capsys.readouterr().out
    assert "rank 9" in out and "self=-2" in out


def test_cli_verify_all(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY all: PASS" in out


def test_cli_verify_json(capsys):
    assert main(["--json", "verify", "y333"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_cli_json_outputs_parse(capsys):
    for argv in (
        ["--json", "det", "y1a.graph"],
        ["--json", "mumford", "chain22.graph"],
        ["--json", "classify", "y2c.graph"],
        ["--json", "fiber-check", "fiber212.graph"],
        ["--json", "arr", "run", "y333.arr"],
    ):
        assert main(argv) == 0
        json.loads(capsys.readouterr().out)


def test_cli_input_errors(capsys, tmp_path):
    assert main(["det", "no_such_file.graph"]) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a\n")
    assert main(["det", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("path", ["../__init__.py", "../fixtures/y1a.graph", "cli.py"])
def test_cli_bundled_lookup_stays_in_fixtures(capsys, monkeypatch, tmp_path, path):
    # only a bare file name falls back to the bundled fixtures; a path that
    # leaves them, or names a package file, is no such file
    monkeypatch.chdir(tmp_path)
    assert main(["det", path]) == 2
    assert capsys.readouterr().err == f"error: no such file: {path} (also not a bundled fixture)\n"
    assert main(["det", "y1a.graph"]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize("argv", [["det"], ["arr", "run"]], ids=["det", "arr-run"])
def test_cli_unreadable_input_exits_2(capsys, tmp_path, argv):
    # a directory is an unreadable file, not a defect in the package
    assert main([*argv, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "exc, first_line",
    [
        (InvariantError("Smith form: s is not diagonal"), "InvariantError: Smith form"),
        (RuntimeError("boom\nsecond line"), "RuntimeError: boom second line"),
    ],
    ids=["invariant", "unexpected"],
)
def test_cli_internal_error_exits_3(capsys, monkeypatch, exc, first_line):
    # a defect in the package is neither bad input (2) nor a failed check (1)
    def broken(name):
        raise exc

    monkeypatch.setattr(sncalc.cli, "run_scenario", broken)
    assert main(["verify", "y244"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {first_line}")
    assert err.count("\n") == 1


def test_cli_verify_all_is_fast(capsys):
    import time

    t0 = time.perf_counter()
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    assert time.perf_counter() - t0 < 60.0


def test_every_fixture_is_named():
    # a fixture that no module, no other fixture, the README or a test names
    # is a tracked file the package does not use; the scenario files are
    # named as `{scenario}.json` by `load_fixture`
    package = Path(sncalc.scenarios.__file__).resolve().parent
    guard = Path(__file__).resolve()
    paths = [
        *(p for p in package.rglob("*") if p.suffix in {".py", ".json", ".arr", ".graph"}),
        guard.parents[1] / "README.md",
        *guard.parent.glob("*.py"),
    ]
    texts = {path: path.read_text() for path in paths}
    texts[guard] = texts[guard].replace(inspect.getsource(test_every_fixture_is_named), "")
    scenario_files = {f"{name}.json" for name in SCENARIO_NAMES}
    unnamed = [
        fixture.name
        for fixture in sorted((package / "fixtures").iterdir())
        if fixture.name not in scenario_files
        and not any(fixture.name in text for path, text in texts.items() if path != fixture)
    ]
    assert unnamed == []
