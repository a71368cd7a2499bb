"""Configuration parsing, report rendering, CLI subcommands, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from revdeg.config import ConfigError, example_config_text, load_example, parse_config
from revdeg.report import parse_labeled_element, parse_rendered, run_analyze


def test_example_config_parses():
    cfg = load_example()
    assert cfg.group_kind == "dihedral" and cfg.group_n == 8
    assert cfg.delays_m == 1
    assert cfg.mu["plane"] == (-3,)
    assert cfg.domain is not None
    assert cfg.domain.published_grad_bounds == (4.0, 21.0)


def test_reversibility_violation_reported():
    raw = json.loads(example_config_text())
    raw["delays_m"] = 3
    raw["mu"]["plane"] = ["-3", "1", "2"]
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(raw))
    assert any("reversibility" in p for p in ei.value.problems)


def test_eta4_violation_reported():
    raw = json.loads(example_config_text())
    raw["domain"]["terms"] = [[2, 4, 0, "cos"], [1, 0, 0, "cos"]]  # eta(0) = 1
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(raw))
    assert any("origin" in p for p in ei.value.problems)


def test_unknown_selector_and_bad_mu_collected():
    raw = json.loads(example_config_text())
    raw["representation"][0]["irrep"] = "sideways"
    raw["mu"] = {"plane": ["-3", "oops"]}
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(raw))
    assert len(ei.value.problems) >= 2


def test_analyze_gates_on_geometry():
    doc = run_analyze(load_example(), skip_geometry=False)
    assert doc.exit_code == 20
    assert doc.degrees is None


def test_analyze_with_override_and_roundtrip(engine8):
    doc = run_analyze(load_example(), skip_geometry=True, engine=engine8)
    assert doc.exit_code == 0
    assert doc.watermark == "hypotheses unverified"
    om = doc.degrees.omega
    assert parse_labeled_element(engine8.lattice, om.labeled()).coeffs == om.coeffs
    assert parse_rendered(engine8.lattice, om.render()).coeffs == om.coeffs
    # machine output is valid JSON and echoes the certificates
    md = doc.machine_dict()
    assert len(md["degrees"]["certificates"]) == 3


def test_machine_output_deterministic(engine8):
    a = run_analyze(load_example(), skip_geometry=True, engine=engine8).machine_text()
    b = run_analyze(load_example(), skip_geometry=True, engine=engine8).machine_text()
    assert a == b


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "revdeg.cli", *args],
                          capture_output=True, text=True)


def test_cli_group_info():
    r = _cli("group-info")
    assert r.returncode == 0
    assert "38 classes" in r.stdout
    assert "D4dh" in r.stdout and "Z2m" in r.stdout


def test_cli_group_info_matches_recorded_output():
    # the example's table, byte for byte as recorded before the subgroups
    # were enumerated by bitmask closure
    want = (Path(__file__).parent / "data" / "group_info_example.txt").read_text()
    r = _cli("group-info", "--config", "example")
    assert r.returncode == 0
    assert r.stdout == want


def test_python_dash_m_revdeg():
    r = subprocess.run([sys.executable, "-m", "revdeg", "group-info", "--config", "example"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "38 classes" in r.stdout


def test_cli_geometry_check_exit_code():
    r = _cli("geometry-check", "--grid", "512")
    assert r.returncode == 20  # honest A4 failure on the octagonal example


def test_cli_figure_data():
    r = _cli("figure-data", "--grid", "16")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "theta,boundary_r,kappa,grad_norm,grad_norm_plus_kappa"
    assert len(lines) == 17
    first = [float(v) for v in lines[1].split(",")]
    assert abs(first[1] - 1.0) < 1e-9 and abs(first[2] - 17.0) < 1e-6


def test_cli_burnside_mul():
    r = _cli("burnside-mul", "--left", "deg:0", "--right", "deg:0",
             "--truncation", "32")
    assert r.returncode == 0
    assert r.stdout.strip() == "(G)"


def test_cli_basic_degree_sizes_level_by_mode():
    # mode 2 of the D8 example has fold 16, too close to level 32 of modes 0/1
    default = _cli("basic-degree", "--mode", "2")
    explicit = _cli("basic-degree", "--mode", "2", "--truncation", "64")
    assert default.returncode == 0, default.stderr
    assert explicit.returncode == 0, explicit.stderr
    assert default.stdout.startswith("deg[V(2,")
    assert default.stdout == explicit.stdout


def test_cli_analyze_truncation_sets_the_levels():
    # --truncation sets the analyze levels as it does every other
    # subcommand's; the example's default level is 32, and the degrees do
    # not depend on the level
    base = ("analyze", "--format", "machine", "--unsafe-skip-geometry")
    default, at_32, at_64 = (_cli(*base, *flag) for flag in
                             ((), ("--truncation", "32"), ("--truncation", "64")))
    for r in (default, at_32, at_64):
        assert r.returncode == 0, r.stderr
    assert json.loads(default.stdout)["truncation_levels"] == [32, 64]
    assert at_32.stdout == default.stdout
    report = json.loads(at_64.stdout)
    assert report.pop("truncation_levels") == [64, 128]
    assert report == {k: v for k, v in json.loads(default.stdout).items()
                      if k != "truncation_levels"}


def test_cli_basic_degree_mode4():
    # D8 mode 4 sizes the level to 128; its truncation groups keep no
    # |G|^2 table
    r = _cli("basic-degree", "--config", "example", "--mode", "4")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("deg[V(4,")


def test_configured_fold_search_bound_reaches_existence_analysis():
    # mu = -1 makes xi_1 = 0 exactly, so the least admissible fold is s = 2,
    # above a configured search bound of 1
    raw = json.loads(example_config_text())
    raw["mu"]["plane"] = ["-1"]
    raw["degenerate_search_bound"] = 1
    doc = run_analyze(parse_config(json.dumps(raw)), skip_geometry=True)
    assert doc.degrees.degenerate and doc.degrees.degenerate_fold is None
    assert ("degenerate spectrum: no admissible fold s found within the "
            "search bound") in doc.notes
    raw["degenerate_search_bound"] = 2
    doc = run_analyze(parse_config(json.dumps(raw)), skip_geometry=True)
    assert doc.degrees.degenerate_fold == 2
    assert "degenerate spectrum: using fold s = 2" in doc.notes


def test_cli_bad_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    r = _cli("analyze", "--config", str(p))
    assert r.returncode == 30


def test_cli_oracle_stability():
    r = _cli("oracle-stability", "--truncation", "32")
    assert r.returncode == 0
    assert "stability diff empty" in r.stdout


def test_cli_out_directory_checked_before_work(tmp_path, monkeypatch, capsys):
    from revdeg import cli

    def no_work(*args, **kwargs):
        raise AssertionError("analyze ran before --out was checked")

    monkeypatch.setattr(cli, "run_analyze", no_work)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--format", "machine", "--out", str(missing / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: revdeg analyze" in err
    assert str(missing) in err
    assert not missing.exists()


def _typed_failures():
    from revdeg.burnside import InconsistentDegreeData
    from revdeg.chars import NonIntegralAverage
    from revdeg.degrees import IncompleteLattice, RouteDisagreement
    from revdeg.lattice import ClassEscape, InadmissibleLevel, TruncationInstability
    from revdeg.spectra import SignNotCertified

    return [(TruncationInstability("levels differ"), 32),
            (IncompleteLattice("not certified"), 33),
            (RouteDisagreement("routes differ"), 34),
            (SignNotCertified("sign undecided"), 35),
            (NonIntegralAverage("not an integer"), 36),
            (InconsistentDegreeData("non-integer coefficient"), 37),
            (ClassEscape(["(D1 x Z1)"]), 38),
            (InadmissibleLevel("level not divisible"), 39),
            (ValueError("anything else"), 31)]


@pytest.mark.parametrize("failure, code", _typed_failures(),
                         ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_cli_exit_code_per_failure(monkeypatch, capsys, failure, code):
    from revdeg import cli

    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "run_analyze", fail)
    assert cli.main(["analyze", "--unsafe-skip-geometry"]) == code
    assert f"{type(failure).__name__}: {failure}" in capsys.readouterr().err


def test_cli_exit_codes_distinct_and_documented():
    from pathlib import Path

    from revdeg import cli

    codes = list(cli.EXIT_FAILURES.values())
    assert sorted(codes) == list(range(32, 40))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for exc, code in cli.EXIT_FAILURES.items():
        assert f"| `{code}` | `{exc.__name__}` |" in readme


def test_cli_real_failures_exit_with_their_codes(capsys):
    from revdeg import cli

    # level 12 is too coarse for the mode-2 folds; 30 is not divisible by 4
    assert cli.main(["basic-degree", "--mode", "2", "--truncation", "12"]) == 32
    assert cli.main(["basic-degree", "--mode", "0", "--truncation", "30"]) == 39
    err = capsys.readouterr().err
    assert "TruncationInstability: fold 4 too close" in err
    assert "InadmissibleLevel: base level 30" in err


@pytest.mark.parametrize("key,value,message", [
    ("truncation_base", "64", "truncation_base must be an integer >= 1, got '64'"),
    ("truncation_base", -8, "truncation_base must be an integer >= 1, got -8"),
    ("boundary_grid", "abc", "boundary_grid must be an integer >= 2, got 'abc'"),
    ("boundary_grid", 0, "boundary_grid must be an integer >= 2, got 0"),
    ("boundary_grid", 1, "boundary_grid must be an integer >= 2, got 1"),
    ("degenerate_search_bound", "x", "degenerate_search_bound must be an integer >= 0, got 'x'"),
    ("tolerances", {"stab": "tight"}, "tolerances must map names to numbers"),
    ("irrep", "minus_index:x", "the index must be a nonnegative integer"),
    ("irrep", "minus_index:99", "dihedral:8 has 7 minus components"),
])
def test_cli_bad_config_values_exit_30(tmp_path, capsys, key, value, message):
    # every bad value is a configuration error (exit 30), not an internal
    # error (exit 31); geometry is not skipped, so an out-of-range component
    # index must be refused before the geometry gate
    from revdeg import cli

    raw = json.loads(example_config_text())
    if key == "irrep":
        raw["representation"][0]["irrep"] = value
    else:
        raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["analyze", "--config", str(p)]) == 30
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert message in err
