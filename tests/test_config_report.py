"""Configuration parsing, report rendering, CLI subcommands, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import parse_labeled_element, parse_rendered
from revdeg.chars import character_table
from revdeg.config import (ConfigError, example_config_text, linearization_spec, load_example,
                           parse_config)
from revdeg.report import run_analyze
from revdeg.spectra import MAX_CUTOFF, LinearizationSpec, cutoff


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


def test_cli_group_info_on_a_cyclic_gamma_matches_recorded_output(tmp_path):
    # Z6: a cyclic Gamma, whose classes keep their own o<order>c<id> names
    from revdeg import cli

    p, out = tmp_path / "z6.json", tmp_path / "group_info.txt"
    p.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 6}, "delays_m": 1,
        "representation": [{"label": "p", "irrep": "natural", "multiplicity": 1}],
        "mu": {"p": ["-3"]}}))
    assert cli.main(["group-info", "--config", str(p), "--out", str(out)]) == 0
    assert out.read_text() == (Path(__file__).parent / "data" / "group_info_z6.txt").read_text()


def test_python_dash_m_revdeg():
    r = subprocess.run([sys.executable, "-m", "revdeg", "group-info", "--config", "example"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "38 classes" in r.stdout


def test_cli_geometry_check_exit_code():
    r = _cli("geometry-check", "--grid", "512")
    assert r.returncode == 20  # honest A4 failure on the octagonal example


def test_cli_geometry_check_fails_growth_conditions_with_infinite_constants(tmp_path, capsys):
    # mu = 1e308 makes K infinite; A5 and A6prime were "pass" whatever
    # their constants were
    from revdeg import cli

    raw = json.loads(example_config_text())
    raw["mu"]["plane"] = ["1e308"]
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["geometry-check", "--config", str(p), "--grid", "512"]) == 20
    lines = capsys.readouterr().out.splitlines()
    assert "A5: fail" in lines and "A6prime: fail" in lines
    assert "K = inf" in lines
    # the example's finite constants still pass them
    assert cli.main(["geometry-check", "--grid", "512"]) == 20
    lines = capsys.readouterr().out.splitlines()
    assert "A5: pass" in lines and "A6prime: pass" in lines


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


@pytest.mark.parametrize("command", ["analyze", "group-info", "geometry-check"])
@pytest.mark.parametrize("case,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("latin-1", "'utf-8' codec can't decode byte 0xe9"),
])
def test_cli_unreadable_config_exits_30(tmp_path, capsys, command, case, reason):
    # a --config that cannot be read is a configuration error naming the
    # path and the reason, not an internal error (exit 31)
    from revdeg import cli

    path = tmp_path / case
    if case == "directory":
        path.mkdir()
    elif case == "latin-1":
        path.write_bytes('{"group": "é"}'.encode("latin-1"))
    assert cli.main([command, "--config", str(path)]) == 30
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"invalid configuration:\n  cannot read --config {str(path)!r}: {reason}")


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
    from revdeg.lattice import InadmissibleLevel, TruncationInstability
    from revdeg.spectra import SignNotCertified

    return [(TruncationInstability("levels differ"), 32),
            (IncompleteLattice("not certified"), 33),
            (RouteDisagreement("routes differ"), 34),
            (SignNotCertified("sign undecided"), 35),
            (NonIntegralAverage("not an integer"), 36),
            (InconsistentDegreeData("non-integer coefficient"), 37),
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

    # 38 (a product leaving the working set) is retired and not reused
    codes = list(cli.EXIT_FAILURES.values())
    assert sorted(codes) == [c for c in range(32, 40) if c != 38]
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


def _config_message(key, value):
    """The message parse_config gives the example with key set to value."""
    raw = json.loads(example_config_text())
    raw[key] = value
    with pytest.raises(ConfigError) as ei:
        parse_config(json.dumps(raw))
    return ei.value.problems[0]


@pytest.mark.parametrize("argv,message", [
    # --grid and --truncation are refused as boundary_grid and truncation_base
    (["geometry-check", "--grid", "1"], _config_message("boundary_grid", 1)),
    (["geometry-check", "--grid", "0"], _config_message("boundary_grid", 0)),
    (["geometry-check", "--grid", "-3"], _config_message("boundary_grid", -3)),
    (["figure-data", "--grid", "0"], _config_message("boundary_grid", 0)),
    (["figure-data", "--grid", "-3"], _config_message("boundary_grid", -3)),
    (["analyze", "--truncation", "-4"], _config_message("truncation_base", -4)),
    (["analyze", "--truncation", "0"], _config_message("truncation_base", 0)),
    (["basic-degree", "--mode", "-1"], "mode must be an integer >= 0, got -1"),
    (["burnside-mul", "--left", "deg:-1", "--right", "deg:0"],
     "mode must be an integer >= 0, got -1"),
    (["burnside-mul", "--left", "(nosuch)", "--right", "deg:0", "--truncation", "32"],
     "unknown class label '(nosuch)'; known labels: "),
])
def test_cli_bad_arguments_exit_30(capsys, argv, message):
    # a bad command-line value is refused like a bad configuration value:
    # exit 30, the field's message, nothing on standard output
    from revdeg import cli

    assert cli.main(argv) == 30
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration:")
    assert message in err


@pytest.mark.parametrize("key,value,message", [
    ("truncation_base", "64", "truncation_base must be an integer >= 1, got '64'"),
    ("truncation_base", -8, "truncation_base must be an integer >= 1, got -8"),
    ("boundary_grid", "abc", "boundary_grid must be an integer >= 2, got 'abc'"),
    ("boundary_grid", 0, "boundary_grid must be an integer >= 2, got 0"),
    ("boundary_grid", 1, "boundary_grid must be an integer >= 2, got 1"),
    ("degenerate_search_bound", "x", "degenerate_search_bound must be an integer >= 0, got 'x'"),
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


@pytest.mark.parametrize("text,message", [
    ("[]", "the configuration must be an object, got []"),
    ('{"group": []}', "group must be an object, got []"),
    ('{"representation": ["natural"]}',
     "a representation entry must be an object, got 'natural'"),
    ('{"mu": []}', "mu must be an object, got []"),
], ids=["top-level", "group", "representation-entry", "mu"])
def test_cli_non_object_config_blocks_exit_30(tmp_path, capsys, text, message):
    # each of these exited 31 with an AttributeError
    from revdeg import cli

    p = tmp_path / "config.json"
    p.write_text(text)
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", str(p)]) == 30
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert message in err


def test_cli_two_entries_on_one_component_exit_30(tmp_path, capsys):
    # both labels resolve to D4's natural component; the spectrum kept only
    # the last entry's mu row and exited 10
    from revdeg import cli

    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "group": {"kind": "dihedral", "n": 4}, "delays_m": 1,
        "representation": [{"label": "a", "irrep": "natural", "multiplicity": 1},
                           {"label": "b", "irrep": "natural", "multiplicity": 1}],
        "mu": {"a": ["-3"], "b": ["5"]}}))
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", str(p)]) == 30
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "representation entries 'a' and 'b' are both minus component" in err


@pytest.mark.parametrize("entry", ["1/0", "1e400"])
def test_cli_mu_entry_beyond_a_finite_float_exits_30(tmp_path, capsys, entry):
    # "1/0" raised ZeroDivisionError while parsing; "1e400" parsed as an
    # exact Fraction and raised OverflowError in the spectrum; both exited 31
    from revdeg import cli

    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "group": {"kind": "dihedral", "n": 4}, "delays_m": 5,
        "representation": [{"label": "p", "irrep": "natural", "multiplicity": 1}],
        "mu": {"p": [entry, "-1", "-9", "-9", "-1"]}}))
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", str(p)]) == 30
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration:")
    assert "mu row for 'p' is not numeric and finite" in err


@pytest.mark.parametrize("entry", ["1e308", "-1e200"])
def test_cli_cutoff_above_its_cap_exits_30(tmp_path, capsys, entry):
    # "1e308" raised OverflowError taking the cutoff in floats (exit 31);
    # at "-1e200" its loop stepped K* by 1 below float resolution and never
    # ended.  K* is now exact, and one above MAX_CUTOFF is refused at once
    from revdeg import cli

    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "group": {"kind": "dihedral", "n": 4}, "delays_m": 2,
        "representation": [{"label": "p", "irrep": "natural", "multiplicity": 1}],
        "mu": {"p": [entry, entry]}}))
    start = time.monotonic()
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", str(p)]) == 30
    assert time.monotonic() - start < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid configuration:")
    assert f"the spectral cutoff K* is above {MAX_CUTOFF}" in err


@pytest.mark.parametrize("total,kstar", [(MAX_CUTOFF ** 2 - Fraction(1, 3), MAX_CUTOFF),
                                         (MAX_CUTOFF ** 2, None)])
def test_cutoff_cap_is_exact(total, kstar):
    # K* = isqrt(floor(sum |mu_j|)) + 1 over Fractions, so the cap falls
    # exactly at a sum of MAX_CUTOFF ** 2; a float entry enters exactly
    cfg = parse_config(json.dumps({
        "group": {"kind": "dihedral", "n": 4}, "delays_m": 2,
        "representation": [{"label": "p", "irrep": "natural", "multiplicity": 1}],
        "mu": {"p": [str(-total / 2)] * 2}}))
    table = character_table("dihedral", 4)
    if kstar is None:
        with pytest.raises(ConfigError, match="spectral cutoff K"):
            linearization_spec(cfg, table)
    else:
        assert cutoff(linearization_spec(cfg, table)) == kstar
    spec = LinearizationSpec(1, {0: (0.1,)}, {0: 1})
    assert spec.abs_mu_sum(0) == Fraction(0.1) and cutoff(spec) == 1


def _one_entry_config(tmp_path, kind, n, m, irrep, mu):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "group": {"kind": kind, "n": n}, "delays_m": m,
        "representation": [{"label": "p", "irrep": irrep, "multiplicity": 1}],
        "mu": {"p": mu}}))
    return str(p)


@pytest.mark.parametrize("kind,n", [("dihedral", 1), ("dihedral", 2),
                                    ("cyclic", 1), ("cyclic", 2)])
def test_cli_natural_without_a_plane_irrep_exits_30(tmp_path, capsys, kind, n):
    # D1, D2, Z1 and Z2 have no 2-dimensional irrep: "natural" is a listed
    # configuration problem, not an internal error
    from revdeg import cli

    p = _one_entry_config(tmp_path, kind, n, 1, "natural", ["-3"])
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", p]) == 30
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert f"irrep 'natural' for 'p': {kind}:{n} has no 2-dimensional natural component" in err


def test_cli_oracle_stability_on_a_gamma_without_a_plane_irrep(tmp_path, capsys):
    # oracle-stability picks its component as basic-degree does, so it runs
    # wherever analyze runs
    from revdeg import cli

    p = _one_entry_config(tmp_path, "dihedral", 2, 1, "gamma_trivial", ["-3"])
    assert cli.main(["analyze", "--unsafe-skip-geometry", "--config", p]) == 0
    assert cli.main(["oracle-stability", "--config", p]) == 0
    assert "stability diff empty over" in capsys.readouterr().out


@pytest.mark.parametrize("kind,n,irrep,mu", [
    ("cyclic", 5, "gamma_trivial", ["1", "-12", "-1", "-1", "-12"]),
    ("dihedral", 4, "natural", ["-5", "-1", "-9", "-9", "-1"]),
])
def test_cli_exactly_degenerate_mode_outside_the_exact_delay_counts(
        tmp_path, capsys, kind, n, irrep, mu):
    # m = 5: at k = 5 every cos(2 pi j k / m) is 1, so xi = 0 exactly; the
    # mode is computed exactly and the spectrum is degenerate, not refused
    # as an uncertified sign (exit 35)
    from revdeg import cli
    from revdeg.spectra import LinearizationSpec, spectral_summary, xi

    spec = LinearizationSpec(5, {0: tuple(Fraction(v) for v in mu)}, {0: 1})
    assert xi(spec, 5, 0) == 0 and isinstance(xi(spec, 1, 0), float)
    assert 5 in spectral_summary(spec).degenerate_modes
    p = _one_entry_config(tmp_path, kind, n, 5, irrep, mu)
    code = cli.main(["analyze", "--unsafe-skip-geometry", "--format", "machine", "--config", p])
    assert code == (10 if kind == "cyclic" else 0)
    assert "SignNotCertified" not in capsys.readouterr().err


def _set(*path):
    """An edit of a configuration's text: the value at path[:-1] set to
    path[-1]."""
    *keys, last, value = path

    def edit(text):
        raw = json.loads(text)
        node = raw
        for key in keys:
            node = node[key]
        node[last] = value
        return json.dumps(raw)
    return edit


def _replace(old, new):
    """An edit of a configuration's text, for values json.dumps does not
    write (1e309)."""
    return lambda text: text.replace(old, new)


@pytest.mark.parametrize("edit,message", [
    (_set("group", "n", True), "group.n must be an integer >= 1, got True"),
    (_set("delays_m", True), "delays_m must be an integer >= 1, got True"),
    (_set("representation", 0, "multiplicity", True),
     "multiplicity for 'plane' must be an integer >= 0, got True"),
    (_replace('"-3"', "NaN"), "mu row for 'plane' is not numeric and finite"),
    (_replace('"-3"', "1e309"), "mu row for 'plane' is not numeric and finite"),
    (_replace('"-3"', '"1/0"'), "mu row for 'plane' is not numeric and finite"),
    (_replace('"-3"', '"1e400"'), "mu row for 'plane' is not numeric and finite"),
    (_set("domain", "symmetry", 0), "domain.symmetry must be an integer >= 1, got 0"),
    (_set("domain", "R", -1), "domain.R must be finite and > 0, got -1"),
    (_replace('"R": 1.0', '"R": 1e309'), "domain.R must be finite and > 0, got inf"),
    (_replace('"R": 1.0', '"R": NaN'), "domain.R must be finite and > 0, got nan"),
    (_set("domain", "published_grad_bounds", 5),
     "domain.published_grad_bounds must be two finite numbers, got 5"),
    (_set("domain", "published_grad_bounds", [4, "21"]),
     "domain.published_grad_bounds must be two finite numbers, got [4, '21']"),
    (_set("domain", "terms", 1, 3, "tan"),
     "bad domain block: term kind must be 'cos' or 'sin', got 'tan'"),
    (_set("domain", "star_shaped", False),
     "domain.star_shaped must be true (the boundary is solved along rays), got False"),
    (_set("family", False), "family must be true (omit domain to skip the geometry), got False"),
    (_set("domain", "R", 0.5), "NotStarShaped: no sign change along theta = 0.0"),
], ids=["n-true", "delays-true", "multiplicity-true", "mu-nan", "mu-inf",
        "mu-zero-denominator", "mu-1e400", "symmetry-0", "R-negative", "R-inf", "R-nan",
        "grad-bounds-5", "grad-bounds-string", "term-tan", "star-shaped-false", "family-false",
        "R-inside-domain"])
@pytest.mark.parametrize("command", ["analyze", "geometry-check", "figure-data"])
def test_cli_bad_domain_and_integer_values_exit_30(tmp_path, capsys, command, edit, message):
    # each of these exited 31 (an internal error) or ran on as if valid:
    # "1/0" raised ZeroDivisionError, "1e400" OverflowError and a grad
    # bound of 5 TypeError; the last is a valid configuration whose
    # boundary the geometry cannot solve
    from revdeg import cli

    p = tmp_path / "config.json"
    p.write_text(edit(example_config_text()))
    assert cli.main([command, "--config", str(p)]) == 30
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["geometry-check", "figure-data"])
def test_cli_no_domain_is_a_configuration_error(tmp_path, capsys, command):
    # the message was written as output: with --out it became the file
    from revdeg import cli

    raw = json.loads(example_config_text())
    del raw["domain"]
    p, out = tmp_path / "config.json", tmp_path / "out.csv"
    p.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(p), "--out", str(out)]) == cli.EXIT_CONFIG == 30
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "no domain in configuration" in err
