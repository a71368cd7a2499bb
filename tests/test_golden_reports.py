"""Machine reports and the oracle-stability line, compared with the ones
recorded in tests/data.  Every section must be equal, except the numbers under
"conditions" (geometry constants and witnesses), which are compared to a
relative 1e-12, as the benchmark's analyze_example oracle compares them."""

import json
from pathlib import Path

import pytest

from revdeg import cli
from revdeg.config import example_config_text

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12


def _assert_same(got, want, path: str, tol: bool) -> None:
    """got == want, with equal types; floats within FLOAT_TOL when tol."""
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            _assert_same(got[k], want[k], f"{path}.{k}", tol)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]", tol)
    elif tol and isinstance(want, float):
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _config(tmp_path, mu: str | None) -> str:
    """The example, or the example with the plane's mu set and no domain."""
    if mu is None:
        return "example"
    raw = json.loads(example_config_text())
    raw["mu"] = {"plane": [mu]}
    del raw["domain"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("mu,golden", [
    (None, "analyze_example_machine.txt"),
    # modes 0-3 active, levels 192/384
    ("-10", "analyze_mu10_machine.txt"),
    # modes 0-4 active, levels 384/768
    ("-20", "analyze_mu20_machine.txt"),
])
def test_analyze_machine_report_matches_golden(tmp_path, mu, golden):
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--config", _config(tmp_path, mu), "--format", "machine",
                     "--unsafe-skip-geometry", "--out", str(out)])
    got, want = json.loads(out.read_text()), json.loads((DATA / golden).read_text())
    assert code == want["exit_code"]
    assert sorted(got) == sorted(want)
    for section in want:
        _assert_same(got[section], want[section], section, tol=section == "conditions")


def test_oracle_stability_matches_golden(tmp_path):
    out = tmp_path / "stability.txt"
    assert cli.main(["oracle-stability", "--out", str(out)]) == 0
    assert out.read_text() == (DATA / "oracle_stability_example.txt").read_text()
