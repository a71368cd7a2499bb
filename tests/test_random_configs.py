"""Random valid-looking configurations through the command line, in process:
every run ends in an exit code of the README table, and never in 31 (an
unexpected internal error).

The draws are kept small so that each example runs in about a second: Gamma
is D_n or Z_n with n <= 6, delays_m <= 6, one or two representation entries,
and mu entries from a small rational set.  With |mu_j| <= 5/2 and at most
six delays, sum |mu_j| <= 15 < 16, so no mode above 3 is active (a mode k
is active only when the mode sum falls below -k^2)."""

import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from revdeg import cli

README = Path(__file__).resolve().parents[1] / "README.md"

MU_VALUES = ["-5/2", "-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "2"]


def documented_exit_codes() -> set[int]:
    """The codes of the README's exit-code table, less the retired ones."""
    rows = re.findall(r"^\| `(\d+)` \|(.*)$", README.read_text(), re.MULTILINE)
    return {int(code) for code, rest in rows if "retired" not in rest}


@st.composite
def configs(draw):
    m = draw(st.integers(1, 6))
    entries, mu = [], {}
    for i in range(draw(st.integers(1, 2))):
        label = f"v{i}"
        irrep = draw(st.sampled_from(["gamma_trivial", "natural", "minus_index:1",
                                      "minus_index:2", "minus_index:3"]))
        entries.append({"label": label, "irrep": irrep,
                        "multiplicity": draw(st.integers(0, 2))})
        # a reversible row: mu_j = mu_{m-j}
        half = draw(st.lists(st.sampled_from(MU_VALUES), min_size=m // 2 + 1,
                             max_size=m // 2 + 1))
        mu[label] = [half[min(j, m - j)] for j in range(m)]
    return {"group": {"kind": draw(st.sampled_from(["dihedral", "cyclic"])),
                      "n": draw(st.integers(1, 6))},
            "delays_m": m, "representation": entries, "mu": mu}


@given(configs())
@settings(max_examples=40, deadline=None)
def test_random_configs_end_in_documented_exit_codes(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(config))
    out = path.parent / "out.txt"
    runs = [["analyze", "--format", "machine"], ["oracle-stability"], ["group-info"]]
    runs += [["basic-degree", "--mode", str(k)] for k in range(3)]
    documented = documented_exit_codes()
    for argv in runs:
        code = cli.main(argv + ["--config", str(path), "--out", str(out)])
        assert code != cli.EXIT_UNEXPECTED and code in documented, (argv, config, code)
