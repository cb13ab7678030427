"""Golden outputs: the CLI's stdout, timing stripped, must match the recorded
files in tests/golden byte for byte, with the recorded exit code.

Performance work must not change what the program prints; these cases make
that mechanical.  After an intended output change, re-record with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden before committing it.
"""

from pathlib import Path

import pytest

from helpers import run_cli, strip_timing

GOLDEN = Path(__file__).resolve().parent / "golden"

OMEGA_CURVE = ["--curve", "y^2-x^3-omega*z0^6-z1^6-(1+omega)*z2^6",
               "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"]

# name -> (CLI arguments, exit code)
CASES = {
    "rank_p7": (["rank", "--prime", "7"], 0),
    "rank_p13": (["rank", "--prime", "13"], 0),
    "count_p7": (["count", "--prime", "7", "--method", "all"], 0),
    "count_p13": (["count", "--prime", "13", "--method", "all"], 0),
    "count_p23": (["count", "--prime", "23", "--method", "all"], 0),
    "singular_p13": (["singular", "--prime", "13"], 0),
    "omega_curve_p13": (["count", "--prime", "13", "--method", "all"] + OMEGA_CURVE, 0),
    "singular_fermat_p7": (["singular", "--prime", "7", "--curve", "x^7+y^7+z^7",
                            "--vars", "x,y,z", "--weights", "1,1,1"], 0),
    "singular_p7333": (["singular", "--prime", "7333"], 0),
    "singular_p100003": (["singular", "--prime", "100003"], 4),
    "hodge": (["hodge"], 0),
    "hodge_num_singular5": (["hodge", "--num-singular", "5"], 0),
    "rank_p61": (["rank", "--prime", "61"], 0),
    "rank_p997": (["rank", "--prime", "997"], 0),
    "count_fast_p311": (["count", "--prime", "311", "--method", "weierstrass-fast"], 0),
    # exponents far above the degree of the built-in curve
    "singular_fermat1000_p10007": (["singular", "--prime", "10007", "--curve",
                                    "x^1000 + y^1000 + z^1000", "--vars", "x,y,z",
                                    "--weights", "1,1,1"], 0),
    "count_binomial1000_p1009": (["count", "--prime", "1009", "--method", "all", "--curve",
                                  "x^1000 - y^1000", "--vars", "x,y", "--weights", "1,1"], 0),
    # the lead 7 vanishes mod 7: no Weierstrass shape, so naive and burnside only
    "count_lead7_p7": (["count", "--prime", "7", "--method", "all", "--curve",
                        "7*y^2-7*x^3-z0^6-z1^6-z2^6", "--vars", "x,y,z0,z1,z2",
                        "--weights", "2,3,1,1,1"], 0),
}


def _stdout(args: list[str]) -> tuple[int, str]:
    code, _, raw = run_cli(args)
    return code, strip_timing(raw)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    args, expected_code = CASES[name]
    code, out = _stdout(args)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (args, expected_code) in sorted(CASES.items()):
        code, out = _stdout(args)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(out)
        print(f"recorded {name}")
