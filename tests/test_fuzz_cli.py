"""The CLI's failure contract on random command lines: every run ends with a
defined exit code, prints no traceback and writes one JSON document, except
an argparse rejection, which exits 3 with the usage text and no stdout; and a
budget refusal names a budget that suffices.

The default profile runs hypothesis's 100 examples; the CI runs this file
again with --hypothesis-profile=deep (see conftest.py)."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ellrank.cli import main

CURVES = [
    [],  # the built-in threefold
    ["--curve", "y^2-x^3-omega*z0^6-z1^6-(1+omega)*z2^6",
     "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"],
    ["--curve", "x^4 + x^2*y + y^2", "--vars", "x,y", "--weights", "1,2"],
    ["--curve=y^2-x^3-z0^6", "--vars", "x,y,z0", "--weights", "2,3,1"],
    ["--curve", "t1*y + x^3 - s1^3", "--vars", "x,y,s1,t1", "--weights", "2,3,2,3"],
    ["--curve", "x^2 +", "--vars", "x", "--weights", "1"],  # a parse error
    ["--curve", "7*y^2-7*x^3-z0^6-z1^6-z2^6", "--vars", "x,y,z0,z1,z2",
     "--weights", "2,3,1,1,1"],  # the lead 7 vanishes mod 7
    ["--curve", "x^2 + y^2", "--vars", "x,y", "--weights", "0,1"],
    ["--curve", "x*y - y^2", "--vars", "x,y", "--weights=-1,1"],
]


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(["count", "singular", "hodge", "bounds", "rank",
                                    "sections", "predict"]))
    args = [command]

    def maybe(flag: str, values):
        if draw(st.booleans()):
            args.extend([flag, str(draw(values))])

    if command not in ("hodge", "sections"):
        maybe("--prime", st.integers(-7, 23))
    if command in ("count", "rank"):
        maybe("--method", st.sampled_from(["naive", "burnside", "weierstrass-fast", "all"]))
    if command in ("count", "singular", "rank"):
        args += draw(st.sampled_from(CURVES))
    # commands that enumerate nothing refuse these two
    maybe("--budget", st.integers(0, 3000))
    maybe("--threads", st.integers(1, 2))
    if command in ("rank", "bounds"):
        maybe("--h4sigma", st.integers(-2, 30))
        maybe("--chi", st.integers(-8, 8))
    if command == "bounds":
        maybe("--count", st.integers(-10, 15000))
    if command == "hodge":
        maybe("--num-singular", st.integers(-1, 12))
    if command == "predict":
        maybe("--w23", st.integers(-2, 30))
        maybe("--h4", st.integers(-2, 30))
    return args


def _run(args: list[str]) -> tuple[int, dict | None]:
    """main(args) in-process, checked against the contract: (code, report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 2, 3, 4, 5), (args, code)
    assert "Traceback" not in err.getvalue(), args
    if not out.getvalue():
        assert code == 3 and err.getvalue().startswith("usage:"), (args, err.getvalue())
        return code, None
    return code, json.loads(out.getvalue())  # one document, nothing after it


@settings(derandomize=True, deadline=None)
@given(command_lines())
def test_every_command_line_keeps_the_failure_contract(args):
    code, report = _run(args)
    if code == 4:
        budget = ["--budget", str(report["required_budget"])]
        i = args.index("--budget") if "--budget" in args else len(args)
        code, _ = _run(args[:i] + budget + args[i + 2:])
        assert code != 4, args
