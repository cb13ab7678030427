import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ellrank
from helpers import run_cli, strip_timing


def test_rank_default_pipeline():
    code, doc, _ = run_cli(["rank", "--prime", "7"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["counts"]["projective"] == 610
    assert doc["betti"]["w23"] == 12
    assert doc["betti"]["w33"] == 0
    assert doc["betti"]["h4"] == 7
    assert doc["betti"]["rank"] == 6
    assert len(doc["singular"]["points"]) == 9
    assert doc["singular"]["matches_expected"] is True
    assert doc["hodge"]["h4_sigma"] == 18 and doc["hodge"]["chi"] == -2
    assert len(doc["sections"]) == 6
    assert all(s["verified"] for s in doc["sections"])
    assert "elapsed_ms" in doc


def test_rank_without_arguments_reproduces_headline():
    code, doc, _ = run_cli(["rank"])
    assert code == 0
    assert doc["prime"] == 7
    assert doc["betti"]["rank"] == 6


def test_count_default_runs_all_methods():
    code, doc, _ = run_cli(["count", "--prime", "7"])
    assert code == 0
    block = doc["counts"]
    assert block["method"] == "all"
    assert block["projective"] == 610 and block["cone"] == 3661
    assert set(block["by_method"]) == {"naive", "burnside", "weierstrass-fast"}
    for sub in block["by_method"].values():
        assert sub == {"cone": 3661, "projective": 610}


def test_count_single_method():
    code, doc, _ = run_cli(["count", "--prime", "13", "--method", "weierstrass-fast"])
    assert code == 0
    assert doc["counts"]["projective"] == 3238
    assert doc["counts"]["method"] == "weierstrass-fast"


def test_count_custom_curve():
    code, doc, _ = run_cli([
        "count", "--prime", "7", "--method", "burnside",
        "--curve", "t1*y + x^3 - s1^3",
        "--vars", "x,y,s1,t1", "--weights", "2,3,2,3"])
    assert code == 0
    assert doc["counts"]["projective"] == 71


@pytest.mark.parametrize("curve,cone,projective", [
    ("3", 0, 0),      # a nonzero constant: an empty grid, one empty block
    ("0", 49, 8),     # no constraint: all of F_7^2 and P^1(F_7)
    ("x-x", 49, 8),   # the same, cancelled by the parser
])
def test_naive_count_of_a_constant_curve(curve, cone, projective):
    code, doc, _ = run_cli(["count", "--method", "naive", "--curve", curve,
                            "--vars", "x,y", "--weights", "1,1"])
    assert code == 0
    assert doc["counts"] == {"cone": cone, "projective": projective, "method": "naive"}


def test_singular_command():
    code, doc, _ = run_cli(["singular", "--prime", "7"])
    assert code == 0
    assert len(doc["singular"]["points"]) == 9
    assert doc["singular"]["matches_expected"] is True
    assert doc["singular"]["points"][0].count(":") == 4


def test_singular_at_p5_has_no_expected_list():
    code, doc, _ = run_cli(["singular", "--prime", "5"])
    assert code == 0
    assert doc["singular"]["matches_expected"] is None


def test_hodge_command():
    code, doc, _ = run_cli(["hodge"])
    assert code == 0
    assert doc["hodge"] == {"h3_smooth": 42, "milnor": [4] * 9, "h4_sigma": 18,
                            "chi": -2, "local_h2_prim": 2, "h2_surface": 3}


def test_bounds_ok():
    code, doc, _ = run_cli(["bounds", "--prime", "7", "--count", "610"])
    assert code == 0
    assert doc["betti"]["feasible_w23"] == [12]
    assert doc["betti"]["rank"] == 6


def test_bounds_empty_feasible_exits_2():
    code, doc, _ = run_cli(["bounds", "--prime", "7", "--count", "611",
                            "--h4sigma", "18", "--chi", "-2"])
    assert code == 2
    assert doc["status"] == "inconclusive"
    assert doc["betti"]["feasible_w23"] == []
    assert doc["betti"]["w23"] is None
    assert "inconsistent" in doc["message"]


def test_bounds_multiple_feasible_exits_2():
    code, doc, _ = run_cli(["bounds", "--prime", "7", "--count", "666"])
    assert code == 2
    assert len(doc["betti"]["feasible_w23"]) > 1


@pytest.mark.parametrize("args", [
    ["bounds", "--prime", "13", "--count", "3238"],
    ["rank", "--prime", "13", "--h4sigma", "18", "--curve", "y^2 - x^3 - z0^6 - z1^6 - z2^6",
     "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"],
])
def test_feasible_set_too_large_to_report_exits_3(args):
    # some 1.7 * 10^7 feasible values: refused before the set is built
    code, doc, raw = run_cli(args + ["--chi", "-100000000"])
    assert code == 3 and doc["status"] == "invalid-config"
    assert doc["message"].startswith("the feasible w23 set has 169984")
    assert "betti" not in doc and len(raw) < 1000


def test_sections_command():
    code, doc, _ = run_cli(["sections"])
    assert code == 0
    assert len(doc["sections"]) == 6
    assert all(s["verified"] for s in doc["sections"])
    assert doc["prime"] is None


def test_predict_command():
    code, doc, _ = run_cli(["predict", "--prime", "19"])
    assert code == 0
    assert doc["predicted_count"] == 9178
    code, doc, _ = run_cli(["predict", "--prime", "13", "--w23", "12", "--h4", "7"])
    assert doc["predicted_count"] == 3238


def test_invalid_prime_exits_3():
    code, doc, _ = run_cli(["count", "--prime", "6"])
    assert code == 3
    assert doc["status"] == "invalid-config"
    assert "unsupported characteristic" in doc["message"]


def test_runaway_curve_expansion_exits_3_quickly():
    # the parser stops multiplying terms past MAX_TERM_PAIRS, so a short text
    # with a huge expansion is a configuration error, not a hang
    start = time.perf_counter()
    code, doc, _ = run_cli(["count", "--prime", "7", "--curve", "(x+y+z0+z1+z2)^1024",
                            "--vars", "x,y,z0,z1,z2", "--weights", "1,1,1,1,1"])
    assert code == 3 and doc["status"] == "invalid-config"
    assert "term products" in doc["message"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("flag,value", [("--vars", "a,b"), ("--weights", "1,1")])
def test_custom_vars_or_weights_need_a_curve(flag, value):
    code, doc, _ = run_cli(["count", "--prime", "7", flag, value])
    assert code == 3 and doc["status"] == "invalid-config"
    assert doc["message"] == f"custom {flag} need a --curve to apply to"


def test_builtin_vars_and_weights_alone_run_the_builtin_curve():
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "weierstrass-fast",
                            "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"])
    assert code == 0 and doc["counts"]["projective"] == 610


def test_fiber_table_over_budget_exits_4():
    # one weight-1 base variable: the chart walks 1 point, the fiber table
    # sums (gcd(6, 6) + 1) * 7 = 49
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "weierstrass-fast",
                            "--budget", "20", "--curve", "y^2 - x^3 - z0^6",
                            "--vars", "x,y,z0", "--weights", "2,3,1"])
    assert code == 4 and doc["status"] == "budget-exceeded"
    assert doc["required_budget"] == 49
    assert "fiber table needs 49 iterations" in doc["message"]


def test_invalid_flag_exits_3():
    from ellrank.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["count", "--nonsense"]) == 3
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["--help"]) == 0


def test_budget_exceeded_exits_4():
    code, doc, _ = run_cli(["count", "--prime", "31", "--method", "naive",
                            "--budget", "1000"])
    assert code == 4
    assert doc["status"] == "budget-exceeded"
    assert doc["required_budget"] == 31**5


def test_large_prime_scan_exits_4():
    # the budget counts the charts of P^2 left after dF/dx and dF/dy force
    # x = y = 0: p^2 + p + 1 points, not p^3 or p^5
    p = 7333
    code, doc, _ = run_cli(["singular", "--prime", str(p), "--budget", "1000"])
    assert code == 4
    assert doc["required_budget"] == p**2 + p + 1


def test_mixed_weight_scan_is_charged_its_charts():
    # the budget counts the charts of P(1, 2) within F_7^2, 7 + 2 points,
    # although the walk visits only the 8 orbit minima, the points of P(1, 2)(F_7)
    import numpy as np
    from ellrank import gridcount
    from ellrank.fields import make_field

    code, doc, _ = run_cli(["singular", "--prime", "7", "--curve", "x^4 + x^2*y + y^2",
                            "--vars", "x,y", "--weights", "1,2", "--budget", "1"])
    assert code == 4 and doc["required_budget"] == 9
    grids = gridcount.orbit_min_grids([np.arange(7)] * 2, (1, 2), make_field(7))
    assert sum(len(x) * len(y) for x, y in grids) == 8


def test_scan_over_budget_builds_no_expected_list(monkeypatch):
    # the expected singular list costs O(p); a scan its budget refuses never
    # builds it
    from ellrank import singular

    def refuse(field):
        raise AssertionError("expected list built before the scan kept its budget")

    monkeypatch.setattr(singular, "expected_singularities", refuse)
    code, doc, _ = run_cli(["singular", "--prime", "7333", "--budget", "1000"])
    assert code == 4 and doc["status"] == "budget-exceeded"


def test_rank_refuses_nine_points_that_are_not_the_cusps(monkeypatch):
    # the built-in scan must find the nine cusps themselves, not nine points
    from ellrank import singular

    def elsewhere(field, poly, budget, threads):
        points = tuple((1,) + pt[1:] for pt in singular.expected_singularities(field))
        return singular.SingularReport(points=points, excluded_ambient=())

    monkeypatch.setattr(singular, "singular_points", elsewhere)
    code, doc, _ = run_cli(["rank", "--prime", "7"])
    assert code == 5 and doc["status"] == "internal-error"
    assert doc["message"] == ("built-in curve scan found 9 singular points, "
                              "not the nine expected cusps")


def test_rank_at_p67_scans_the_pruned_grid():
    # 67^5 exceeds the default budget, 67^3 does not
    p = 67
    code, doc, _ = run_cli(["rank", "--prime", str(p)])
    assert code == 0
    assert len(doc["singular"]["points"]) == 9
    assert doc["singular"]["matches_expected"] is True
    assert doc["betti"]["rank"] == 6
    assert doc["counts"]["projective"] == p**3 + 7 * p**2 - 11 * p + 1


def test_scan_budget_counts_the_pruned_grid():
    # the singular scan walks the charts of P^2(F_67), not F_67^3
    args = ["singular", "--prime", "67", "--budget"]
    code, doc, _ = run_cli(args + [str(67**2 + 67)])
    assert code == 4
    assert doc["status"] == "budget-exceeded"
    assert doc["required_budget"] == 67**2 + 67 + 1
    code, doc, _ = run_cli(args + [str(67**2 + 67 + 1)])
    assert code == 0
    assert len(doc["singular"]["points"]) == 9 and doc["singular"]["matches_expected"] is True


def test_count_budget_charges_the_charts():
    # weierstrass-fast walks the charts of P^2(F_307), not F_307^3
    args = ["count", "--prime", "307", "--method", "weierstrass-fast", "--budget"]
    code, doc, _ = run_cli(args + ["94556"])
    assert code == 4
    assert doc["status"] == "budget-exceeded"
    assert doc["required_budget"] == 307**2 + 307 + 1
    code, doc, _ = run_cli(args + ["94557"])
    assert code == 0
    assert doc["counts"]["projective"] == 307**3 + 7 * 307**2 - 11 * 307 + 1


def _refused_while_parsing(args: list[str]) -> str:
    """Run main in-process, check that the flags were refused before any work
    (exit 3, nothing on stdout), and return stderr."""
    from ellrank.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(args) == 3
    assert out.getvalue() == ""
    return err.getvalue()


def test_negative_budget_exits_3_with_usage():
    err = _refused_while_parsing(["count", "--prime", "7", "--budget", "-1"])
    assert err.startswith("usage: ellrank count")
    assert "argument --budget: must be at least 0, got -1" in err


def test_zero_budget_reports_the_required_budget():
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "naive", "--budget", "0"])
    assert code == 4
    assert doc["status"] == "budget-exceeded"
    assert doc["required_budget"] == 7**5


@pytest.mark.parametrize("args", [
    ["count", "--method", "burnside", "--prime", "7", "--budget", "100"],
    ["count", "--method", "weierstrass-fast", "--prime", "13", "--budget", "0",
     "--curve=y^2-x^3-z0^6", "--vars", "x,y,z0", "--weights", "2,3,1"],
    ["count", "--method", "weierstrass-fast", "--prime", "7", "--budget", "1",
     "--curve=y^2-x^3-z0^6-z1^6", "--vars", "x,y,z0,z1", "--weights", "2,3,1,1"],
    ["rank", "--prime", "7", "--budget", "0", "--curve=y^2-x^3-z0^6", "--vars", "x,y,z0",
     "--weights", "2,3,1", "--h4sigma", "18", "--chi", "-2"],
])
def test_a_refused_budget_suffices_when_given_back(args):
    # each method charges its budget once: burnside the whole grid, p^n, and
    # weierstrass-fast the larger of its chart walk and its fiber table
    code, doc, _ = run_cli(args)
    assert code == 4
    i = args.index("--budget") + 1
    code, _, _ = run_cli(args[:i] + [str(doc["required_budget"])] + args[i + 1:])
    assert code != 4


@pytest.mark.parametrize("args", [
    ["predict", "--prime", "7", "--w23", "-3"],
    ["predict", "--prime", "7", "--h4", "-1"],
    ["bounds", "--prime", "7", "--count", "610", "--h4sigma", "-1"],
    ["rank", "--prime", "7", "--curve", "y^2 - x^3 - z0^6 - z1^6 - z2^6",
     "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1", "--h4sigma", "-1", "--chi", "0"],
])
def test_negative_dimensions_exit_3(args):
    code, doc, _ = run_cli(args)
    assert code == 3
    assert doc["status"] == "invalid-config"
    assert "must be nonnegative" in doc["message"]


def test_rank_refuses_a_negative_h4sigma_before_any_count(monkeypatch):
    from ellrank import counting

    def refusing(*args, **kwargs):
        raise AssertionError("counted with a negative h4_sigma")

    monkeypatch.setattr(counting, "count_projective", refusing)
    code, doc, _ = run_cli(["rank", "--prime", "61", "--method", "naive",
                            "--curve", "y^2 - x^3 - z0^6 - z1^6 - z2^6",
                            "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1",
                            "--h4sigma", "-1", "--chi", "-2"])
    assert code == 3
    assert doc["message"] == "h4_sigma must be nonnegative, got -1"


@pytest.mark.parametrize("extra,flag", [
    (["--h4sigma", "100", "--chi", "5"], "--h4sigma"),
    (["--h4sigma", "-5"], "--h4sigma"),
    (["--chi", "-2"], "--chi"),
])
def test_rank_refuses_hodge_overrides_without_a_curve(monkeypatch, extra, flag):
    # the built-in curve's h4_sigma and chi are computed: an override would
    # be ignored, so it is refused before any count, naming the flag
    from ellrank import counting

    def refusing(*args, **kwargs):
        raise AssertionError("counted with an override the built-in curve ignores")

    monkeypatch.setattr(counting, "count_projective", refusing)
    code, doc, _ = run_cli(["rank", "--prime", "7"] + extra)
    assert code == 3 and doc["status"] == "invalid-config"
    assert doc["message"].startswith(f"{flag} needs a --curve")


def test_negative_num_singular_exits_3_with_usage():
    err = _refused_while_parsing(["hodge", "--num-singular", "-1"])
    assert err.startswith("usage: ellrank hodge")
    assert "argument --num-singular: must be at least 0, got -1" in err


def test_a_curve_text_that_begins_with_a_minus_sign_needs_the_equals_form():
    # argparse reads "-y^2..." after --curve as a flag unless it holds a
    # space: the refusal exits 3 with the usage text, and --curve=TEXT is
    # the documented way
    curve = "-y^2+x^3+z0^6+z1^6+z2^6"
    args = ["count", "--prime", "7", "--method", "burnside", "--vars", "x,y,z0,z1,z2",
            "--weights", "2,3,1,1,1"]
    err = _refused_while_parsing(args + ["--curve", curve])
    assert err.startswith("usage: ellrank count") and "expected one argument" in err
    code, doc, _ = run_cli(args + [f"--curve={curve}"])
    assert code == 0 and doc["counts"]["projective"] == 610


@pytest.mark.parametrize("args", [["hodge"], ["bounds", "--prime", "7", "--count", "610"],
                                  ["sections"], ["predict", "--prime", "7"]])
@pytest.mark.parametrize("flag", [["--threads", "64"], ["--budget", "0"]])
def test_commands_that_do_not_enumerate_refuse_threads_and_budget(args, flag):
    err = _refused_while_parsing(args + flag)
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("args", [["count", "--prime", "7", "--method", "burnside"],
                                  ["singular", "--prime", "7"], ["rank", "--prime", "7"]])
def test_enumerating_commands_take_threads_and_budget(args):
    code, _, _ = run_cli(args + ["--threads", "2", "--budget", str(10**6)])
    assert code == 0


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_threads_exit_3(threads):
    code, doc, _ = run_cli(["count", "--prime", "7", "--threads", threads])
    assert code == 3
    assert doc is None  # refused while parsing the flags, before any work


def test_predict_rejects_composite_prime():
    code, doc, _ = run_cli(["predict", "--prime", "4"])
    assert code == 3
    assert doc["status"] == "invalid-config"


def test_unwritable_json_path_exits_3(tmp_path):
    from ellrank.cli import main
    target = tmp_path / "missing" / "x.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", "--prime", "7", "--json", str(target)])
    assert code == 3
    assert out.getvalue() == ""
    assert f"cannot write --json {target}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_stdout_exits_3():
    from ellrank.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStream()), contextlib.redirect_stderr(err):
        code = main(["count", "--prime", "7"])
    assert code == 3
    assert err.getvalue() == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("depth,code", [(100, 0), (101, 3), (3000, 3)])
def test_deeply_nested_curve(depth, code):
    # a nesting limit, not the interpreter's recursion limit, refuses the text
    curve = "(" * depth + "x" + ")" * depth + " - y"
    got, doc, _ = run_cli(["count", "--prime", "7", "--curve", curve,
                           "--vars", "x,y", "--weights", "1,1"])
    assert got == code
    if code:
        assert "offset 100" in doc["message"]


LEAD7_CURVE = ["--curve", "7*y^2-7*x^3-z0^6-z1^6-z2^6",
               "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"]


def test_weierstrass_fast_refuses_a_lead_divisible_by_p():
    # mod 7 the equation is z0^6 + z1^6 + z2^6 = 0, in no Weierstrass shape
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "weierstrass-fast"]
                           + LEAD7_CURVE)
    assert code == 3 and "Weierstrass shape y^2 = x^3 + f(z) mod p" in doc["message"]
    code, doc, _ = run_cli(["rank", "--prime", "7", "--h4sigma", "18", "--chi", "-2"]
                           + LEAD7_CURVE)
    assert code == 3 and "mod p" in doc["message"]
    # mod 13 the lead is a unit and the fast count agrees with the others
    code, doc, _ = run_cli(["count", "--prime", "13", "--method", "all"] + LEAD7_CURVE)
    assert code == 0
    assert set(doc["counts"]["by_method"]) == {"naive", "burnside", "weierstrass-fast"}


def test_curve_without_vars_exits_3():
    code, doc, _ = run_cli(["count", "--prime", "7", "--curve", "x^2"])
    assert code == 3
    assert "--vars" in doc["message"]


def test_unparseable_curve_exits_3():
    code, doc, _ = run_cli(["count", "--prime", "7", "--curve", "x^2 +",
                            "--vars", "x", "--weights", "1"])
    assert code == 3
    assert "offset" in doc["message"]


def test_rank_custom_curve_requires_hodge_inputs():
    code, doc, _ = run_cli(["rank", "--prime", "7",
                            "--curve", "y^2 - x^3 - z0^6 - z1^6 - z2^6",
                            "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"])
    assert code == 3
    assert "--h4sigma" in doc["message"]


@pytest.mark.parametrize("prime,message", [(5, "p must be a prime >= 7, got 5"),
                                           (11, "p must be 1 mod 3, got 11")])
def test_rank_refuses_a_prime_the_bounds_cannot_use(monkeypatch, prime, message):
    # the built-in curve at p = 5 or p = 2 mod 3 is an invalid configuration
    # (exit 3, the bounds' own message), refused before any count or scan
    from ellrank import counting, singular

    def refusing(*args, **kwargs):
        raise AssertionError("counted at a prime the bounds refuse")

    monkeypatch.setattr(counting, "count_projective", refusing)
    monkeypatch.setattr(singular, "singular_points", refusing)
    code, doc, _ = run_cli(["rank", "--prime", str(prime)])
    assert code == 3
    assert doc["status"] == "invalid-config" and doc["message"] == message
    code, doc, _ = run_cli(["bounds", "--prime", str(prime), "--count", "100"])
    assert code == 3 and doc["message"] == message


def test_json_file_output(tmp_path):
    target = tmp_path / "out.json"
    code, _, raw = run_cli(["predict", "--prime", "7", "--json", str(target)])
    assert code == 0
    assert raw == ""  # document went to the file instead
    doc = json.loads(target.read_text())
    assert doc["predicted_count"] == 610


def test_method_all_without_weierstrass_shape():
    # shape not detected: 'all' runs the two applicable methods
    code, doc, _ = run_cli(["count", "--prime", "7", "--method", "all",
                            "--curve", "t1*y + x^3 - s1^3",
                            "--vars", "x,y,s1,t1", "--weights", "2,3,2,3"])
    assert code == 0
    assert set(doc["counts"]["by_method"]) == {"naive", "burnside"}
    assert doc["counts"]["projective"] == 71


OMEGA_CURVE = ["--curve", "y^2-x^3-omega*z0^6-z1^6-(1+omega)*z2^6",
               "--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"]


def test_weierstrass_fast_accepts_omega_base():
    code, doc, _ = run_cli(["count", "--prime", "13", "--method", "weierstrass-fast"]
                           + OMEGA_CURVE)
    assert code == 0
    fast = doc["counts"]
    code, doc, _ = run_cli(["count", "--prime", "13", "--method", "all"] + OMEGA_CURVE)
    assert code == 0
    by_method = doc["counts"]["by_method"]
    assert set(by_method) == {"naive", "burnside", "weierstrass-fast"}
    assert all(v == {"cone": fast["cone"], "projective": fast["projective"]}
               for v in by_method.values())


@pytest.mark.parametrize("p", [5, 11])
def test_cancelled_omega_counts_at_p_2_mod_3(p):
    # omega^3 = 1 leaves no omega part, so no cube root of unity is needed
    curve = ["--vars", "x,y,z0,z1,z2", "--weights", "2,3,1,1,1"]
    code, doc, _ = run_cli(["count", "--prime", str(p), "--method", "all", "--curve",
                            "y^2-x^3-omega^3*z0^6-z1^6-z2^6"] + curve)
    assert code == 0
    _, plain, _ = run_cli(["count", "--prime", str(p), "--method", "all", "--curve",
                           "y^2-x^3-z0^6-z1^6-z2^6"] + curve)
    assert doc["counts"] == plain["counts"]
    assert p != 5 or doc["counts"]["projective"] == 156


def _fresh_interpreter(argv: list[str], env: dict | None = None,
                       stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run the interpreter with argv in a fresh process that imports ellrank
    from this tree; its stderr, and its stdout unless redirected, are
    captured as bytes."""
    env = dict(os.environ if env is None else env)
    src = str(Path(ellrank.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + [x for x in [env.get("PYTHONPATH")] if x])
    return subprocess.run([sys.executable] + argv, env=env, stdout=stdout,
                          stderr=subprocess.PIPE)


def _fresh_python(code: str, env: dict | None = None) -> list[str]:
    """Run code in a fresh interpreter; returns the words it printed."""
    proc = _fresh_interpreter(["-c", code], env)
    proc.check_returncode()
    return proc.stdout.decode().split()


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_import_caps_openblas_threads(preset, expected):
    # a fresh interpreter, so that numpy is first imported by ellrank
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, sys, ellrank.counting; "
            "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])")
    assert _fresh_python(code, env) == ["True", expected]


def test_import_builds_no_class_by_code_generation():
    # dataclasses generates and compiles methods per class at import; pytest
    # imports it itself, so only a fresh interpreter can tell
    code = ("import sys, ellrank.cli, ellrank.hodge, ellrank.betti, ellrank.sections; "
            "print('dataclasses' in sys.modules)")
    assert _fresh_python(code) == ["False"]


def test_importing_and_running_the_cli_leave_the_collector_alone():
    code = ("import contextlib, gc, io, ellrank.cli, ellrank.__main__\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = ellrank.cli.main(['predict'])\n"
            "print(code, gc.isenabled(), gc.get_freeze_count())")
    assert _fresh_python(code) == ["0", "True", "0"]


# Counts the collector's passes from the call of the entry function to the
# start of cli.main, then reports the collector's state after the command.
_PASSES_BEFORE_MAIN = """
import contextlib, gc, io, sys
if not ENABLED:
    gc.disable()
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info))
at_main = []

def profile(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_globals.get("__name__") == "ellrank.cli"):
        at_main.append((len(passes), "numpy" in sys.modules, "ellrank.orbits" in sys.modules))
        sys.setprofile(None)

from ellrank.__main__ import run
sys.argv[1:] = ARGS
before = len(passes)
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = run()
print(code, at_main[0][0] - before, at_main[0][1], at_main[0][2], gc.isenabled(),
      gc.get_freeze_count() > 0, "ellrank.orbits" in sys.modules)
"""


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_imports_without_a_collection_and_freezes_the_imports(enabled):
    # a count imports numpy, with the rest of its modules, before the freeze;
    # orbits loads with gridcount, so wherever numpy does
    for args, numpy, orbits in [
            (["predict", "--prime", "7"], False, False),
            (["count", "--prime", "7", "--method", "weierstrass-fast"], True, True),
            (["singular", "--prime", "7"], True, True),
            (["hodge"], True, True),
            (["rank", "--prime", "7"], True, True)]:
        code = f"ENABLED = {enabled}\nARGS = {args!r}\n" + _PASSES_BEFORE_MAIN
        assert _fresh_python(code) == ["0", "0", str(numpy), str(orbits), str(enabled), "True",
                                       str(orbits)], args


@pytest.mark.parametrize("args,code", [
    (["rank", "--prime", "7"], 0),
    (["count", "--prime", "7"], 0),
    (["count", "--prime", "6"], 3),
    (["count", "--prime", "31", "--method", "naive", "--budget", "1000"], 4),
    (["--help"], 0),
    (["count", "--nonsense"], 3),
    (["bounds", "--prime", "7", "--count", "610", "--chi", "1000001"], 2),
])
def test_python_m_ellrank_matches_main_in_process(args, code):
    from ellrank.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(args) == code
    proc = _fresh_interpreter(["-m", "ellrank"] + args)
    assert proc.returncode == code
    assert strip_timing(proc.stdout.decode()) == strip_timing(out.getvalue())


def test_python_m_ellrank_writes_the_json_file_of_main_in_process(tmp_path):
    # the process ends without the interpreter's teardown; the file is whole
    from ellrank.cli import main
    args = ["rank", "--prime", "13", "--json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(args + [str(tmp_path / "main.json")]) == 0
    proc = _fresh_interpreter(["-m", "ellrank"] + args + [str(tmp_path / "run.json")])
    assert proc.returncode == 0 and proc.stdout == b""
    assert proc.stderr.decode().startswith("rank  status=ok  p=13")
    assert strip_timing((tmp_path / "run.json").read_text(encoding="utf-8")) == \
        strip_timing((tmp_path / "main.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_python_m_ellrank_on_a_full_device_exits_3(unbuffered):
    # a buffered stdout takes the report without error and fails only when
    # flushed, so the entry must flush it before the interpreter's exit does
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        proc = _fresh_interpreter(["-m", "ellrank", "count", "--prime", "7"], env, full)
    assert proc.returncode == 3
    assert proc.stderr.decode() == f"cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_console_script_runs_the_entry_of_python_m_ellrank():
    # a text match, so that it also runs where tomllib is missing (Python 3.10)
    root = Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    target = re.search(r'^ellrank\s*=\s*"([\w.:]+)"\s*$', scripts.group(1), re.M)
    assert target.group(1) == "ellrank.__main__:main"


def _modules_after(args: list[str], modules: tuple[str, ...]) -> list[str]:
    """Run the CLI in a fresh interpreter: its exit code, then per module
    whether it was imported."""
    code = ("import contextlib, io, sys\n"
            "from ellrank.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main({args!r})\n"
            f"print(code, *(m in sys.modules for m in {modules!r}))")
    return _fresh_python(code)


def test_count_imports_only_the_modules_it_runs():
    modules = ("ellrank.betti", "ellrank.hodge", "ellrank.sections", "ellrank.singular",
               "ellrank.parsing", "ellrank.orbits")
    assert _modules_after(["count", "--prime", "7"], modules) == \
        ["0", "False", "False", "False", "False", "False", "True"]
    assert _modules_after(["count", "--prime", "7", "--method", "weierstrass-fast"],
                          modules) == ["0"] + ["False"] * 5 + ["True"]
    assert _modules_after(["rank", "--prime", "7"], modules) == \
        ["0", "True", "True", "True", "True", "False", "True"]


# Runs each command through the entry function of `python -m ellrank` in a
# fresh interpreter and prints the ellrank modules it loaded.
_MODULES_OF_RUN = """
import contextlib, io, sys
from ellrank.__main__ import run
sys.argv[1:] = ARGS
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = run()
print(code, "numpy" in sys.modules, *sorted(m for m in sys.modules if m.startswith("ellrank.")))
"""

# what every command loads: the entry, the CLI and what the CLI reads itself
_STARTUP = ["ellrank.__main__", "ellrank.cli", "ellrank.errors", "ellrank.fields"]
# what a count loads beyond those: the built-in curve and the count's engine
_COUNT = ["ellrank.counting", "ellrank.curves", "ellrank.gridcount", "ellrank.orbits",
          "ellrank.wpoly"]


# the benchmark's commands (perfbench/workloads.py), a custom curve, then the
# commands that walk no grid and so load no numpy
@pytest.mark.parametrize("args,loaded", [
    (["count", "--method", "weierstrass-fast", "--prime", "307"], _COUNT),
    (["count", "--method", "weierstrass-fast", "--prime", "311"], _COUNT),
    (["count", "--prime", "7"], _COUNT),
    (["count", "--prime", "23"], _COUNT),
    (["rank", "--prime", "7"], _COUNT + ["ellrank.betti", "ellrank.hodge",
                                         "ellrank.sections", "ellrank.singular"]),
    (["count", "--prime", "7", "--method", "burnside", "--curve", "y^2 - x^3 - z^6",
      "--vars", "x,y,z", "--weights", "2,3,1"], _COUNT + ["ellrank.parsing"]),
    (["predict", "--prime", "7"], ["ellrank.betti"]),
    (["bounds", "--prime", "7", "--count", "610"], ["ellrank.betti"]),
    (["sections"], ["ellrank.curves", "ellrank.sections", "ellrank.wpoly"]),
])
def test_each_command_loads_only_the_modules_it_runs(args, loaded):
    words = _fresh_python(f"ARGS = {args!r}\n" + _MODULES_OF_RUN)
    numpy = "ellrank.gridcount" in loaded  # numpy only where a grid is walked
    assert words == ["0", str(numpy)] + sorted(_STARTUP + loaded)


# Runs a command through the entry function and prints the ellrank sources
# it compiled before numpy was imported, then "|", then those compiled after.
_COMPILES_OF_RUN = """
import builtins, contextlib, io, os, sys
compiled = ([], [])
compile_source = builtins.compile

def compile(source, filename, *args, **kwargs):
    if isinstance(filename, str) and os.path.basename(os.path.dirname(filename)) == "ellrank":
        compiled["numpy" in sys.modules].append(os.path.basename(filename))
    return compile_source(source, filename, *args, **kwargs)

builtins.compile = compile
from ellrank.__main__ import run
sys.argv[1:] = ARGS
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = run()
print(code, *compiled[0], "|", *compiled[1])
"""


# the benchmark's commands, and the other commands that load numpy
@pytest.mark.parametrize("args,first,after", [
    (["count", "--method", "weierstrass-fast", "--prime", "307"],
     ["counting.py", "gridcount.py"], []),
    (["count", "--prime", "7"], ["counting.py", "gridcount.py"], []),
    (["singular", "--prime", "7"], ["gridcount.py"], []),
    (["hodge"], ["gridcount.py"], []),
    (["rank", "--prime", "7"], ["counting.py", "gridcount.py"], ["singular.py", "hodge.py"]),
])
def test_the_largest_sources_compile_before_numpy(args, first, after, tmp_path):
    # a compile's scratch memory freed before numpy's import is reused by
    # it, while one after it raises the peak RSS; an empty bytecode cache
    # that nothing may write to makes every source compile, whatever
    # __pycache__ the tree holds
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = _fresh_interpreter(["-X", f"pycache_prefix={tmp_path}", "-c",
                               f"ARGS = {args!r}\n" + _COMPILES_OF_RUN], env)
    proc.check_returncode()
    words = proc.stdout.decode().split()
    split = words.index("|")
    assert words[0] == "0"
    assert set(first) <= set(words[1:split])
    assert words[split + 1:] == after
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["10", "1000000000"])
def test_hodge_refuses_more_than_nine_singular_points(count):
    # refused before the tuple of Milnor numbers is built; the fresh
    # interpreter's address space is capped at 2 GiB, so that a build of
    # 10^9 entries fails with MemoryError instead of exhausting the host
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "import contextlib, io\n"
            "from ellrank.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main(['hodge', '--num-singular', '{count}'])\n"
            "print(code, 'at most 9' in out.getvalue())")
    start = time.perf_counter()
    assert _fresh_python(code) == ["3", "True"]
    assert time.perf_counter() - start < 5


def test_cli_does_not_import_fractions():
    # coefficients are integers or Eisenstein integers; fractions pulls in decimal
    modules = ("fractions", "decimal")
    assert _modules_after(["rank", "--prime", "7"], modules) == ["0", "False", "False"]
    assert _modules_after(["count", "--prime", "7"], modules) == ["0", "False", "False"]


def test_rank_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 14 ms of every process's start
    if _fresh_python("import sys, numpy; print('numpy.ma' in sys.modules)") == ["True"]:
        pytest.skip("importing numpy already loads numpy.ma")
    assert _modules_after(["rank", "--prime", "7"], ("numpy.ma",)) == ["0", "False"]


def test_single_thread_count_does_not_import_thread_pools():
    # concurrent.futures pulls in logging; only --threads above 1 needs it
    modules = ("concurrent.futures", "logging")
    assert _modules_after(["count", "--prime", "7"], modules) == ["0", "False", "False"]
    assert _modules_after(["count", "--prime", "7", "--method", "naive", "--threads", "2"],
                          modules[:1]) == ["0", "True"]


def test_internal_consistency_failure_exits_5(monkeypatch):
    from ellrank import cli
    from ellrank.errors import ConsistencyError

    def broken(args):
        raise ConsistencyError("methods disagree: synthetic")

    monkeypatch.setitem(cli._COMMANDS, "count", (broken, ()))
    code, doc, _ = run_cli(["count", "--prime", "7"])
    assert code == 5
    assert doc["status"] == "internal-error"
    assert "disagree" in doc["message"]


def test_sections_without_a_verifying_sign_exits_5(monkeypatch):
    # a candidate whose x fails with both signs breaks the sign invariant
    from ellrank import sections

    monkeypatch.setattr(sections, "_CANDIDATES", (("P0", "s", {(1, 0): 1}, "t", {(0, 1): 1}),))
    sections._candidates.cache_clear()
    try:
        code, doc, _ = run_cli(["sections"])
    finally:
        sections._candidates.cache_clear()
    assert code == 5
    assert doc["status"] == "internal-error"
    assert "exactly one verifying sign" in doc["message"]


# the lambda = 1 Hesse dual: nine cusps like the built-in base, but a sextic
# twist of a split base at most primes
HESSE_DUAL = ["--curve", "y^2 - x^3 - (27*(s^6+t^6+u^6) - 58*(s^3*t^3+s^3*u^3+t^3*u^3)"
              " - 18*s*t*u*(s^3+t^3+u^3) - 109*s^2*t^2*u^2)",
              "--vars", "x,y,s,t,u", "--weights", "2,3,1,1,1", "--h4sigma", "18", "--chi", "-2"]


def test_rank_on_a_custom_base_names_the_sextic_twist():
    code, doc, _ = run_cli(["rank", "--prime", "19"] + HESSE_DUAL)
    assert code == 2 and doc["betti"]["feasible_w23"] == []
    assert len(doc["singular"]["points"]) == 9
    assert doc["message"] == ("inputs inconsistent with the cohomological model; "
                              "the base may be a non-split sextic twist at this prime")
    # bounds alone does not know the base: its message stays as it was
    code, doc, _ = run_cli(["bounds", "--prime", "19", "--count",
                            str(doc["counts"]["projective"])])
    assert code == 2 and doc["message"] == "inputs inconsistent with the cohomological model"
    code, doc, _ = run_cli(["rank", "--prime", "13"] + HESSE_DUAL)
    assert code == 0 and doc["betti"]["rank"] == 6


# Every subcommand, on the built-in curve and on the paths a custom curve, an
# inconclusive bound and a refusal take, each through the entry function of
# `python -m ellrank`.
_REACH_RUNS = [
    ["count", "--prime", "13", "--threads", "1"] + OMEGA_CURVE,
    ["singular", "--prime", "7333", "--budget", "1000"],
    ["hodge"],
    ["bounds", "--prime", "7", "--count", "611"],
    ["rank", "--prime", "7"],
    ["rank", "--prime", "19"] + HESSE_DUAL,
    ["sections"],
    ["predict", "--prime", "7"],
    ["count", "--curve", "x^2 +", "--vars", "x", "--weights", "1"],
]

# The ellrank functions, dunders other than a class's own __init__ aside, that
# none of those runs calls.
_UNCALLED_BY_COMMANDS = {
    # built by the benchmark's set-up (perfbench/child.py)
    "counting.WeightedSpace.__init__",
    # ends the process: the tests of `python -m ellrank` run it
    "__main__.main",
    # wrapped by the benchmark's layer spans (perfbench/spans.py)
    "orbits.orbit_min_keys",  # wrapped as gridcount.orbit_min_keys
    "orbits._orbit_minima",  # run by orbit_min_keys
    # public API the acceptance suite checks
    "curves.local_surface_split",
    "sections.builtin_sections",
    "singular.euler_check",
    "wpoly.euler_combination",  # run by euler_check
    "wpoly.WPolynomial.zero",  # run by euler_combination
    # the norm form the Mordell-Weil lattice of the sections will need
    "fields.EisensteinInt.conjugate",
    "fields.EisensteinInt.norm",
    # no command prints a polynomial in which an omega part survives; the
    # print/parse round-trip tests do
    "wpoly._format_coeff_eisenstein",
}

_REACH_CODE = """
import contextlib, importlib, inspect, io, os, pkgutil, sys
import ellrank

root = os.path.dirname(ellrank.__file__)
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(root):
        called.add(frame.f_code)

sys.setprofile(profile)
from ellrank.__main__ import run
codes = []
for args in RUNS:
    sys.argv[1:] = args
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(run())
sys.setprofile(None)
uncalled = set()
for info in pkgutil.iter_modules(ellrank.__path__):
    module = importlib.import_module("ellrank." + info.name)
    for value in list(vars(module).values()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        for member in vars(value).values() if inspect.isclass(value) else [value]:
            func = getattr(member, "fget", None) or getattr(member, "__func__", member)
            if (inspect.isfunction(func) and func.__code__.co_filename.startswith(root)
                    and (func.__name__ == "__init__" or not func.__name__.startswith("__"))
                    and func.__code__ not in called):
                uncalled.add(info.name + "." + func.__qualname__)
print(*codes, *sorted(uncalled))
"""


def test_every_library_function_is_reached_by_a_command():
    # a fresh interpreter: functools caches warmed by earlier tests would
    # hide calls
    words = _fresh_python(f"RUNS = {_REACH_RUNS!r}\n" + _REACH_CODE)
    codes, uncalled = words[:len(_REACH_RUNS)], words[len(_REACH_RUNS):]
    assert codes == ["0", "4", "0", "2", "0", "2", "0", "0", "3"]
    assert set(uncalled) == _UNCALLED_BY_COMMANDS


def test_output_deterministic_across_threads():
    _, _, one = run_cli(["count", "--prime", "13", "--method", "weierstrass-fast",
                         "--threads", "1"])
    _, _, eight = run_cli(["count", "--prime", "13", "--method", "weierstrass-fast",
                           "--threads", "8"])
    assert strip_timing(one) == strip_timing(eight)
