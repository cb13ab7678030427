"""Command-line orchestration.

One JSON document per invocation on stdout (or --json PATH), a short human
summary on stderr, and a machine-meaningful exit code:

    0  success
    2  inconclusive feasibility (empty or non-unique w23 set)
    3  invalid prime or configuration
    4  iteration budget exceeded
    5  internal consistency failure (method disagreement or broken invariant)

Subcommands: count, singular, hodge, bounds, rank, sections, predict.
Defaults reproduce the built-in curve end to end; `rank` with no arguments
runs the whole pipeline at p = 7.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import TYPE_CHECKING

from . import DEFAULT_BUDGET, METHODS
from .errors import BudgetExceededError, ConsistencyError, InconclusiveResult
from .fields import make_field

if TYPE_CHECKING:  # bound by load() when a command that runs them starts
    from . import betti, counting, curves, hodge, sections, singular

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, curve: bool = False,
                method: bool = False, prime: bool = False, enumerates: bool = False):
    if prime:
        parser.add_argument("--prime", type=int, default=7,
                            help="prime p of the base field (default 7)")
    if method:
        parser.add_argument("--method", default=None,
                            choices=list(METHODS) + ["all"],
                            help="counting strategy")
    if curve:
        parser.add_argument("--curve", default=None,
                            help="defining polynomial text (default: built-in threefold)")
        parser.add_argument("--vars", default=None,
                            help="comma-separated variable names for --curve")
        parser.add_argument("--weights", default=None,
                            help="comma-separated coordinate weights")
    if enumerates:
        parser.add_argument("--threads", type=_positive_int, default=1,
                            help="worker threads for chunked enumeration, at most one "
                                 "per core (default 1)")
        parser.add_argument("--budget", type=_nonnegative_int, default=DEFAULT_BUDGET,
                            help=f"iteration cap (default {DEFAULT_BUDGET})")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the JSON document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellrank",
        description="Point counts, singular loci, Hodge inputs and the "
                    "Mordell-Weil rank of an elliptic threefold.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="projective point count over F_p")
    _add_common(p_count, curve=True, method=True, prime=True, enumerates=True)

    p_sing = sub.add_parser("singular", help="scan the singular locus over F_p")
    _add_common(p_sing, curve=True, prime=True, enumerates=True)

    p_hodge = sub.add_parser("hodge", help="cohomological inputs of the built-in curve")
    p_hodge.add_argument("--num-singular", type=_nonnegative_int, default=9,
                         help="number of singular points (default 9)")
    _add_common(p_hodge)

    p_bounds = sub.add_parser("bounds", help="solve the trace-formula inequality")
    p_bounds.add_argument("--count", type=int, required=True, help="#Y(F_p)")
    p_bounds.add_argument("--h4sigma", type=int, default=18)
    p_bounds.add_argument("--chi", type=int, default=-2)
    _add_common(p_bounds, prime=True)

    p_rank = sub.add_parser("rank", help="full pipeline: count, scan, hodge, bounds")
    p_rank.add_argument("--h4sigma", type=int, default=None,
                        help="h^4_Sigma of a --curve (required with one)")
    p_rank.add_argument("--chi", type=int, default=None,
                        help="chi of a --curve (required with one)")
    _add_common(p_rank, curve=True, method=True, prime=True, enumerates=True)

    p_sections = sub.add_parser("sections", help="verify the built-in sections symbolically")
    _add_common(p_sections)

    p_predict = sub.add_parser("predict", help="trace-formula point count prediction")
    p_predict.add_argument("--w23", type=int, default=12)
    p_predict.add_argument("--h4", type=int, default=7)
    _add_common(p_predict, prime=True)

    return parser


def _resolve_curve(args) -> tuple:
    """(polynomial, is_builtin) from the curve flags."""
    if args.curve is None:
        if args.weights and _parse_int_list(args.weights) != curves.THREEFOLD_WEIGHTS:
            raise ConfigError("custom --weights need a --curve to apply to")
        if args.vars and tuple(args.vars.split(",")) != curves.THREEFOLD_VARIABLES:
            raise ConfigError("custom --vars need a --curve to apply to")
        return curves.defining_polynomial(), True
    if args.vars is None or args.weights is None:
        raise ConfigError("--curve requires both --vars and --weights")
    from .parsing import ParseError, parse_polynomial
    names = tuple(args.vars.split(","))
    weights = _parse_int_list(args.weights)
    try:
        poly = parse_polynomial(args.curve, names, weights)
    except ParseError as exc:
        raise ConfigError(f"cannot parse --curve: {exc}")
    return poly, False


def _count_block(field, poly, method, budget, threads) -> dict:
    """counts{} block; runs every applicable method under 'all' and insists
    the results agree."""
    methods = [method]
    if method == "all":
        methods = ["naive", "burnside"]
        if counting.weierstrass_shape(poly, field) is not None:
            methods.append("weierstrass-fast")
    by_method = {}
    for m in methods:
        report = counting.count_projective(field, poly, method=m, budget=budget,
                                           threads=threads)
        by_method[m] = {"cone": report.cone_count, "projective": report.projective_count}
    if len({tuple(counts.values()) for counts in by_method.values()}) != 1:
        raise ConsistencyError(f"methods disagree: {by_method}")
    block = {**by_method[methods[0]], "method": method}
    if method == "all":
        block["by_method"] = by_method
    return block


def _singular_block(field, poly, budget, threads, is_builtin) -> dict:
    report = singular.singular_points(field, poly, budget=budget, threads=threads)
    matches = None
    if is_builtin and field.p % 3 == 1:  # built only once the scan has kept its budget
        matches = set(report.points) == set(singular.expected_singularities(field))
    return {
        "points": [":".join(map(str, pt)) for pt in report.points],
        "matches_expected": matches,
        "excluded_ambient": [":".join(map(str, pt)) for pt in report.excluded_ambient],
    }


def _betti_body(p: int, count: int, h4_sigma: int, chi: int) -> tuple[dict, int]:
    """The betti{} block of the trace-formula solve, with the message and
    exit code of an inconclusive one."""
    try:
        result = betti.resolve(betti.BettiInputs(p=p, count=count, h4_sigma=h4_sigma, chi=chi))
    except InconclusiveResult as exc:
        block = {**dict.fromkeys(betti.BettiResult._fields), "feasible_w23": list(exc.feasible),
                 "assumption_note": betti.ASSUMPTION_NOTE}
        return {"betti": block, "message": str(exc)}, EXIT_INCONCLUSIVE
    return {"betti": result._asdict()}, EXIT_OK


def _run_count(args) -> tuple[dict, int]:
    field = make_field(args.prime)
    poly, _ = _resolve_curve(args)
    method = args.method or "all"
    return {"counts": _count_block(field, poly, method, args.budget, args.threads)}, EXIT_OK


def _run_singular(args) -> tuple[dict, int]:
    field = make_field(args.prime)
    poly, is_builtin = _resolve_curve(args)
    return {"singular": _singular_block(field, poly, args.budget, args.threads,
                                        is_builtin)}, EXIT_OK


def _run_hodge(args) -> tuple[dict, int]:
    inputs = hodge.builtin_cohomology_inputs(num_singular=args.num_singular)
    return {"hodge": inputs._asdict()}, EXIT_OK


def _run_bounds(args) -> tuple[dict, int]:
    return _betti_body(args.prime, args.count, args.h4sigma, args.chi)


def _run_rank(args) -> tuple[dict, int]:
    field = make_field(args.prime)
    poly, is_builtin = _resolve_curve(args)
    for flag, value in (("--h4sigma", args.h4sigma), ("--chi", args.chi)):
        if is_builtin and value is not None:
            raise ConfigError(f"{flag} needs a --curve to apply to "
                              "(the built-in curve's Hodge inputs are computed)")
    if not is_builtin and (args.h4sigma is None or args.chi is None):
        raise ConfigError("custom curves need explicit --h4sigma and --chi "
                          "(the built-in Hodge pipeline only covers the default curve)")
    # before any count: the bounds take neither another p nor a negative h4_sigma
    betti.check_prime(args.prime)
    if not is_builtin:
        betti.check_h4_sigma(args.h4sigma)
    method = args.method or "weierstrass-fast"
    body: dict = {"counts": _count_block(field, poly, method, args.budget, args.threads),
                  "singular": _singular_block(field, poly, args.budget, args.threads,
                                              is_builtin)}
    num_singular = len(body["singular"]["points"])
    if is_builtin and not body["singular"]["matches_expected"]:
        raise ConsistencyError(
            f"built-in curve scan found {num_singular} singular points, "
            "not the nine expected cusps")

    if is_builtin:
        inputs = hodge.builtin_cohomology_inputs(num_singular=num_singular)
        if inputs.h4_sigma != 18 or inputs.chi != -2:
            raise ConsistencyError(
                f"built-in Hodge inputs drifted: h4_sigma={inputs.h4_sigma}, "
                f"chi={inputs.chi} (expected 18, -2)")
    else:
        inputs = hodge.CohomologyInputs(h3_smooth=None, milnor=(), h4_sigma=args.h4sigma,
                                        chi=args.chi, local_h2_prim=None, h2_surface=None)
    body["hodge"] = inputs._asdict()

    betti_body, code = _betti_body(args.prime, body["counts"]["projective"],
                                   inputs.h4_sigma, inputs.chi)
    body.update(betti_body)
    if code == EXIT_OK and is_builtin:
        body["sections"] = sections.section_records()
    elif code and not is_builtin and not body["betti"]["feasible_w23"]:
        # betti's model has Frobenius fix every algebraic class; on a
        # sextic twist of the base it acts through a sextic character
        body["message"] += "; the base may be a non-split sextic twist at this prime"
    return body, code


def _run_sections(args) -> tuple[dict, int]:
    return {"sections": sections.section_records()}, EXIT_OK


def _run_predict(args) -> tuple[dict, int]:
    value = betti.predicted_count(args.prime, args.w23, args.h4)
    return {"predicted_count": value, "w23": args.w23, "h4": args.h4}, EXIT_OK


# Each command's runner and the ellrank modules it runs.  load() imports the
# modules and binds them in this module, where the runners read them, so
# a command loads numpy only if it walks a grid; `python -m ellrank` calls
# load() before it freezes the import heap (see __main__).
#
# Each list is ordered so that the largest sources compile before numpy
# loads: a compile's scratch memory freed before numpy's import is reused
# by it, while a compile after it raises the process's peak RSS.  Modules
# that load no numpy come first.  Then comes counting where the command
# counts, else singular or hodge: its import of gridcount compiles
# gridcount and orbits, and only then does orbits import numpy.  gridcount
# and counting are the two largest sources.  rank's singular and hodge
# compile after numpy.
_COMMANDS = {
    "count": (_run_count, ("curves", "counting")),
    "singular": (_run_singular, ("curves", "singular")),
    "hodge": (_run_hodge, ("hodge",)),
    "bounds": (_run_bounds, ("betti",)),
    "rank": (_run_rank, ("curves", "betti", "sections", "counting", "singular", "hodge")),
    "sections": (_run_sections, ("sections",)),
    "predict": (_run_predict, ("betti",)),
}


def load(command: str) -> None:
    """Import the modules that ``command`` runs, none for a name that is not
    a command, and bind each in this module under its own name."""
    _, modules = _COMMANDS.get(command, (None, ()))
    for name in modules:
        globals()[name] = importlib.import_module(f"{__package__}.{name}")


_STATUS = {
    EXIT_OK: "ok",
    EXIT_INCONCLUSIVE: "inconclusive",
    EXIT_CONFIG: "invalid-config",
    EXIT_BUDGET: "budget-exceeded",
    EXIT_INTERNAL: "internal-error",
}


def _summary_line(report: dict) -> str:
    bits = [report["command"], f"status={report['status']}"]
    if report.get("prime") is not None:
        bits.append(f"p={report['prime']}")
    counts = report.get("counts")
    if counts:
        bits.append(f"projective={counts['projective']} (cone={counts['cone']}, "
                    f"method={counts['method']})")
    if report.get("singular"):
        bits.append(f"singular={len(report['singular']['points'])}")
    if report.get("betti") and report["betti"].get("rank") is not None:
        b = report["betti"]
        bits.append(f"w23={b['w23']} w33={b['w33']} h4={b['h4']} rank={b['rank']}")
    if report.get("predicted_count") is not None:
        bits.append(f"predicted={report['predicted_count']}")
    if report.get("sections"):
        verified = sum(1 for s in report["sections"] if s["verified"])
        bits.append(f"sections_verified={verified}/{len(report['sections'])}")
    if report.get("message"):
        bits.append(report["message"])
    return "  ".join(bits)


def _emit(report: dict, json_path: str | None):
    text = json.dumps(report, indent=2) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    print(_summary_line(report), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the invalid-configuration code.
        return 0 if exc.code == 0 else EXIT_CONFIG
    load(args.command)

    started = time.perf_counter()
    report: dict = {"command": args.command, "status": "ok",
                    "prime": getattr(args, "prime", None)}
    try:
        body, code = _COMMANDS[args.command][0](args)
    except BudgetExceededError as exc:
        body, code = {"message": str(exc), "required_budget": exc.required}, EXIT_BUDGET
    except ValueError as exc:  # ConfigError and ParseError among them
        body, code = {"message": str(exc)}, EXIT_CONFIG
    except ConsistencyError as exc:
        body, code = {"message": str(exc)}, EXIT_INTERNAL
    report["status"] = _STATUS[code]
    report.update(body)
    report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    json_path = getattr(args, "json_path", None)
    try:
        _emit(report, json_path)
    except OSError as exc:
        target = f"--json {json_path}" if json_path else "stdout"
        print(f"cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code

