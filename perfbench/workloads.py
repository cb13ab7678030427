"""The workloads and the exact gates every invocation must pass.

Each workload is a closed loop with one client: its invocations run one
after another, each in a fresh interpreter, with the CLI's default
``--threads`` and ``--budget``.  The seed fixes the order of the primes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def projective_count(p: int) -> int:
    """#Y(F_p) of the built-in threefold, in closed form.

    p^3 + 7p^2 - 11p + 1 for p = 1 mod 3 (the trace formula with w23 = 12,
    h4 = 7); p^3 + p^2 + p + 1 for p = 2 mod 3, where cubing permutes F_p.
    """
    if p % 3 == 1:
        return p**3 + 7 * p**2 - 11 * p + 1
    if p % 3 == 2:
        return p**3 + p**2 + p + 1
    raise ValueError(f"no closed form for p = {p}")


def _count_gate(counts: dict, p: int) -> str | None:
    want = projective_count(p)
    if counts["projective"] != want:
        return f"projective count {counts['projective']} != {want}"
    if counts["cone"] != 1 + (p - 1) * want:
        return f"cone count {counts['cone']} != 1 + (p - 1) * {want}"
    return None


def check_rank(p: int, doc: dict) -> str | None:
    miss = _count_gate(doc["counts"], p)
    if miss:
        return miss
    singular = doc["singular"]
    if len(singular["points"]) != 9 or singular["matches_expected"] is not True:
        return f"singular scan: {len(singular['points'])} points, " \
               f"matches_expected={singular['matches_expected']}"
    betti = doc["betti"]
    if betti["feasible_w23"] != [12] or betti["rank"] != 6:
        return f"feasible w23 {betti['feasible_w23']}, rank {betti['rank']}"
    verified = [s["verified"] for s in doc["sections"]]
    if len(verified) != 6 or not all(verified):
        return f"sections verified: {sum(verified)}/{len(verified)}"
    return None


def check_count_fast(p: int, doc: dict) -> str | None:
    if doc["counts"]["method"] != "weierstrass-fast":
        return f"method {doc['counts']['method']}"
    return _count_gate(doc["counts"], p)


def check_crosscheck(p: int, doc: dict) -> str | None:
    by_method = doc["counts"]["by_method"]
    if set(by_method) != {"naive", "burnside", "weierstrass-fast"}:
        return f"methods run: {sorted(by_method)}"
    if len({(v["cone"], v["projective"]) for v in by_method.values()}) != 1:
        return f"methods disagree: {by_method}"
    return _count_gate(doc["counts"], p)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the gate its JSON report must pass."""

    label: str
    argv: tuple[str, ...]
    gate: Callable[[dict], str | None]


# (CLI arguments before --prime, primes, gate) per workload
WORKLOADS = {
    "rank-ladder": (["rank"], [7, 13, 19, 31, 61], check_rank),
    "count-fast": (["count", "--method", "weierstrass-fast"], [307, 311],
                   check_count_fast),
    "crosscheck": (["count"], [7, 13, 19, 23], check_crosscheck),
}


def build(name: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of workload ``name``, primes in seeded order."""
    argv, primes, gate = WORKLOADS[name]
    primes = list(primes)
    random.Random(seed).shuffle(primes)
    return [Invocation(f"{argv[0]} p={p}", tuple(argv + ["--prime", str(p)]),
                       lambda doc, p=p: gate(p, doc))
            for p in primes]
