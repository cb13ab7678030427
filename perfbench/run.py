"""ellrank benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every invocation runs in a fresh interpreter and must pass its exact gate
(see workloads.py); a miss, a non-zero exit or a timeout counts as failed
and the pass it belongs to is not timed.  At least MIN_PASSES passes run,
more while another one fits in S seconds, and none is started that would
not end before the run's time limit; metrics are medians over the clean
passes.

With ``--trace 0`` the untraced passes give the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the traced ones wrap
the layers from outside the package (spans.py) and give the per-layer
metrics, and the difference in pass wall time is the tracing overhead.

The last line of stdout is the result object; the line before it records
the environment and the per-pass figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_REPEATS = 7
MIN_PASSES = 3  # of each kind a run needs, so that a median drops one slow pass
RUN_LIMIT_S = 170  # a run ends within 180 s, whatever happens
INVOCATION_LIMIT_S = 120
THREADS = 1  # the CLI default; no workload passes --threads

RANK_PRIMES = workloads.WORKLOADS["rank-ladder"][1]
JACOBIAN_DEGREES = (2, 4, 10, 16)
COUNT_METHODS = ("naive", "burnside", "weierstrass-fast")


def layer_names() -> list[str]:
    """Per-layer metrics derived from the spans of one traced pass."""
    names = [
        "gridcount.common_zeros.s", "gridcount.common_zeros.points",
        "gridcount.common_zeros.survivors",
        "singular.singular_points.s", "singular.singular_points.self_s",
        "singular.useful_ratio", "singular.singular_points.share",
        "singular.singular_points.share_p61",
        "gridcount.value_histogram.s", "gridcount.value_histogram.points",
        "gridcount.value_histogram.share",
        "counting.weierstrass_fiber_table.s",
    ]
    names += [f"counting.count_projective.{m}.s" for m in COUNT_METHODS]
    names += ["counting.count_cone_naive.calls", "counting.count_cone_naive.s",
              "gridcount.orbit_min_keys.s", "gridcount.orbit_min_keys.rows",
              "hodge.jacobian_ring_dim.s"]
    for k in JACOBIAN_DEGREES:
        names += [f"hodge.jacobian_ring_dim.k{k}.{x}" for x in ("s", "columns", "rows")]
    names += ["hodge.hodge_h3_smooth.s", "hodge.quasi_smooth_spot_check.s",
              "hodge.builtin_cohomology_inputs.s",
              "betti.resolve.s", "betti.candidates", "sections.section_records.s"]
    names += [f"cli.rank.p{p}.unaccounted_ms" for p in RANK_PRIMES]
    return names


PER_LAYER = layer_names() + ["trace.overhead_s"]
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "ok_share": "ratio"}
SUFFIX_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "unaccounted_ms": "ms",
                "useful_ratio": "ratio", "share": "ratio", "share_p61": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return SUFFIX_UNITS.get(name.rsplit(".", 1)[-1], "count")


class Invoker:
    """Runs child interpreters one at a time and keeps the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [x for x in [os.environ.get("PYTHONPATH")] if x]))

    def run(self, argv: list[str]) -> dict:
        """Wall, CPU and peak RSS of one child; its stdout; whether it timed out."""
        limit = min(INVOCATION_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            return {"timeout": True}
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"timeout": wall >= limit, "returncode": proc.returncode,
                "stdout": out.decode("utf-8", "replace"), "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}


def _command(inv, trace: bool) -> list[str]:
    if trace:
        return [str(CHILD), "cli"] + list(inv.argv)
    return ["-m", "ellrank"] + list(inv.argv)


def _outcome(inv, proc: dict, trace: bool) -> tuple[str | None, dict | None]:
    """(failure or None, child document) for one finished invocation."""
    if proc["timeout"]:
        return "timeout", None
    if proc["returncode"] != 0:
        return f"exit {proc['returncode']}", None
    try:
        doc = json.loads(proc["stdout"])
    except json.JSONDecodeError:
        return "stdout is not one JSON document", None
    if trace:
        if doc["exit"] != 0:
            return f"exit {doc['exit']}", None
        report = doc["report"]
    else:
        doc, report = {"spans": None}, doc
    try:
        miss = inv.gate(report)
    except (KeyError, TypeError) as exc:
        miss = f"report lacks {exc}"
    return miss, dict(doc, report=report)


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine so far (all CPUs), or
    None where /proc/stat has no steal column.  Recorded per pass, it tells
    a slow pass on a contended host from a slow program."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_pass(invoker: Invoker, invocations, trace: bool) -> dict:
    """One closed-loop pass over the workload's invocations."""
    records, failures = [], []
    steal_before = steal_seconds()
    for inv in invocations:
        proc = invoker.run(_command(inv, trace))
        miss, doc = _outcome(inv, proc, trace)
        if miss:
            failures.append(f"{inv.label}: {miss}")
            print(f"FAILED {inv.label}: {miss}", file=sys.stderr)
        records.append({"label": inv.label, "proc": proc, "doc": doc})
    clean = not failures
    steal_after = steal_seconds()
    out = {"traced": trace, "attempted": len(invocations), "failed": len(failures),
           "failures": failures, "records": records,
           "steal_s": None if steal_before is None else round(steal_after - steal_before, 2)}
    if clean:
        out["wall_s"] = sum(r["proc"]["wall_s"] for r in records)
        out["cpu_s"] = sum(r["proc"]["cpu_s"] for r in records)
        out["peak_rss_mb"] = max(r["proc"]["rss_mb"] for r in records)
    return out


def layer_metrics(traced_pass: dict) -> dict[str, float]:
    """Per-layer sums over one clean traced pass."""
    from spans import self_times
    m = dict.fromkeys(layer_names(), 0.0)

    def add(key, value):
        m[key] += value

    for rec in traced_pass["records"]:
        spans = rec["doc"]["spans"]
        selfs = self_times(spans)
        top_s = 0.0
        for s in spans:
            dur = s["end"] - s["start"]
            name = s["name"]
            if s["parent"] is None:
                top_s += dur
            if name == "counting.count_projective":
                add(f"counting.count_projective.{s['method']}.s", dur)
                continue
            if name == "counting.count_cone_naive":
                add("counting.count_cone_naive.calls", 1)
            if name == "hodge.jacobian_ring_dim" and s["k"] in JACOBIAN_DEGREES:
                prefix = f"hodge.jacobian_ring_dim.k{s['k']}"
                add(prefix + ".s", dur)
                add(prefix + ".columns", s["columns"])
                add(prefix + ".rows", s["rows"])
            if name == "singular.singular_points":
                add("singular.singular_points.self_s", selfs[s["id"]])
                add("singular.useful_ratio", s["kept"])  # divided below
            if name == "betti.resolve":
                add("betti.candidates", s["candidates"])
            if name + ".s" in m:
                add(name + ".s", dur)
            for counter in ("points", "survivors", "rows"):
                key = f"{name}.{counter}"
                if counter in s and key in m:
                    add(key, s[counter])
        report = rec["doc"]["report"]
        if rec["label"].startswith("rank "):
            p = int(rec["label"].split("=")[1])
            m[f"cli.rank.p{p}.unaccounted_ms"] = report["elapsed_ms"] - 1000 * top_s
            if p == 61:
                scan = sum(s["end"] - s["start"] for s in spans
                           if s["name"] == "singular.singular_points")
                m["singular.singular_points.share_p61"] = scan / rec["proc"]["wall_s"]
    scan_points = sum(s["points"] for rec in traced_pass["records"]
                      for s in rec["doc"]["spans"] if s["name"] == "singular.singular_points")
    m["singular.useful_ratio"] = m["singular.useful_ratio"] / scan_points if scan_points else 0.0
    m["singular.singular_points.share"] = m["singular.singular_points.s"] / traced_pass["wall_s"]
    m["gridcount.value_histogram.share"] = m["gridcount.value_histogram.s"] / traced_pass["wall_s"]
    return m


def measure_setup(invoker: Invoker, invocations) -> tuple[list[float], int]:
    """Wall times of fresh interpreters that import ellrank and build the
    inputs without calling a layer; also the number that failed."""
    inputs = json.dumps([list(inv.argv) for inv in invocations])
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        proc = invoker.run([str(CHILD), "setup", inputs])
        if proc["timeout"] or proc["returncode"] != 0:
            failed += 1
        else:
            times.append(proc["wall_s"])
    return times, failed


def environment(seed: int) -> dict:
    """Machine, versions and the code measured.  A checkout without git
    history has no commit; the digest of src/ identifies the code there."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def _median(values):
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S:
        parser.error(f"--seconds must be above 0 and at most {RUN_LIMIT_S}")

    if not (SRC / "ellrank" / "__init__.py").is_file():
        print(f"no ellrank package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # spans.py imports ellrank
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    invoker = Invoker(started + RUN_LIMIT_S)
    invocations = workloads.build(args.workload, args.seed)
    setup_times, setup_failed = measure_setup(invoker, invocations)

    passes, durations = [], []
    loop_start = time.monotonic()
    trace = False
    while True:
        if durations and time.monotonic() + statistics.median(durations) > invoker.deadline:
            print(f"stopped after {len(passes)} passes: another would not end within "
                  f"{RUN_LIMIT_S} s", file=sys.stderr)
            break
        pass_start = time.monotonic()
        passes.append(run_pass(invoker, invocations, trace))
        durations.append(time.monotonic() - pass_start)
        if args.trace:
            trace = not trace
        kinds = (False, True) if args.trace else (False,)
        enough = all(sum(p["traced"] == kind for p in passes) >= MIN_PASSES for kind in kinds)
        elapsed = time.monotonic() - loop_start
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break

    attempted = SETUP_REPEATS + sum(p["attempted"] for p in passes)
    failed = setup_failed + sum(p["failed"] for p in passes)
    clean = [p for p in passes if p["failed"] == 0]
    untraced = [p for p in clean if not p["traced"]]
    traced = [p for p in clean if p["traced"]]

    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        metrics = {name: _median([layer[name] for layer in layers])
                   for name in layer_names()}
        metrics["trace.overhead_s"] = None
        if traced and untraced:
            metrics["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - \
                _median([p["wall_s"] for p in untraced])
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "wall_s": _median([p["wall_s"] for p in untraced]),
            "cpu_s": _median([p["cpu_s"] for p in untraced]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
            "ok_share": (attempted - failed) / attempted,
        }
    info = {"workload": args.workload, "environment": environment(args.seed),
            "invocations": [inv.label for inv in invocations],
            "setup_s": setup_times,
            "passes": [{k: p[k] for k in ("traced", "attempted", "failed", "failures",
                                          "wall_s", "cpu_s", "peak_rss_mb", "steal_s")
                        if k in p}
                       for p in passes]}
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and bool(untraced) and (bool(traced) or not args.trace),
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
