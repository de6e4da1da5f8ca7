"""liereduce benchmark: one client, closed loop, one pass at a time.

    python3 bench/run.py --workload corpus|chart-sweep|zero-test \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``worker.py``) that imports liereduce from ``src/``, so each pass pays cold
caches the way a command-line invocation does.  Passes repeat until S
seconds have gone (at least ``MIN_PASSES``).  Every item is checked against
its reference; see NOTES.md for the workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the items of one pass: every pass runs the same items and
must fail the same ones.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer ones plus the tracing overhead.

Every time in the metrics is in reference seconds: each interpreter times a
fixed speed probe (``calibrate.py``) around and during its work, and scales
each stretch of work by ``calibrate.REFERENCE_S`` over the probes at its
ends.  This takes out the changes of the host's CPU speed, which move every
timing of a run together.  The raw pass times are printed on a comment line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import calibrate
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
# Import-only interpreters per run; every pass interpreter adds one more
# import time to the set-up median.
SETUP_RUNS = 15
MIN_PASSES = 3
# A pass starts only while the run can still end within RUN_LIMIT_S, and no
# child may outlive the run's hard limit.
RUN_LIMIT_S = 160.0
HARD_LIMIT_S = 175.0

# Prints the import time, then the probe times taken after the import.
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import liereduce; "
                "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                "import calibrate; calibrate.probe(); "
                "print(d, calibrate.median_probe(10))")


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    # Set iteration order follows string hashes; one value per seed keeps the
    # passes of a run doing identical work.
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    # Installed packages import from cached bytecode, so set-up is measured
    # with the cache on, kept under .bench_build.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(env: dict, deadline: float) -> list[tuple[float, float]]:
    """(raw, scaled) times of ``import liereduce`` in fresh interpreters; one
    untimed import first fills the bytecode cache."""
    args = ["-c", IMPORT_TIMER, os.path.join(ROOT, "src"), BENCH]
    run_child(args, env, deadline)
    out = []
    for _ in range(SETUP_RUNS):
        import_s, probe_s = map(float, run_child(args, env, deadline).split())
        out.append((import_s, import_s * calibrate.factor(probe_s)))
    return out


def run_pass(workload: str, seed: int, traced: bool, env: dict,
             deadline: float) -> dict:
    args = [os.path.join(BENCH, "worker.py"), workload, str(seed),
            "1" if traced else "0"]
    if traced:
        args.append(os.path.join(BUILD, "trace", f"{workload}.spans.tsv.gz"))
    out = json.loads(run_child(args, env, deadline).strip().splitlines()[-1])
    out["traced"] = traced
    return out


def item_quantiles(p: dict) -> tuple[float, float]:
    """(p50, p90) of the item latencies of one pass.

    Taken per pass and then the median over passes: pooled over passes, a
    quantile that falls between two items of very different cost reads the
    extreme samples of each, which move with the number of passes.
    """
    ms = [it["ms"] for it in p["items"] if it["ms"] is not None]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def outcome(p: dict) -> tuple:
    return tuple((it["id"], it["ok"], it["error"]) for it in p["items"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "liereduce", "__init__.py")):
        print(f"no liereduce sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    env = child_env(args.seed)
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    imports = [] if args.trace else measure_setup(env, hard_deadline)

    kinds = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    longest = 0.0
    deadline = time.monotonic() + args.seconds
    while (len(passes) < MIN_PASSES * len(kinds) or time.monotonic() < deadline) \
            and time.monotonic() - started + longest < RUN_LIMIT_S:
        t0 = time.monotonic()
        passes.append(run_pass(args.workload, args.seed,
                               kinds[len(passes) % len(kinds)], env, hard_deadline))
        longest = max(longest, time.monotonic() - t0)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = plain[0]["items"]
    attempted = len(first)
    failures = [it for it in first if not it["ok"]]
    consistent = len({outcome(p) for p in passes}) == 1
    correct = consistent and all(it["hard"] for it in failures)
    timed = sum(it["ms"] is not None for it in first)
    by_type = Counter(str(it["error"]).split(":")[0] for it in failures)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} passes x {attempted} items, "
          f"{timed} timed items per pass; failed {len(failures)}/{attempted} "
          f"{dict(by_type)}; consistent across passes: {consistent}")
    print("# raw pass_s: " + " ".join(f"{p['raw_pass_s']:.4f}" for p in plain))
    print("# scale: " + " ".join(f"{p['pass_s'] / p['raw_pass_s']:.3f}" for p in plain))
    print("# pass_s: " + " ".join(f"{p['pass_s']:.4f}" for p in plain))
    for it in failures:
        if not it["hard"]:
            print(f"# unexpected failure: {it['id']}: {it['error']}")

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        for op in tracing.CORPUS_OPS:
            layers[f"corpus.op.{op}.s"] = statistics.median(
                sum(it["ms"] for it in p["items"]
                    if it.get("op") == op and it["ms"] is not None) / 1000.0
                for p in plain)
        traced_s = statistics.median(p["pass_s"] for p in traced)
        plain_s = statistics.median(p["pass_s"] for p in plain)
        shares = [p["root_s"] / p["pass_s"] for p in traced]
        correct = correct and all(s <= 1.0 for s in shares)
        layers["trace.pass_s"] = traced_s
        layers["trace.overhead"] = traced_s / plain_s
        layers["trace.self_share"] = statistics.median(shares)
        metrics = {n: {"value": layers[n], "unit": unit}
                   for n, unit in tracing.metric_units().items()}
    else:
        quantiles = [item_quantiles(p) for p in plain]
        metrics = {
            "setup_s": {"value": statistics.median([s for _, s in imports]
                                                   + [p["import_s"] for p in plain]),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(p["pass_s"] for p in plain), "unit": "s"},
            "item_ms_p50": {"value": statistics.median(q[0] for q in quantiles), "unit": "ms"},
            "item_ms_p90": {"value": statistics.median(q[1] for q in quantiles), "unit": "ms"},
            "ok_ratio": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
