"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

Imports liereduce from ``src/`` of the checkout that holds this file, builds
the workload's items from SEED, runs them once and prints one JSON object:
the import time of liereduce, the pass time, peak RSS, one record per item,
and the times of the speed probes (``calibrate.py``) taken after the import,
during the pass and after it.  Probing is left out of the pass and item
times, which are given in reference seconds (raw ones as ``raw_*``).  With
TRACE = 1 the pass runs under ``tracing.Tracer`` without probes inside it,
so that no probe falls in a span; the object also carries the per-layer
metrics, and the spans are written to SPANS_PATH when given.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Speed probes right before and right after the pass.
PROBES_AROUND = 10


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, SRC)
    # Nothing the package imports is loaded yet, so this is the set-up time
    # a command-line call pays.
    t0 = time.perf_counter()
    import liereduce
    import_s = time.perf_counter() - t0
    if not os.path.abspath(liereduce.__file__).startswith(SRC + os.sep):
        print(f"liereduce imported from {liereduce.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import json

    import calibrate
    import tracing
    import workloads

    if workload == "corpus":
        reference = workloads.corpus_reference()

        def run():
            return workloads.run_corpus_pass(reference)
    else:
        items = workloads.GENERATED[workload](seed)

        def run():
            return workloads.run_items(items)

    # The first probe of an interpreter runs unspecialised bytecode.
    calibrate.probe()
    probes = calibrate.Probes()
    probes.run(PROBES_AROUND)

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    else:
        probes.start()
    t0 = time.perf_counter()
    results = run()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    else:
        probes.stop()
    probes.run(PROBES_AROUND)

    raw_pass_s, pass_s = probes.work(t0, t1)
    # Times below are in reference seconds (calibrate.py).
    for it in results:
        start = it.pop("t0")
        if it["ms"] is not None:
            it["ms"] = probes.work(start, start + it["ms"] / 1000.0)[1] * 1000.0
    out = {"raw_import_s": import_s, "raw_pass_s": raw_pass_s,
           "import_s": import_s * calibrate.factor(
               statistics.median(probes.times()[:PROBES_AROUND])),
           "pass_s": pass_s, "items": results, "probe_s": probes.times()}
    if tracer is not None:
        # The tracer's clock is not split at probes: its times take the
        # scale of the pass as a whole.
        f = pass_s / raw_pass_s
        units = tracing.metric_units()
        out["layers"] = {name: v * f if units[name] == "s" else v
                         for name, v in tracer.layer_metrics().items()}
        out["root_s"] = tracer.root_time() * f
        if spans_path:
            tracer.write_spans(spans_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
