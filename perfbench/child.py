"""One repetition of a workload in a fresh interpreter, so that every cache
of the library starts cold, as it does for a command-line user.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is "setup" (set-up only), "plain" (untraced), "spans" (span tracing)
or "counts" (call counters).  Prints one JSON object on stdout.  run.py
starts this script; it is not meant to be run by hand.
"""

import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    expected = workloads.load_digests()

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import drinfeld2

    if not Path(drinfeld2.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("drinfeld2 was imported from %s, not from %s"
                         % (drinfeld2.__file__, SRC))
    tracers = {"spans": tracer.Spans, "counts": tracer.Counters}
    trace = tracers[mode]() if mode in tracers else None
    cases = workloads.set_up(name, seed)
    ready = time.perf_counter()
    out = {"setup_s": ready - start}

    if mode != "setup":
        cpu = time.process_time()
        out.update(workloads.run(name, cases, expected))
        out["wall_s"] = time.perf_counter() - ready
        out["cpu_s"] = time.process_time() - cpu
    if trace is not None:
        out["trace"] = trace.report()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
