"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Makes two traced runs of the small "smoke" input (q=3, d=1, m=2), each
repetition in fresh interpreters, and checks that every exact work
counter (span calls, ore and polys call counts, orbits, modules) is the
same in both, that no op failed and the traced digests equal the
untraced ones, and that a wrapped name missing from the library is
reported as absent with 0 calls.  Exits 0 when all of that holds.
"""

import sys

import run
import tracer
import workloads


def exact_counters(result):
    return {name: value for name, value in result["metrics"].items()
            if name.endswith(".calls") or name in workloads.WORK_COUNTERS}


def main():
    problems = []
    first, second = (run.measure("smoke", 0, 0, 1) for _ in range(2))
    for result in (first, second):
        problems += ["op failed: %s" % f for f in result["failures"]]
        if not result["counters_repeat"]:
            problems.append("counters differ between the passes of one run")
    a, b = exact_counters(first), exact_counters(second)
    problems += ["%s: %s then %s" % (k, a[k], b.get(k)) for k in a if a[k] != b.get(k)]
    for name in ("census.run_census", "structure.module_structure",
                 "charpoly.frobenius_charpoly", "ore.OrePoly.__mul__"):
        if not a[name + ".calls"]:
            problems.append("%s recorded no calls" % name)

    sys.path.insert(0, str(run.SRC))
    import drinfeld2  # noqa: F401  (the tracer patches loaded modules only)

    missing = tracer.Spans(("structure.no_such_function",)).report()
    if missing["absent"] != ["structure.no_such_function"] or \
            missing["calls"]["structure.no_such_function"] != 0:
        problems.append("a missing name is not reported as absent: %r" % missing)

    for problem in problems:
        print("FAIL", problem)
    print("selftest: %d exact counters compared, %s"
          % (len(a), "ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
