"""Every metric of every workload, printed by name with its unit.

    python3 perfbench/summary.py

Runs each workload of BENCHMARK.json at seed 0 for run_seconds, untraced
and then traced, exactly as run.py does, and prints the end-to-end
metrics (median, quartiles and sample count), the failure ratio, and the
per-layer metrics of the traced run, with the tracing overhead.
"""

import sys

import run

SEED = 0


def main():
    bench = run.load_benchmark()
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, units in ((0, end_to_end), (1, per_layer)):
            result = run.measure(workload, SEED, bench["run_seconds"], trace)
            title = "%s seed %d, %s" % (workload, SEED, "traced" if trace else "untraced")
            lines = run.summary_lines(title, result, units)
            if trace and result["absent"]:
                lines.append("  absent from the library: %s" % ", ".join(result["absent"]))
            print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
