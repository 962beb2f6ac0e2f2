"""Census and class-number benchmark for drinfeld2: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding src/drinfeld2).  The
run is a closed loop with one caller: it starts one repetition of the
workload at a time, each in a fresh interpreter (child.py) with jobs=1,
for as many repetitions (at least one) as end nearest to S seconds.  The
seed picks the characteristic prime P; see README.md in this directory.

With --trace 0 the run reports the end-to-end metrics: medians over the
repetitions, and for setup_s over extra set-up-only interpreters.
With --trace 1 each repetition is run three times, untraced, with spans
and with call counters, and the run reports the per-layer metrics.

Every answer is checked against digests.json.  The last line on stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; a summary
goes to stderr and the samples with their provenance to a sidecar file
under .bench_build/perfbench/.  Exit code 0 when a result was printed,
1 when the run could not finish or BENCHMARK.json names metrics the run
does not produce, 2 when there is no library to measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracer
from workloads import WORK_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

TIME_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 21

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
PER_LAYER = (WORK_COUNTERS
             + tuple(n + suffix for n in tracer.SPANS for suffix in (".calls", ".self_s"))
             + tuple(n + ".calls" for n in tracer.COUNTERS)
             + ("trace_overhead_s",))


class HarnessError(RuntimeError):
    """The run could not be completed; no result is printed."""


def child(workload, seed, mode, deadline):
    """One repetition in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, "-E", "-s", "-X", "pycache_prefix=%s" % (OUT / "pycache"),
           str(HERE / "child.py"), workload, str(seed), mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time limit reached before a %s repetition" % mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError("a %s repetition exceeded the time limit" % mode) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError("a %s repetition exited with code %d"
                           % (mode, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Run the workload for `seconds` and return samples, metrics and
    failures."""
    deadline = time.monotonic() + TIME_LIMIT_S
    child(workload, seed, "setup", deadline)  # warm-up: writes the bytecode cache
    setups = [] if trace else [child(workload, seed, "setup", deadline)["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    modes = ("plain", "spans", "counts") if trace else ("plain",)
    reps = []
    start = time.monotonic()
    last = 0.0
    # start another repetition while it would end nearer to `seconds` than
    # stopping now does
    while not reps or (time.monotonic() - start + last / 2 < seconds
                       and time.monotonic() + last < deadline):
        began = time.monotonic()
        reps.append({mode: child(workload, seed, mode, deadline) for mode in modes})
        last = time.monotonic() - began

    failures = []
    attempted = 0
    for rep in reps:
        for mode, rec in rep.items():
            attempted += rec["attempted"]
            failures += [dict(f, mode=mode) for f in rec["failures"]]
            if rec["digests"] != rep["plain"]["digests"]:
                failures.append({"op": "all", "mode": mode,
                                 "problems": ["digests differ from the untraced run"]})
    plain = [rep["plain"] for rep in reps]
    samples = {key: [r[key] for r in plain] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    if not trace:
        samples["setup_s"] = setups
    result = {"attempted": attempted, "failures": failures, "repetitions": len(reps),
              "samples": samples,
              "metrics": {key: median(values) for key, values in samples.items()}}
    if trace:
        samples["traced_wall_s"] = [rep["spans"]["wall_s"] for rep in reps]
        result["metrics"].update(layer_metrics(reps))
        exact = [(rep["plain"]["counters"], rep["spans"]["trace"]["calls"],
                  rep["counts"]["trace"]["calls"]) for rep in reps]
        result["counters_repeat"] = all(e == exact[0] for e in exact)
        result["absent"] = sorted(set(reps[0]["spans"]["trace"]["absent"]
                                      + reps[0]["counts"]["trace"]["absent"]))
    return result


def layer_metrics(reps):
    spans = [rep["spans"] for rep in reps]
    layer = dict(reps[0]["plain"]["counters"])
    for name in tracer.SPANS:
        layer[name + ".calls"] = spans[0]["trace"]["calls"][name]
        layer[name + ".self_s"] = median([s["trace"]["self_s"][name] for s in spans])
    for name in tracer.COUNTERS:
        layer[name + ".calls"] = reps[0]["counts"]["trace"]["calls"][name]
    layer["trace_overhead_s"] = (median([s["wall_s"] for s in spans])
                                 - median([rep["plain"]["wall_s"] for rep in reps]))
    return layer


def loadavg_1m():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": git_commit(),
        "python": sys.version, "cpu_count": os.cpu_count(),
        "loadavg_1m_start": loadavg_1m(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_sidecar(prov, result):
    OUT.joinpath("perfbench").mkdir(parents=True, exist_ok=True)
    path = OUT / "perfbench" / ("%s-seed%d-trace%d-%s-%d.json" % (
        prov["workload"], prov["seed"], prov["trace"],
        prov["started_utc"].replace(":", ""), os.getpid()))
    path.write_text(json.dumps({"provenance": prov, "result": result},
                               indent=1, sort_keys=True) + "\n")
    return path


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median(values), q1, q3


def summary_lines(workload, result, metric_units):
    """Human-readable lines: each metric by name with its unit."""
    lines = ["%s: %d repetitions, failure_ratio %d/%d"
             % (workload, result["repetitions"], len(result["failures"]),
                result["attempted"])]
    for name, unit in metric_units:
        values = result["samples"].get(name)
        if values:
            mid, q1, q3 = spread(values)
            lines.append("  %-44s %12.4f %-5s (quartiles %.4f..%.4f, n=%d)"
                         % (name, mid, unit, q1, q3, len(values)))
        elif isinstance(result["metrics"][name], int):
            lines.append("  %-44s %12d %s" % (name, result["metrics"][name], unit))
        else:
            lines.append("  %-44s %12.4f %s" % (name, result["metrics"][name], unit))
    for failure in result["failures"][:10]:
        lines.append("  FAILED %s" % failure)
    return lines


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drinfeld2" / "__init__.py").is_file():
        print("no library at %s: nothing to measure" % (SRC / "drinfeld2"), file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    produced = set(PER_LAYER if args.trace else END_TO_END)
    named = {m["name"] for m in wanted}
    if named != produced:
        print("BENCHMARK.json and the run disagree on the metrics: only in BENCHMARK.json %s,"
              " only in the run %s" % (sorted(named - produced), sorted(produced - named)),
              file=sys.stderr)
        return 1
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1
    prov["loadavg_1m_end"] = loadavg_1m()
    sidecar = write_sidecar(prov, result)

    units = [(m["name"], m["unit"]) for m in wanted]
    for line in summary_lines(args.workload, result, units):
        print(line, file=sys.stderr)
    print("sidecar: %s" % sidecar.relative_to(ROOT), file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
