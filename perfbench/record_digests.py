"""Record the answer digests that run.py checks every repetition against.

    python3 perfbench/record_digests.py

Computes every census case of every workload for every monic irreducible
P of its degree (so every seed has a recorded answer), plus the
class-number checks of the hurwitz workload, and writes digests.json.
Run it only when the library's answers are known to be right; the file
is the benchmark's correctness oracle.
"""

import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    from drinfeld2 import build_tower, enumerate_monic_irreducibles

    digests = {}
    for name, (cases, _, hurwitz) in workloads.WORKLOADS.items():
        for q, d, m in cases:
            p, s = workloads.Q_TO_PS[q]
            tower = build_tower(p, s, d * m)
            for prime in enumerate_monic_irreducibles(tower.fq, d):
                # a census answer does not depend on verify_members
                if workloads.census_key(q, d, m, prime) in digests and not hurwitz:
                    continue
                result = workloads.run(name, [(q, d, m, tower, prime)], {})
                if result["failures"]:
                    raise SystemExit("not recording a failing case: %r" % result["failures"])
                digests.update(result["digests"])
                print("%-20s %s" % (name, workloads.census_key(q, d, m, prime)),
                      file=sys.stderr, flush=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
