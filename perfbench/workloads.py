"""Workload inputs, the operations a repetition performs, and answer digests.

Nothing here imports drinfeld2 at module level: the child process times
that import as part of set-up.  Every call into the library goes through
its public API.

An operation ("op") is one census case or one ordinary-class Hurwitz
check.  It fails when it raises, when its answer digest differs from the
one recorded in digests.json, or when one of the report's own checks is
false.  For an input without a recorded digest only the report's checks
apply.
"""

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

Q_TO_PS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}

# The acceptance grid: every (d, m) with d*m <= 3 for q in {2, 3, 4, 5},
# plus the three stretch cases (the GRID + STRETCH of tests/conftest.py).
_GRID_DM = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
ACCEPTANCE = ([(q, d, m) for q in (2, 3, 4, 5) for d, m in _GRID_DM]
              + [(3, 1, 4), (3, 2, 2), (3, 4, 1)])

# name -> (census cases as (q, d, m), verify_members, class-number checks)
WORKLOADS = {
    "census-order-bound": ([(2, 2, 5)], False, False),
    "census-verify": ([(5, 1, 3)], True, False),
    "hurwitz": ([(3, 2, 1)], False, True),
    "census-grid": (ACCEPTANCE, False, False),
    # a tiny input for selftest.py; not one of the benchmark's workloads
    "smoke": ([(3, 1, 2)], False, False),
}

# The exact work counters a repetition reports, in Outcome's order.
WORK_COUNTERS = ("census.orbits", "census.modules", "hurwitz.max_stabilized_bound")

# The mathematical answer of one isomorphism class.
ISO_FIELDS = ("g", "delta", "orbit_size", "aut_count", "c", "mu", "chi",
              "i1", "i2", "height")


def sha256_json(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


def census_key(q, d, m, prime):
    return "census q=%d d=%d m=%d P=%s" % (q, d, m, prime)


def class_key(q, d, m, prime, row):
    return "class q=%d d=%d m=%d P=%s c=%s mu=%s" % (q, d, m, prime, row["c"], row["mu"])


def census_digest(report):
    """Digest of the answers only, so a schema change is not a wrong answer."""
    data = report.to_dict()
    return sha256_json({
        "iso_classes": [[row[k] for k in ISO_FIELDS] for row in data["iso_classes"]],
        "totals": data["totals"],
        "statistics": data["statistics"],
    })


def class_digest(row):
    return sha256_json([
        row["disc"], row["W"], row["H"], row["match"],
        [[sub["i2"], sub["census_members_with_plane"], sub["H"], sub["match"]]
         for sub in row["admissible_i2"]],
    ])


def class_problems(row):
    problems = []
    if not row["imaginary"]:
        problems.append("discriminant not imaginary")
    if not row["match"]:
        problems.append("W != H(disc)")
    problems += ["members with the %s-plane != H" % sub["i2"]
                 for sub in row["admissible_i2"] if not sub["match"]]
    return problems


def select_prime(fq, d, seed):
    """The seed-th monic irreducible of degree d (cyclically); seed 0 gives
    the census default prime."""
    from drinfeld2 import enumerate_monic_irreducibles

    irreducibles = enumerate_monic_irreducibles(fq, d)
    return irreducibles[seed % len(irreducibles)]


def set_up(name, seed):
    """Towers and primes of a workload: the set-up the benchmark times."""
    from drinfeld2 import build_tower

    cases = []
    for q, d, m in WORKLOADS[name][0]:
        p, s = Q_TO_PS[q]
        tower = build_tower(p, s, d * m)
        cases.append((q, d, m, tower, select_prime(tower.fq, d, seed)))
    return cases


class Outcome:
    """Ops of one repetition: answer digests, failures and work counters."""

    def __init__(self, expected):
        self.expected = expected
        self.digests = {}
        self.failures = []
        self.attempted = 0
        self.orbits = 0
        self.modules = 0
        self.max_stabilized_bound = 0

    def op(self, key, digest, problems):
        self.attempted += 1
        self.digests[key] = digest
        want = self.expected.get(key)
        if want is not None and want != digest:
            problems = problems + ["answer digest differs from the recorded one"]
        if problems:
            self.failures.append({"op": key, "problems": problems})

    def as_dict(self):
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "digests": self.digests,
            "counters": dict(zip(WORK_COUNTERS, (
                self.orbits, self.modules, self.max_stabilized_bound))),
        }


def run(name, cases, expected):
    """Perform every op of one repetition and check each answer."""
    from drinfeld2 import attach_class_number_checks, run_census

    _, verify, hurwitz = WORKLOADS[name]
    out = Outcome(expected)
    for q, d, m, tower, prime in cases:
        key = census_key(q, d, m, prime)
        try:
            report = run_census(tower, prime, m, jobs=1, verify_members=verify)
        except Exception as exc:
            out.op(key, None, ["raised %r" % exc])
            continue
        out.orbits += report.totals["iso_classes"]
        out.modules += report.totals["modules"]
        problems = ["check %s is false" % k for k, v in report.checks.items()
                    if k != "members_verified" and not v]
        if report.checks.get("members_verified", verify) != verify:
            problems.append("members_verified differs from the request")
        if hurwitz:
            try:
                attach_class_number_checks(report, tower)
            except Exception as exc:
                problems.append("class-number checks raised %r" % exc)
            else:
                if not report.hurwitz["all_match"]:
                    problems.append("hurwitz.all_match is false")
        out.op(key, census_digest(report), problems)
        if report.hurwitz is None:
            continue
        for row in report.hurwitz["classes"]:
            out.op(class_key(q, d, m, prime, row), class_digest(row), class_problems(row))
            # the bound is a detail of today's class-number method; tolerate its absence
            terms = list(row.get("terms", ()))
            for sub in row["admissible_i2"]:
                terms += sub.get("terms", ())
            out.max_stabilized_bound = max(
                [out.max_stabilized_bound] + [t.get("stabilized_bound", 0) for t in terms])
    return out.as_dict()
