import copy
import re

import pytest

from drinfeld2 import build_tower
from drinfeld2.census import attach_class_number_checks, default_prime, run_census

Q_TO_PS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
           13: (13, 1), 31: (31, 1), 127: (127, 1)}

# every (d, m) with d*m <= 3, for q in {2, 3, 4, 5}
GRID_DM = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
GRID = [(q, d, m) for q in (2, 3, 4, 5) for d, m in GRID_DM]
STRETCH = [(3, 1, 4), (3, 2, 2), (3, 4, 1)]
# golden cases at q > 5: odd and even prime-power bases, a sigma-orbit
# length of 2 (d = 2 over F_7), and n <= 2 at q = 13 and 31
LARGE_Q = [(7, 2, 2), (9, 1, 2), (8, 1, 2), (13, 1, 2), (31, 1, 1)]
# golden cases at the largest q the bounds admit at n = 2 and n = 1, where
# classifying the sigma-orbit heads costs most; too large to keep cached
HEADS_AT_LARGE_Q = [(31, 1, 2), (127, 1, 1)]
# golden cases with class-number checks attached
HURWITZ_CASES = [(3, 1, 1), (7, 1, 2)]


def _census_getter(verify_members):
    cache = {}

    def get(q, d, m):
        key = (q, d, m)
        if key not in cache:
            tower = tower_for(q, d * m)
            prime = default_prime(tower.fq, d)
            cache[key] = run_census(tower, prime, m, verify_members=verify_members)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def census_cache():
    """One verified census per (q, d, m), shared across the whole run."""
    return _census_getter(True)


@pytest.fixture(scope="session")
def unverified_census():
    """Censuses without member re-verification, for cases that are only
    compared with closed-form counts; kept apart from census_cache."""
    return _census_getter(False)


def tower_for(q, n):
    p, s = Q_TO_PS[q]
    return build_tower(p, s, n)


def hurwitz_report(census, q, d, m):
    """A copy of census(q, d, m) with class-number checks attached, as
    `census --hurwitz` writes it."""
    return attach_class_number_checks(copy.deepcopy(census(q, d, m)), tower_for(q, d * m))


def _criterion_order(number):
    digits = re.match(r"\d+", number).group()
    return int(digits), number[len(digits):]


def pytest_terminal_summary(terminalreporter):
    """Name the acceptance criteria that failed or errored, by number.
    Reports only; no test is skipped or marked."""
    numbers = set()
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, ()):
            hit = re.search(r"::test_criterion_(\d+[a-z]?)_", getattr(rep, "nodeid", ""))
            if hit:
                numbers.add(hit.group(1))
    if numbers:
        terminalreporter.write_sep("=", "failing acceptance criteria")
        terminalreporter.write_line(
            "criteria " + ", ".join(sorted(numbers, key=_criterion_order)))
