import re

import pytest

from drinfeld2 import build_tower
from drinfeld2.census import default_prime, run_census

Q_TO_PS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}

# every (d, m) with d*m <= 3, for q in {2, 3, 4, 5}
GRID_DM = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]
GRID = [(q, d, m) for q in (2, 3, 4, 5) for d, m in GRID_DM]
STRETCH = [(3, 1, 4), (3, 2, 2), (3, 4, 1)]


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
