"""Spans and call counters around the public functions of drinfeld2's layers.

The benchmark's own code wraps the library from outside; the library
itself is not changed.  A span records calls and self time (its duration
minus the time of the spans it directly encloses).  A counter records
calls only; counters run in a repetition of their own, so their wrapper
cost does not inflate any self time.

A module such as census.py imports frobenius_charpoly and friends by
name, so every drinfeld2 namespace that binds the wrapped object is
patched, not only the defining module.  A name that no longer exists is
reported as absent with 0 calls.
"""

import sys
import time

SPANS = (
    "fields.build_tower",
    "fields.gauss_solve",
    "drinfeld.DrinfeldModule.__init__",
    "drinfeld.DrinfeldModule.height",
    "charpoly.frobenius_charpoly",
    "charpoly.annihilation_holds",
    "charpoly.euler_characteristic",
    "structure.action_matrix",
    "structure.smith_normal_form",
    "structure.module_structure",
    "structure.check_criteria",
    "structure.plane_torsion_rational",
    "census.twist_orbits",
    "census.run_census",
    "census.attach_class_number_checks",
    "hurwitz.hurwitz_class_number",
    "hurwitz.class_number",
    "hurwitz.proper_ideal_representatives",
)

COUNTERS = (
    "ore.OrePoly.__mul__",
    "ore.OrePoly.right_divmod",
    "polys.UPoly.__divmod__",
)


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "drinfeld2" or name.startswith("drinfeld2."))]


def patch(name, make_wrapper):
    """Replace the function called `name` ("module.func" or
    "module.Class.method") by make_wrapper(fn) wherever drinfeld2 binds it.
    Returns False when the name does not exist."""
    module_name, *path = name.split(".")
    owner = sys.modules.get("drinfeld2." + module_name)
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    if owner is None:
        return False
    if path[:-1]:
        # a method: the class object is shared by every namespace
        target = vars(owner).get(path[-1])
        if target is None:
            return False
        setattr(owner, path[-1], make_wrapper(target))
        return True
    target = getattr(owner, path[-1], None)
    if target is None:
        return False
    wrapper = make_wrapper(target)
    for mod in _library_modules():
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)
    return True


class Spans:
    """Calls and self time per span name."""

    def __init__(self, names=SPANS):
        self.stats = {name: [0, 0] for name in names}  # calls, self ns
        self._stack = []  # time covered by the direct children of each open span
        self.absent = [name for name in names
                       if not patch(name, lambda fn, name=name: self._wrap(name, fn))]

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    def report(self):
        return {"absent": self.absent,
                "calls": {n: s[0] for n, s in self.stats.items()},
                "self_s": {n: s[1] / 1e9 for n, s in self.stats.items()}}


class Counters:
    """Calls per counted name, with the cheapest wrapper."""

    def __init__(self, names=COUNTERS):
        self.calls = {name: [0] for name in names}
        self.absent = [name for name in names
                       if not patch(name, lambda fn, name=name: self._wrap(name, fn))]

    def _wrap(self, name, fn):
        cell = self.calls[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def report(self):
        return {"absent": self.absent,
                "calls": {n: c[0] for n, c in self.calls.items()}}
