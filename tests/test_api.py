"""The public API of drinfeld2, and the names that left the library: the
second structure route, the L{tau} arithmetic of OrePoly and other
test-only code live in tests/oracles.py, dead methods are gone."""

import ast
import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeld2
from drinfeld2 import (CensusReport, FrobeniusCharPoly, InvariantFactors, NotRealizable,
                       UPoly, build_tower, charpoly, drinfeld, fields, polys, structure)
from oracles import OrePoly

PUBLIC = [
    "FieldTower", "SizeBoundError", "build_tower",
    "UPoly", "enumerate_monic_irreducibles", "DrinfeldModule",
    "FrobeniusCharPoly", "annihilation_holds", "frobenius_charpoly",
    "is_imaginary", "InvariantFactors", "NotRealizable",
    "module_structure",
    "plane_torsion_rational", "realize_structure",
    "class_number", "hurwitz_class_number",
    "CensusReport", "attach_class_number_checks", "compute_statistics",
    "counting_formulas", "cyclicity_trend", "run_census",
]

REMOVED = {
    drinfeld2: ["FieldEmbedding", "SplittingBoundError", "TorsionStructure",
                "discriminant", "suborder_contained", "action_matrix",
                "is_isogenous", "minimal_polynomial", "MonicIdeal",
                "euler_characteristic", "embed_residue_field", "FieldElement",
                "OrePoly", "ore", "check_criteria"],
    drinfeld: ["SplittingBoundError", "TorsionStructure", "action_matrix", "OrePoly"],
    drinfeld.DrinfeldModule: ["torsion_structure", "phi_ideal",
                              "phi_ideal_two_generators", "g_element", "delta_element",
                              "same_category", "is_supersingular", "frobenius", "gamma",
                              "action_invariants"],
    fields: ["FieldEmbedding", "gauss_solve", "nullspace", "_row_reduce", "_mat_mul",
             "is_prime", "_gcd", "FieldElement"],
    fields.Fq: ["_int_to_vec", "_vec_to_int"],
    OrePoly: ["right_gcd", "right_mod", "right_divides", "is_separable",
              "__call__", "shift", "constant_coeff"],
    polys: ["monic_divisors", "MonicIdeal", "embed_residue_field"],
    polys.UPoly: ["is_constant", "eval_fq", "shift", "__radd__", "__rsub__", "__rmul__"],
    structure: ["suborder_contained", "action_matrix", "OrePoly", "_invariant_pair",
                "check_criteria"],
    structure.InvariantFactors: ["common_factor"],
    charpoly: ["discriminant", "minimal_polynomial_annihilates", "is_isogenous",
               "minimal_polynomial", "_frobenius_witness", "euler_characteristic",
               "MonicIdeal", "frobenius_charpoly", "class_charpoly", "require_annihilation"],
    charpoly.FrobeniusCharPoly: ["norm_term", "chi_poly", "disc_poly", "eval_at",
                                 "frobenius_in_image", "key"],
}


def test_public_names():
    assert drinfeld2.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(drinfeld2, name) is not None


def test_removed_names_are_gone_from_the_library():
    for owner, names in REMOVED.items():
        for name in names:
            assert name not in vars(owner), (owner, name)
    assert list(inspect.signature(OrePoly.apply).parameters) == ["self", "x"]
    # plain data of the Weil pair, and a check with no default charpoly
    assert list(inspect.signature(charpoly.FrobeniusCharPoly).parameters) == [
        "trace", "unit", "prime", "ext_degree"]
    assert charpoly.FrobeniusCharPoly.__slots__ == (
        "trace", "unit", "prime", "ext_degree", "norm", "neg_trace", "chi", "disc",
        "ordinary", "c_minus_2")
    assert all(p.default is p.empty for p in
               inspect.signature(charpoly.annihilation_holds).parameters.values())
    for function in (drinfeld2.is_imaginary, drinfeld2.class_number,
                     drinfeld2.hurwitz_class_number):
        assert list(inspect.signature(function).parameters) == ["disc"]  # disc.fq is the field
    assert not hasattr(fields.Fq(2, 2), "_digits")
    tw = build_tower(3, 1, 1)  # a module caches nothing
    assert "_invariants" not in vars(drinfeld.DrinfeldModule(tw, UPoly.parse(tw.fq, "T"), 1, 1))



def test_import_leaves_out_the_dataclasses_machinery():
    src = str(Path(drinfeld2.__file__).resolve().parent.parent)
    # -S: no site module, whose .pth files may import typing before the library
    code = ("import sys; sys.path.insert(0, %r); import drinfeld2, drinfeld2.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing', 'csv', "
            "'drinfeld2.ore'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def _report(hurwitz=None):
    return CensusReport(3, 1, 3, 1, 1, 1, "T", {}, {}, [], [], {}, {}, False, hurwitz)


def test_result_classes_are_values():
    fq = build_tower(3, 1, 1).fq
    t, two = UPoly.parse(fq, "T"), UPoly.constant(fq, 2)
    cp = FrobeniusCharPoly(two, 2, t, 1)
    inv = InvariantFactors(UPoly.parse(fq, "T+1"), UPoly.one(fq))
    no = NotRealizable("x")
    assert repr(cp) == ("FrobeniusCharPoly(trace=UPoly(F_3, 2), unit=2, "
                        "prime=UPoly(F_3, T), ext_degree=1)")
    assert repr(inv) == "InvariantFactors(i1=UPoly(F_3, T+1), i2=UPoly(F_3, 1))"
    assert repr(no) == "NotRealizable(reason='x')"
    assert not no and not NotRealizable("y")
    twins = [(cp, FrobeniusCharPoly(UPoly.constant(fq, 2), 2, UPoly.gen(fq), 1), "trace"),
             (inv, InvariantFactors(UPoly.parse(fq, "T+1"), UPoly.parse(fq, "1")), "i1"),
             (no, NotRealizable("x"), "reason")]
    for value, twin, name in twins:
        assert value is not twin and value == twin and hash(value) == hash(twin)
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)
        for target in (name, "other"):
            with pytest.raises(AttributeError):
                setattr(value, target, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert not hasattr(value, "__dict__")
    assert cp != FrobeniusCharPoly(two, 1, t, 1) and inv != NotRealizable("x") and no != "x"
    # the derived fields take no part in equality
    other = FrobeniusCharPoly(two, 2, t, 1)
    object.__setattr__(other, "chi", UPoly.zero(fq))
    assert other == cp and hash(other) == hash(cp)


def test_census_report_is_a_mutable_unhashable_record():
    report = _report()
    assert report.hurwitz is None and report == _report(None) != _report({})
    report.hurwitz = {"all_match": True}
    assert report == _report({"all_match": True})
    assert pickle.loads(pickle.dumps(report)) == report == copy.deepcopy(report)
    with pytest.raises(TypeError):
        hash(report)
    assert repr(_report()) == (
        "CensusReport(p=3, s=1, q=3, d=1, m=1, n=1, prime='T', totals={}, statistics={}, "
        "iso_classes=[], isogeny_classes=[], checks={}, formula_comparison={}, "
        "q_even_caveat=False, hurwitz=None)")

def _imported_but_unused(source):
    """The names an import binds in source that no expression reads and
    __all__ does not list."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_library_has_no_unused_imports():
    unused = {path.name: found
              for path in sorted(Path(drinfeld2.__file__).parent.glob("*.py"))
              if (found := _imported_but_unused(path.read_text()))}
    assert unused == {}
    assert _imported_but_unused("from dataclasses import field, replace\nfield()\n") \
        == [(1, "replace")]
