"""The public API of drinfeld2, and the names that left the library: the
second structure route and other test-only code live in tests/oracles.py,
dead methods are gone."""

import ast
import dataclasses
import inspect
from pathlib import Path

import drinfeld2
from drinfeld2 import charpoly, drinfeld, fields, ore, polys, structure

PUBLIC = [
    "FieldTower", "SizeBoundError", "build_tower",
    "UPoly", "enumerate_monic_irreducibles", "OrePoly", "DrinfeldModule",
    "FrobeniusCharPoly", "annihilation_holds", "frobenius_charpoly",
    "is_imaginary", "InvariantFactors", "NotRealizable",
    "check_criteria", "module_structure",
    "plane_torsion_rational", "realize_structure",
    "class_number", "hurwitz_class_number",
    "CensusReport", "attach_class_number_checks", "compute_statistics",
    "counting_formulas", "cyclicity_trend", "run_census",
]

REMOVED = {
    drinfeld2: ["FieldEmbedding", "SplittingBoundError", "TorsionStructure",
                "discriminant", "suborder_contained", "action_matrix",
                "is_isogenous", "minimal_polynomial", "MonicIdeal",
                "euler_characteristic", "embed_residue_field", "FieldElement"],
    drinfeld: ["SplittingBoundError", "TorsionStructure", "action_matrix"],
    drinfeld.DrinfeldModule: ["torsion_structure", "phi_ideal",
                              "phi_ideal_two_generators", "g_element", "delta_element",
                              "same_category", "is_supersingular"],
    fields: ["FieldEmbedding", "gauss_solve", "nullspace", "_row_reduce", "_mat_mul",
             "is_prime", "_gcd", "FieldElement"],
    fields.Fq: ["_int_to_vec", "_vec_to_int"],
    ore.OrePoly: ["right_gcd", "right_mod", "right_divides", "is_separable",
                  "__call__", "shift", "constant_coeff"],
    polys: ["monic_divisors", "MonicIdeal", "embed_residue_field"],
    polys.UPoly: ["is_constant", "eval_fq", "shift"],
    structure: ["suborder_contained", "action_matrix"],
    structure.InvariantFactors: ["common_factor"],
    charpoly: ["discriminant", "minimal_polynomial_annihilates", "is_isogenous",
               "minimal_polynomial", "_frobenius_witness", "euler_characteristic",
               "MonicIdeal"],
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
    assert list(inspect.signature(ore.OrePoly.apply).parameters) == ["self", "x"]
    # plain data of the Weil pair, and a check with no default charpoly
    assert [f.name for f in dataclasses.fields(charpoly.FrobeniusCharPoly)] == [
        "trace", "unit", "prime", "ext_degree", "norm", "neg_trace", "chi", "disc"]
    assert all(p.default is p.empty for p in
               inspect.signature(charpoly.annihilation_holds).parameters.values())
    for function in (drinfeld2.is_imaginary, drinfeld2.class_number,
                     drinfeld2.hurwitz_class_number):
        assert list(inspect.signature(function).parameters) == ["disc"]  # disc.fq is the field
    assert not hasattr(fields.Fq(2, 2), "_digits")


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
