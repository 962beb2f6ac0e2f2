"""The public API of drinfeld2, and the names that left the library: the
second structure route and other test-only code live in tests/oracles.py,
dead methods are gone."""

import inspect

import drinfeld2
from drinfeld2 import charpoly, drinfeld, fields, ore, polys, structure

PUBLIC = [
    "FieldElement", "FieldTower", "SizeBoundError", "build_tower",
    "MonicIdeal", "UPoly", "embed_residue_field",
    "enumerate_monic_irreducibles", "OrePoly", "DrinfeldModule",
    "FrobeniusCharPoly", "annihilation_holds", "euler_characteristic",
    "frobenius_charpoly", "is_imaginary", "InvariantFactors", "NotRealizable",
    "check_criteria", "module_structure",
    "plane_torsion_rational", "realize_structure",
    "class_number", "hurwitz_class_number",
    "CensusReport", "attach_class_number_checks", "compute_statistics",
    "counting_formulas", "cyclicity_trend", "run_census",
]

REMOVED = {
    drinfeld2: ["FieldEmbedding", "SplittingBoundError", "TorsionStructure",
                "discriminant", "suborder_contained", "action_matrix",
                "is_isogenous", "minimal_polynomial"],
    drinfeld: ["SplittingBoundError", "TorsionStructure", "action_matrix"],
    drinfeld.DrinfeldModule: ["torsion_structure", "phi_ideal",
                              "phi_ideal_two_generators", "g_element", "delta_element",
                              "same_category"],
    fields: ["FieldEmbedding", "gauss_solve", "nullspace", "_row_reduce", "_mat_mul",
             "is_prime", "_gcd"],
    fields.Fq: ["_int_to_vec", "_vec_to_int"],
    fields.FieldElement: ["_coerce", "__add__", "__radd__", "__sub__", "__neg__",
                          "__mul__", "__rmul__", "__pow__", "inverse", "frobenius"],
    ore.OrePoly: ["right_gcd", "right_mod", "right_divides", "is_separable",
                  "__call__", "shift", "constant_coeff"],
    polys: ["monic_divisors"],
    polys.UPoly: ["is_constant", "eval_fq", "shift"],
    structure: ["suborder_contained", "action_matrix"],
    structure.InvariantFactors: ["common_factor"],
    charpoly: ["discriminant", "minimal_polynomial_annihilates", "is_isogenous",
               "minimal_polynomial"],
    charpoly.FrobeniusCharPoly: ["norm_term", "chi_poly", "disc_poly", "eval_at"],
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
    for function in (drinfeld2.is_imaginary, drinfeld2.class_number,
                     drinfeld2.hurwitz_class_number):
        assert list(inspect.signature(function).parameters) == ["disc"]  # disc.fq is the field
    assert not hasattr(fields.Fq(2, 2), "_digits")
