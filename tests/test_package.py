import importlib

import costas_cubes

# The package's public names, one line per module: core, gf, symmetry,
# construct, enumeration.
PUBLIC = (
    "CostasCube", "Permutation", "is_costas_cube", "projections",
    "FieldSpec", "field_new", "is_primitive", "parse_element", "parse_field_spec",
    "AxisSymmetry", "CUBE_SYMMETRIES", "PLANAR_SYMMETRIES", "canonical_cube", "projection_set",
    "ConstructionId", "Family", "catalog", "cube_g2x3", "cube_g3_variant_i", "cube_g3_variant_ii",
    "cube_w2w2g2", "g2", "g3", "k_reversal", "sweep", "table2", "w1", "w2",
    "ClassReport", "EnumerationLimitError", "array_classes", "class_report",
    "enumerate_costas_arrays", "table1",
)

# Reference code that lives in the tests (conftest.py) as oracles, by the
# module that no longer defines it.
MOVED_TO_TESTS = {
    "core": ("is_costas", "cube_from_pair", "cube_from_projections", "PairName"),
    "symmetry": ("apply_planar", "apply_cube", "array_class_size", "cube_orbit", "CUBE_ROTATIONS",
                 "PLANAR_IDENTITY", "VERTICAL_REFLECTION", "ROTATION_180"),
    "enumeration": ("projection_class_count",),
}

# Wrappers over gf._primitive_logs, the one admissibility list, which the
# sweeps, the catalog and the tests read directly; the projections'
# triple of permutations, which are one (3, n) value matrix; and the
# one-array forms, as a value row is the one array form (value_matrix and
# numbered_arrays live on in conftest.py as oracles).
REMOVED = {
    "gf": ("primitive_elements", "g3_admissible", "g3_cube_admissible"),
    "core": ("ProjectionTriple", "costas_violation", "value_matrix"),
    "symmetry": ("canonical_array",),
    "files": ("numbered_arrays",),
}


def test_public_names_are_pinned_and_resolve():
    assert costas_cubes.__all__ == PUBLIC
    namespace = {}
    exec("from costas_cubes import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(costas_cubes, name) is namespace[name]


def test_oracles_are_not_importable_from_the_package():
    for module, names in (*MOVED_TO_TESTS.items(), *REMOVED.items()):
        mod = importlib.import_module(f"costas_cubes.{module}")
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert not hasattr(costas_cubes, name), name
    assert not any(hasattr(costas_cubes.Permutation, m) for m in ("inverse", "cells"))
    # The matrix builder behind enumerate_costas_arrays and array_classes
    # stays private, and Permutation keeps its two public attributes.
    assert "_permutations" not in costas_cubes.__all__
    assert not hasattr(costas_cubes, "_permutations")
    assert {a for a in dir(costas_cubes.Permutation((1,))) if not a.startswith("_")} == {"order", "values"}
    assert not callable(costas_cubes.Permutation((1,)))
    # class_report is the join's one entry point, the G3 constructors
    # read 1-phi and 1-phi^(-1) off the Zech column, and the class walk
    # forms a cube's images from its row list.
    assert not hasattr(costas_cubes.enumeration, "enumerate_costas_cubes")
    assert not hasattr(costas_cubes.symmetry, "cube_images")
    assert not hasattr(costas_cubes, "enumerate_costas_cubes")
    assert not any(hasattr(costas_cubes.FieldSpec, m)
                   for m in ("mul", "pow", "add", "elements", "inv", "neg", "sub",
                             "nonzero_elements"))
    assert not any(hasattr(costas_cubes.AxisSymmetry, m)
                   for m in ("dim", "is_rotation", "apply_coords", "compose", "inverse"))
