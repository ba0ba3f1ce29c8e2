"""Costas arrays and Costas cubes: verification, enumeration,
symmetry classification, and finite-field constructions."""

from .core import (
    CostasCube,
    Permutation,
    is_costas_cube,
    projections,
)
from .gf import (
    FieldSpec,
    field_new,
    is_primitive,
    parse_element,
    parse_field_spec,
)
from .symmetry import (
    AxisSymmetry,
    CUBE_SYMMETRIES,
    PLANAR_SYMMETRIES,
    canonical_cube,
    projection_set,
)
from .construct import (
    ConstructionId,
    Family,
    catalog,
    cube_g2x3,
    cube_g3_variant_i,
    cube_g3_variant_ii,
    cube_w2w2g2,
    g2,
    g3,
    k_reversal,
    sweep,
    table2,
    w1,
    w2,
)
from .enumeration import (
    ClassReport,
    EnumerationLimitError,
    array_classes,
    class_report,
    enumerate_costas_arrays,
    table1,
)

__version__ = "0.1.0"

__all__ = (
    "CostasCube", "Permutation", "is_costas_cube", "projections",
    "FieldSpec", "field_new", "is_primitive", "parse_element", "parse_field_spec",
    "AxisSymmetry", "CUBE_SYMMETRIES", "PLANAR_SYMMETRIES", "canonical_cube", "projection_set",
    "ConstructionId", "Family", "catalog", "cube_g2x3", "cube_g3_variant_i", "cube_g3_variant_ii",
    "cube_w2w2g2", "g2", "g3", "k_reversal", "sweep", "table2", "w1", "w2",
    "ClassReport", "EnumerationLimitError", "array_classes", "class_report",
    "enumerate_costas_arrays", "table1",
)
