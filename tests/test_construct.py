import functools
import re

import numpy as np
import pytest

from costas_cubes import construct
from costas_cubes.construct import (
    DEFAULT_MODULI,
    ConstructionId,
    Family,
    _field_rows,
    catalog,
    cube_g2x3,
    cube_g3_variant_i,
    cube_g3_variant_ii,
    cube_w2w2g2,
    default_field,
    g2,
    g3,
    k_reversal,
    sweep,
    table2,
    w1,
    w2,
)
from costas_cubes.core import (
    CostasCube,
    Permutation,
    is_costas_cube,
)
from costas_cubes import symmetry
from costas_cubes.reference import CUBE_CLASS_COUNTS
from costas_cubes.gf import (
    FieldSpec,
    field_new,
    is_prime,
    is_primitive,
    parse_element,
    prime_power,
)
from costas_cubes.symmetry import (
    canonical_cube,
    projection_set,
)

from conftest import (
    GF16_A,
    GF16_B,
    GF16_C,
    GF16_J,
    GF16_K,
    GF27_D_A,
    GF27_D_B,
    GF27_D_C,
    GF27_D_K,
    GF27_E_A,
    GF27_E_B,
    GF27_E_C,
    GF27_E_K,
    GF27_J,
    P13_A,
    P13_B,
    P13_C,
    P13_J,
    P13_K,
    ROTATION_180,
    SMALL_SD_TRIPLES,
    VERTICAL_REFLECTION,
    admissible,
    canonical_cube_oracle,
    costas_cube_classes,
    costas_violation_oracle,
    cube_from_jk,
    cube_from_pair,
    field_add,
    field_pow,
    field_sub,
    image,
    inverse,
    least_image_oracle,
    projection_rows,
)

GF8 = field_new(2, 3, (1, 0, 1, 1))
GF13 = field_new(13, 1)
GF16 = field_new(2, 4, (1, 0, 0, 1, 1))
GF27 = field_new(3, 3, (1, 0, 2, 1))
PHI27 = parse_element(GF27, "2+2x")


def test_w1_examples():
    assert w1(3, 2, 0) == (2, 1)
    assert w1(5, 2, 0) == (2, 4, 3, 1)
    base = w1(5, 2, 0)
    shifted = w1(5, 2, 1)
    assert shifted == base[1:] + base[:1]
    with pytest.raises(ValueError, match="not primitive"):
        w1(5, 4, 0)


def test_array_constructors_return_value_rows():
    """Each array constructor returns its value row as a tuple of ints."""
    for row in (w1(13, 2, 3), g2(GF13, 2, 6), w2(13, 2), g3(GF16, parse_element(GF16, "x+x^2"))):
        assert type(row) is tuple and all(type(v) is int for v in row), row
        assert sorted(row) == list(range(1, len(row) + 1))


def test_w2_examples():
    assert w2(13, 11) == P13_A
    assert w2(5, 2) == (1, 3, 2)
    with pytest.raises(ValueError, match="not primitive"):
        w2(13, 3)


@pytest.mark.parametrize("construction, message", [
    (lambda: w1(2, 1), "W1 requires p > 2"),
    (lambda: w1(13, 2, 13), "shift c=13 must lie in GF(13)"),
    (lambda: w1(13, 2, -1), "shift c=-1 must lie in GF(13)"),
    (lambda: g2(field_new(3, 1), 2, 2), "G2 requires q > 3"),
    (lambda: w2(3, 2), "W2 requires p > 3"),
    (lambda: cube_g2x3(field_new(3, 1), 2, 2, 2), "this construction requires q > 3"),
    (lambda: cube_w2w2g2(3, 2, 2), "this construction requires p > 3"),
], ids=["w1-p2", "w1-c13", "w1-c-1", "g2-q3", "w2-p3", "g2x3-q3", "w2w2g2-p3"])
def test_constructors_refuse_fields_too_small_and_shifts_outside(construction, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        construction()


def test_w2_is_w1_with_boundary_row_and_column_removed():
    # remove the row holding value 1 (the cell (1, p-1)) and its column,
    # then close up the numbering
    for p, phi in ((5, 2), (7, 3), (13, 11)):
        full = w1(p, phi, 0)
        trimmed = tuple(v - 1 for v in full[: p - 2])
        assert trimmed == w2(p, phi)


def test_g2_examples():
    assert g2(GF13, 11, 6) == P13_C
    psi_inv = field_pow(GF16, parse_element(GF16, "x+x^2+x^3"), -1)
    assert g2(GF16, parse_element(GF16, "1+x^2+x^3"), psi_inv) == GF16_C


def test_g2_transpose_swaps_parameters():
    for phi, rho in ((11, 6), (6, 11), (2, 7)):
        assert inverse(Permutation(g2(GF13, phi, rho))).values == g2(GF13, rho, phi)


def test_g3_examples():
    assert g3(GF27, PHI27) == GF27_D_A
    with pytest.raises(ValueError, match="not primitive"):
        g3(GF13, 2)  # 1-2 = 12 has order 2 in GF(13)


def test_g3_is_shifted_g2():
    for field, phi in ((GF27, PHI27), (field_new(7, 1), 3), (GF8, 3)):
        one_minus = field_sub(field, 1, phi)
        t = g2(field, phi, one_minus)
        assert t[0] == 1  # the pinned 1 entry at position (1, 1)
        s = g3(field, phi)
        # (s_{i,j}) = (t_{i+1,j+1}): deleting the first row and column
        assert s == tuple(v - 1 for v in t[1:])


def test_cube_g2x3_gf16_example():
    cube = cube_g2x3(GF16, 2, 13, 14)
    assert cube == cube_from_jk(GF16_J, GF16_K)
    a, b, c = projection_rows(cube)
    assert (a, b, c) == (GF16_A, GF16_B, GF16_C)
    assert is_costas_cube(cube)


def test_cube_g2x3_projection_parameters():
    phi, rho, psi = 2, 13, 14
    cube = cube_g2x3(GF16, phi, rho, psi)
    a, b, c = projection_rows(cube)
    assert a == g2(GF16, phi, field_pow(GF16, rho, -1))
    assert b == g2(GF16, field_pow(GF16, phi, -1), psi)
    assert c == g2(GF16, rho, field_pow(GF16, psi, -1))


def test_cube_g2x3_all_three_conditions_hold():
    phi, rho, psi = 2, 6, 7
    field = field_new(11, 1)
    cube = cube_g2x3(field, phi, rho, psi)
    for i, j, k in cube.triples():
        assert field_add(field, field_pow(field, phi, i), field_pow(field, rho, -j)) == 1
        assert field_add(field, field_pow(field, phi, -i), field_pow(field, psi, k)) == 1
        assert field_add(field, field_pow(field, rho, j), field_pow(field, psi, -k)) == 1


def test_cube_g2x3_equal_parameters_small_projection_set():
    cube = cube_g2x3(GF8, 7, 7, 7)
    assert cube.triples() == tuple(SMALL_SD_TRIPLES)
    assert len(projection_set(cube)) == 4
    for q in (5, 7, 9, 11, 13):
        pm = prime_power(q)
        field = field_new(pm[0], pm[1], DEFAULT_MODULI.get(q))
        for phi in admissible(field):
            assert len(projection_set(cube_g2x3(field, phi, phi, phi))) == 4


def test_cube_w2w2g2_example():
    cube = cube_w2w2g2(13, 11, 6)
    assert cube == cube_from_jk(P13_J, P13_K)
    a, b, c = projection_rows(cube)
    assert (a, b, c) == (P13_A, P13_B, P13_C)
    assert a == w2(13, 11)
    assert b == image(VERTICAL_REFLECTION, Permutation(w2(13, 6))).values
    assert c == g2(GF13, 11, 6)
    assert is_costas_cube(cube)


def test_cube_g3_variant_i_example():
    cube = cube_g3_variant_i(GF27, PHI27)
    assert cube == cube_from_jk(GF27_J, GF27_D_K)
    a, b, c = projection_rows(cube)
    assert (a, b, c) == (GF27_D_A, GF27_D_B, GF27_D_C)
    assert a == g3(GF27, PHI27)
    assert b == g3(GF27, field_pow(GF27, PHI27, -1))
    assert c == g3(GF27, field_pow(GF27, field_sub(GF27, 1, PHI27), -1))
    assert is_costas_cube(cube)


def test_cube_g3_variant_i_is_shifted_g2x3():
    for field, phi in ((GF27, PHI27), (field_new(7, 1), 3), (GF8, 2)):
        inner = cube_g3_variant_i(field, phi)
        rho = field_pow(field, field_sub(field, 1, phi), -1)
        psi = field_sub(field, 1, field_pow(field, phi, -1))
        outer = cube_g2x3(field, phi, rho, psi)
        assert outer.rows[0] == (1, 1)  # pinned 1 entry at (1,1,1)
        # (d_{i,j,k}) = (f_{i+1,j+1,k+1}); drop the three boundary planes
        shifted = tuple((j - 1, k - 1) for j, k in outer.rows[1:])
        assert inner.rows == shifted


def test_cube_g3_variant_ii_example():
    cube = cube_g3_variant_ii(GF27, PHI27)
    assert cube == cube_from_jk(GF27_J, GF27_E_K)
    a, b, c = projection_rows(cube)
    assert (a, b, c) == (GF27_E_A, GF27_E_B, GF27_E_C)
    assert a == projection_rows(cube_g3_variant_i(GF27, PHI27))[0]
    assert b == image(VERTICAL_REFLECTION, Permutation(g3(GF27, field_pow(GF27, PHI27, -1)))).values
    assert c == image(ROTATION_180, Permutation(g3(GF27, field_pow(GF27, field_sub(GF27, 1, PHI27), -1)))).values
    assert is_costas_cube(cube)


def test_cube_g3_rejects_inadmissible_fields():
    with pytest.raises(ValueError, match="not primitive"):
        cube_g3_variant_i(GF16, 2)
    with pytest.raises(ValueError, match="not primitive"):
        cube_g3_variant_ii(GF16, 2)


def test_k_reversal_maps_variant_i_to_ii():
    for q in range(5, 33):
        pm = prime_power(q)
        if pm is None:
            continue
        field = field_new(pm[0], pm[1], DEFAULT_MODULI.get(q))
        for phi in admissible(field, 1, -1):
            d = cube_g3_variant_i(field, phi)
            e, still_costas = k_reversal(d)
            assert e == cube_g3_variant_ii(field, phi)
            assert still_costas
            twice, _ = k_reversal(e)
            assert twice == d


def test_constructors_refuse_exactly_the_inadmissible_parameters():
    """g3 and the G3 cube constructors check phi, 1-phi and 1-phi^(-1)
    element by element with is_primitive; the admissible lists read the
    same predicate off the log and Zech columns.  Over every default field
    with q <= 32, each constructor raises for a nonzero phi exactly when
    phi is not listed, and names the order or the element that is not
    primitive: for q <= 3 it refuses every phi, and the lists are empty."""
    for q in range(2, 33):
        if prime_power(q) is None:
            continue
        f = default_field(q)
        for construction, listed in (
            (g3, admissible(f, 1)),
            (cube_g3_variant_i, admissible(f, 1, -1)),
            (cube_g3_variant_ii, admissible(f, 1, -1)),
        ):
            for phi in range(1, f.q):
                try:
                    construction(f, phi)
                    message = None
                except ValueError as error:
                    message = str(error)
                where = (q, construction.__name__, phi, message)
                if phi in listed:
                    assert message is None, where
                else:
                    assert message is not None, where
                    assert "requires q > 3" in message or f"is not primitive in GF({q})" in message, where


def test_k_reversal_involution_and_order1():
    one = CostasCube(((1, 1),))
    assert k_reversal(one) == (one, True)
    cube = cube_from_pair("AB", Permutation((2, 4, 1, 3)), Permutation((3, 1, 4, 2)))
    once, _ = k_reversal(cube)
    twice, _ = k_reversal(once)
    assert twice == cube


def test_k_reversal_can_break_costas_property():
    broken = [
        cube for cube in (k_reversal(c)[0] for c in _order6_g2x3_cubes())
        if not is_costas_cube(cube)
    ]
    # not asserting non-emptiness per se; the call must report honestly
    for cube in broken:
        assert not is_costas_cube(cube)


def _order6_g2x3_cubes():
    prims = admissible(GF8)
    return [cube_g2x3(GF8, a, b, c) for a in prims for b in prims for c in prims][:20]


def _field_for(q):
    pm = prime_power(q)
    return field_new(pm[0], pm[1], DEFAULT_MODULI.get(q))


def test_every_cube_tuple_yields_labelled_projections():
    # over every admissible tuple of order <= 29, the three projections
    # are exactly the labelled construction arrays (with the stated
    # reflection for w2w2g2's B and reflection/rotation for variant ii)
    for q in range(5, 32):
        if prime_power(q) is None:
            continue
        field = _field_for(q)
        prims = admissible(field)
        for phi in prims:
            for rho in prims:
                for psi in prims:
                    a, b, c = projection_rows(cube_g2x3(field, phi, rho, psi))
                    assert a == g2(field, phi, field_pow(field, rho, -1))
                    assert b == g2(field, field_pow(field, phi, -1), psi)
                    assert c == g2(field, rho, field_pow(field, psi, -1))
        if field.m == 1:
            for phi in prims:
                for psi in prims:
                    a, b, c = projection_rows(cube_w2w2g2(q, phi, psi))
                    assert a == w2(q, phi)
                    assert b == image(VERTICAL_REFLECTION, Permutation(w2(q, psi))).values
                    assert c == g2(field, phi, psi)
    for q in range(5, 33):
        if prime_power(q) is None:
            continue
        field = _field_for(q)
        for phi in admissible(field, 1, -1):
            inv_phi = field_pow(field, phi, -1)
            c_base = field_pow(field, field_sub(field, 1, phi), -1)
            a, b, c = projection_rows(cube_g3_variant_i(field, phi))
            assert a == g3(field, phi)
            assert b == g3(field, inv_phi)
            assert c == g3(field, c_base)
            a, b, c = projection_rows(cube_g3_variant_ii(field, phi))
            assert a == g3(field, phi)
            assert b == image(VERTICAL_REFLECTION, Permutation(g3(field, inv_phi))).values
            assert c == image(ROTATION_180, Permutation(g3(field, c_base))).values


def test_sweep_counts_match_published_table():
    assert sweep(Family.CUBE_G2X3, 6).count(6) == 4
    assert sweep(Family.CUBE_G3, 4).count(4) == 2
    assert sweep(Family.CUBE_W2W2G2, 15).count(15) == 10
    with pytest.raises(ValueError, match="guard"):
        sweep(Family.CUBE_G2X3, 30)
    # The family's value, not its str()/format(), which differ between
    # Python 3.10 and 3.11.
    with pytest.raises(ValueError, match=r"^sweep is defined for cube families, not W1$"):
        sweep(Family.W1, 6)


# -- the per-tuple sweep, the oracle of the batched one -------------------

CUBE_FAMILIES = (Family.CUBE_G2X3, Family.CUBE_W2W2G2, Family.CUBE_G3,
                 Family.CUBE_G3_I, Family.CUBE_G3_II)

# A second irreducible modulus for every extension field the sweeps use.
# GF(4) has a single irreducible quadratic, 1 + x + x^2, so it keeps it.
OTHER_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 1, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 0, 1, 0, 1),
}

# The single-tuple constructor of each witness family, from a witness.
REBUILD = {
    Family.CUBE_G2X3: lambda w: cube_g2x3(w.field, *w.elements),
    Family.CUBE_W2W2G2: lambda w: cube_w2w2g2(w.field.p, *w.elements),
    Family.CUBE_G3_I: lambda w: cube_g3_variant_i(w.field, *w.elements),
    Family.CUBE_G3_II: lambda w: cube_g3_variant_ii(w.field, *w.elements),
}


def sweep_tuples_oracle(family, max_order, moduli=None):
    """Yield (order, witness family, field, elements, cube) over admissible
    tuples in sweep order, building each cube with its constructor."""
    if family in (Family.CUBE_G2X3, Family.CUBE_G3, Family.CUBE_G3_I, Family.CUBE_G3_II):
        shift = 2 if family is Family.CUBE_G2X3 else 3
        for q in range(4, max_order + shift + 1):
            if prime_power(q) is None or q - shift < 2 or q - shift > max_order:
                continue
            field = default_field(q, moduli)
            if family is Family.CUBE_G2X3:
                prims = admissible(field)
                for phi in prims:
                    for rho in prims:
                        for psi in prims:
                            cube = cube_g2x3(field, phi, rho, psi)
                            yield q - 2, family, field, (phi, rho, psi), cube
            else:
                for phi in admissible(field, 1, -1):
                    if family in (Family.CUBE_G3, Family.CUBE_G3_I):
                        cube = cube_g3_variant_i(field, phi)
                        yield q - 3, Family.CUBE_G3_I, field, (phi,), cube
                    if family in (Family.CUBE_G3, Family.CUBE_G3_II):
                        cube = cube_g3_variant_ii(field, phi)
                        yield q - 3, Family.CUBE_G3_II, field, (phi,), cube
    else:
        for p in range(5, max_order + 3):
            if not is_prime(p) or p - 2 < 2 or p - 2 > max_order:
                continue
            field = field_new(p, 1)
            prims = admissible(field)
            for phi in prims:
                for psi in prims:
                    yield p - 2, family, field, (phi, psi), cube_w2w2g2(p, phi, psi)


def sweep_oracle(family, max_order, moduli=None):
    """The classes of sweep(family, max_order), canonicalizing every tuple."""
    classes = {}
    for order, witness_family, field, elements, cube in sweep_tuples_oracle(family, max_order, moduli):
        classes.setdefault(order, {}).setdefault(
            canonical_cube(cube), ConstructionId(witness_family, field, elements)
        )
    return classes


def _listing(classes):
    """Orders, classes and witnesses in insertion order."""
    return [(order, cube, witness.describe())
            for order, found in classes.items() for cube, witness in found.items()]


@pytest.mark.parametrize("moduli", [DEFAULT_MODULI, OTHER_MODULI], ids=["default", "other"])
def test_sweep_matches_per_tuple_oracle(moduli):
    for q, modulus in OTHER_MODULI.items():
        pm = prime_power(q)
        field_new(pm[0], pm[1], modulus)  # irreducible
        assert modulus != DEFAULT_MODULI[q] or q == 4
    for family in CUBE_FAMILIES:
        report = sweep(family, 29, moduli=moduli)
        oracle = sweep_oracle(family, 29, moduli)
        assert _listing(report.classes) == _listing(oracle), family
        assert report.classes == oracle


def test_field_rows_match_constructors_tuple_by_tuple():
    """Row t of a field's matrix is the cube its constructor builds at the
    t-th tuple in sweep order, and decodes to that tuple's witness; a cube
    can equal a permuted tuple's up to symmetry, which the class-level
    comparison would not see."""
    for family in (Family.CUBE_G2X3, Family.CUBE_W2W2G2, Family.CUBE_G3):
        by_field = {}
        for _, witness_family, field, elements, cube in sweep_tuples_oracle(family, 29, OTHER_MODULI):
            by_field.setdefault(field, []).append((ConstructionId(witness_family, field, elements), cube))
        for field, tuples in by_field.items():
            logs = construct._primitive_logs(field, *((1, -1) if family is Family.CUBE_G3 else ()))
            rows, witness = _field_rows(family, field, logs)
            assert rows.dtype == np.min_scalar_type(tuples[0][1].order)
            assert rows.shape == (len(tuples), 2 * tuples[0][1].order)
            for t, (construction, cube) in enumerate(tuples):
                assert rows[t].tolist() == [x for row in cube.rows for x in row]
                assert witness(t) == construction


def test_sweep_outputs_are_costas_and_witnessed():
    for family in CUBE_FAMILIES:
        witness_families = {Family.CUBE_G3: {Family.CUBE_G3_I, Family.CUBE_G3_II}}.get(
            family, {family})
        for order, classes in sweep(family, 29).classes.items():
            for cube, witness in classes.items():
                assert cube.order == order
                assert is_costas_cube(cube)
                assert canonical_cube(cube) == cube
                assert witness.family in witness_families
                assert canonical_cube(REBUILD[witness.family](witness)) == cube
                assert f"q={witness.field.q}" in witness.describe()


def test_sweep_classes_above_order_13_match_the_oracle():
    """The oracle tests of canonical_cube stop at order 13: here every
    sweep class of orders 14-29 is the least oracle image of its
    rebuilt witness."""
    checked = 0
    for family in CUBE_FAMILIES:
        for order, classes in sweep(family, 29).classes.items():
            if order < 14:
                continue
            for cube, witness in classes.items():
                assert canonical_cube_oracle(REBUILD[witness.family](witness)) == cube
                checked += 1
    assert checked > 200


def test_sweep_is_modulus_invariant_at_q16():
    alt = {**DEFAULT_MODULI, 16: (1, 1, 0, 0, 1)}  # 1 + x + x^4, also irreducible
    assert default_field(16, alt) != default_field(16)
    default_set = set(sweep(Family.CUBE_G2X3, 14).classes.get(14, {}))
    alt_set = set(sweep(Family.CUBE_G2X3, 14, moduli=alt).classes.get(14, {}))
    assert default_set == alt_set
    assert len(default_set) == 5


def test_table2_builds_each_field_table_once_per_call(monkeypatch):
    """The three family walks of one table2 call share one field per q, and no
    field outlives the call: each call builds the tables of the 16 prime
    powers 4..32 once."""
    built = []
    tables = FieldSpec.tables

    def counted(self):
        if "_tables" not in vars(self):
            built.append(self.q)
        return tables(self)

    monkeypatch.setattr(FieldSpec, "tables", counted)
    table2(29)
    assert sorted(built) == [q for q in range(4, 33) if prime_power(q)]
    assert len(built) == 16
    table2(29)
    assert len(built) == 32


def test_table2_makes_one_g3_list_and_matrix_per_field(monkeypatch):
    """One table2(29) call lists the G3 parameters of each of the 15 G3
    fields once, and builds one row matrix holding both variants for
    each of the 5 fields that admit a tuple (the two variant sweeps made
    30 lists and 10 matrices)."""
    lists, matrices = [], []
    primitive_logs, field_rows = construct._primitive_logs, construct._field_rows

    def counted_logs(field, *one_minus):
        if one_minus:
            lists.append(field.q)
        return primitive_logs(field, *one_minus)

    def counted_rows(family, field, logs):
        if family not in (Family.CUBE_G2X3, Family.CUBE_W2W2G2):
            matrices.append((family, field.q))
        return field_rows(family, field, logs)

    monkeypatch.setattr(construct, "_primitive_logs", counted_logs)
    monkeypatch.setattr(construct, "_field_rows", counted_rows)
    table2(29)
    assert lists == [q for q in range(5, 33) if prime_power(q)]
    assert len(lists) == 15
    assert matrices == [(Family.CUBE_G3, q) for q in (7, 8, 23, 27, 32)]


@pytest.mark.parametrize("moduli", [DEFAULT_MODULI, OTHER_MODULI], ids=["default", "other"])
def test_table2_columns_are_the_sweep_counts(moduli):
    """Every column of table2 at every order 2-29 is the class count of
    its family's sweep over the same fields; g3 is the size of the union
    of the two variants' class sets, which the pooled sweep finds too."""
    classes = {family: sweep(family, 29, moduli=moduli).classes for family in CUBE_FAMILIES}
    rows = table2(29, moduli=moduli)
    assert [row.order for row in rows] == list(range(2, 30))
    for row in rows:
        found = {family: set(classes[family].get(row.order, {})) for family in CUBE_FAMILIES}
        pooled = found[Family.CUBE_G3_I] | found[Family.CUBE_G3_II]
        assert pooled == found[Family.CUBE_G3]
        assert (row.g2x3, row.w2w2g2, row.g3, row.g3_variant_i, row.g3_variant_ii) == (
            len(found[Family.CUBE_G2X3]), len(found[Family.CUBE_W2W2G2]), len(pooled),
            len(found[Family.CUBE_G3_I]), len(found[Family.CUBE_G3_II])), row.order
        assert row.total_known == CUBE_CLASS_COUNTS.get(row.order)


def test_table2_walks_once_per_class_and_builds_no_objects(monkeypatch):
    """table2(29) forms the 48 images once per class of each walk, 273
    in all, and counts keys: no CostasCube, checked or unchecked, and no
    ConstructionId is built.  A sweep afterwards builds both, so the
    counters see them."""
    images, built = [], []
    row_images, unchecked = symmetry._row_images, symmetry._unchecked

    def counted_images(row):
        images.append(row)
        return row_images(row)

    def counted_unchecked(cls, values):
        built.append(cls.__name__)
        return unchecked(cls, values)

    def counted_init(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        return counted

    monkeypatch.setattr(symmetry, "_row_images", counted_images)
    monkeypatch.setattr(symmetry, "_unchecked", counted_unchecked)
    for cls in (CostasCube, ConstructionId):
        monkeypatch.setattr(cls, "__init__", counted_init(cls))
    rows = table2(29)
    walked = sum(row.g2x3 + row.w2w2g2 + row.g3_variant_i + row.g3_variant_ii for row in rows)
    assert len(images) == walked == 273
    assert built == []
    sweep(Family.CUBE_G3_I, 4)
    assert set(built) == {"CostasCube", "ConstructionId"}


def test_table2_refuses_an_order_above_the_guard_before_any_field(monkeypatch):
    """The guard is checked before table2 makes its fields, with sweep's
    message; 3000000 would otherwise reach a field with no modulus."""
    made = []
    monkeypatch.setattr(construct, "field_new", lambda *a, **k: made.append(a))
    with pytest.raises(ValueError) as swept:
        sweep(Family.CUBE_G2X3, 1000000)
    for max_order in (30, 1000000, 3000000):
        with pytest.raises(ValueError) as refused:
            table2(max_order)
        assert str(refused.value) == f"max_order {max_order} exceeds the guard 29"
    assert str(swept.value) == "max_order 1000000 exceeds the guard 29"
    assert made == []


def test_sweep_canonicalises_once_per_class(monkeypatch):
    """The class walk forms the 48 images once per class found."""
    calls = []
    row_images = symmetry._row_images

    def counted(row):
        calls.append(row)
        return row_images(row)

    monkeypatch.setattr(symmetry, "_row_images", counted)
    report = sweep(Family.CUBE_G2X3, 29)
    assert len(calls) == sum(map(len, report.classes.values())) == 193


def test_sweep_builds_rows_only_for_fields_with_admissible_tuples(monkeypatch):
    """A G3 field where no phi has 1-phi and 1-phi^(-1) primitive too
    makes no row matrix: 5 of the 15 fields to order 29 have one."""
    fields = []
    field_rows = construct._field_rows

    def counted(family, field, logs):
        fields.append(field.q)
        return field_rows(family, field, logs)

    monkeypatch.setattr(construct, "_field_rows", counted)
    for family in (Family.CUBE_G3_I, Family.CUBE_G3):
        fields.clear()
        report = sweep(family, 29)
        assert fields == [7, 8, 23, 27, 32], family
        assert {order + 3 for order in report.classes} == set(fields), family


def test_sweep_classes_lie_in_the_pair_join_classes():
    """Table 2 meets Table 1: each constructed class of order <= 11 is one of
    the classes the exhaustive pair-join finds, and those are all Costas."""
    found = 0
    for family in CUBE_FAMILIES:
        report = sweep(family, 11)
        for order, classes in report.classes.items():
            joined = set(costas_cube_classes(order))
            assert set(classes) <= joined, (family, order)
            assert all(is_costas_cube(cube) for cube in joined)
            found += len(classes)
    assert found > 0
    assert len(costas_cube_classes(11)) == 66
    assert sweep(Family.CUBE_G2X3, 11).count(11) == 4
    assert sweep(Family.CUBE_W2W2G2, 11).count(11) == 3


def test_table2_published_rows():
    rows = {r.order: r for r in table2(15)}
    assert (rows[15].g2x3, rows[15].w2w2g2, rows[15].g3) == (20, 10, 0)
    assert rows[15].total_known == 33
    assert (rows[5].g2x3, rows[5].w2w2g2, rows[5].g3) == (1, 1, 2)
    assert (rows[4].g3_variant_i, rows[4].g3_variant_ii) == (1, 1)


def test_default_field_errors():
    assert default_field(9).q == 9
    with pytest.raises(ValueError, match="prime power"):
        default_field(12)
    with pytest.raises(ValueError, match="no modulus"):
        default_field(2**30)


def test_catalog_labels():
    order11 = catalog(11)
    assert "W2" in order11[least_image_oracle(Permutation(P13_A))]
    order24 = catalog(24)
    assert "G3" in order24[least_image_oracle(Permutation(GF27_D_A))]
    order4 = catalog(4)
    assert any("G3" in labels for labels in order4.values())
    assert catalog(33) == {}  # 34, 35, 36 supply no family


def test_catalog_labels_g2_over_any_modulus_of_an_unconfigured_field():
    """GF(49) has no entry in DEFAULT_MODULI; catalog(47) still labels a G2
    array built over another modulus than the one default_field picks."""
    assert 49 not in DEFAULT_MODULI
    other = field_new(7, 2, (3, 1, 1))  # 3 + x + x^2
    assert other != default_field(49)
    phi = admissible(other)[0]
    values = least_image_oracle(Permutation(g2(other, phi, phi)))
    assert "G2" in catalog(47)[values]


def test_catalog_entries_are_canonical_costas():
    for order in (4, 5, 6):
        for values, labels in catalog(order).items():
            assert costas_violation_oracle(values) == (0, 0)
            assert least_image_oracle(Permutation(values)) == values
            assert labels <= {"W1", "G2", "W2", "G3"}


def catalog_oracle(order):
    """catalog, one constructor call and one least_image_oracle per array."""
    labels = {}

    def add(values, label):
        labels.setdefault(least_image_oracle(Permutation(values)), set()).add(label)

    p = order + 1
    if p > 2 and is_prime(p):
        for phi in admissible(field_new(p, 1)):
            for c in range(p):
                add(w1(p, phi, c), "W1")
    q = order + 2
    if q > 3 and prime_power(q) is not None:
        field = default_field(q)
        prims = admissible(field)
        for phi in prims:
            for rho in prims:
                add(g2(field, phi, rho), "G2")
        if field.m == 1:
            for phi in prims:
                add(w2(q, phi), "W2")
    q = order + 3
    if q > 3 and prime_power(q) is not None:
        field = default_field(q)
        for phi in admissible(field, 1):
            add(g3(field, phi), "G3")
    return labels


def test_catalog_matches_per_array_oracle():
    """Every order a family reaches up to 47, entries in the same order."""
    for n in range(1, 48):
        assert list(catalog(n).items()) == list(catalog_oracle(n).items()), n


def test_out_of_range_elements_rejected():
    for call in (
        lambda: is_primitive(GF13, 13),
        lambda: is_primitive(GF13, -2),
        lambda: g2(GF13, 13, 6),
        lambda: w2(13, 15),
        lambda: cube_g2x3(GF13, 2, 6, 15),
        lambda: g3(GF13, 13),
        lambda: g3(GF13, 30),
        lambda: cube_g3_variant_i(GF13, 13),
        lambda: cube_g3_variant_ii(GF13, -2),
    ):
        with pytest.raises(ValueError):
            call()


def test_constructions_satisfy_defining_equations():
    # Each constructor against its defining equation, checked with the
    # digit-level add, sub and pow oracles, over every admissible tuple of
    # every default field with q <= 32.
    built = 0
    for q in range(3, 33):
        if prime_power(q) is None:
            continue
        f = default_field(q)
        add, sub, pw = (functools.partial(g, f) for g in (field_add, field_sub, field_pow))
        prims = admissible(f)
        if f.m == 1:
            for phi in prims:
                for c in range(q):
                    s = w1(q, phi, c)
                    assert all(s[j - 1] == pw(phi, j + c) for j in range(1, q))
                    built += 1
        if q <= 3:
            continue
        for phi in prims:
            for rho in prims:
                s = g2(f, phi, rho)
                assert all(add(pw(phi, s[j - 1]), pw(rho, j)) == 1 for j in range(1, q - 1))
                built += 1
                for psi in prims[:2]:
                    cube = cube_g2x3(f, phi, rho, psi)
                    for i, j, k in cube.triples():
                        assert add(pw(phi, i), pw(rho, -j)) == 1
                        assert add(pw(phi, -i), pw(psi, k)) == 1
                        assert add(pw(rho, j), pw(psi, -k)) == 1
                    built += 1
        if f.m == 1:
            for phi in prims:
                s = w2(q, phi)
                assert all(s[j - 1] == sub(pw(phi, j), 1) for j in range(1, q - 1))
                built += 1
                for psi in prims:
                    cube = cube_w2w2g2(q, phi, psi)
                    for i, j, k in cube.triples():
                        assert i == sub(pw(phi, j), 1) == sub(0, pw(psi, k))
                    built += 1
        for phi in admissible(f, 1):
            s = g3(f, phi)
            one_minus = sub(1, phi)
            assert all(
                add(pw(phi, s[j - 1] + 1), pw(one_minus, j + 1)) == 1
                for j in range(1, q - 2)
            )
            built += 1
        for phi in admissible(f, 1, -1):
            one_minus, one_minus_inv = sub(1, phi), sub(1, pw(phi, -1))
            for cube, e in (
                (cube_g3_variant_i(f, phi), lambda i: -(i + 1)),
                (cube_g3_variant_ii(f, phi), lambda i: i),
            ):
                for i, j, k in cube.triples():
                    assert add(pw(phi, i + 1), pw(one_minus, j + 1)) == 1
                    assert add(pw(phi, e(i)), pw(one_minus_inv, k + 1)) == 1
                built += 1
    assert built > 6000
