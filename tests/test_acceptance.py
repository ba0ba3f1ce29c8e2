"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The stretch tier
(orders 11-13) is marked and excluded by default; run it with
`pytest -m stretch`.
"""

import itertools
import time
from collections import Counter

import numpy as np
import pytest

from costas_cubes.cli import main as cli_main
from costas_cubes.construct import (
    DEFAULT_MODULI,
    cube_g2x3,
    cube_g3_variant_i,
    cube_g3_variant_ii,
    cube_w2w2g2,
    g2,
    g3,
    k_reversal,
    table2,
    w1,
    w2,
)
from costas_cubes.core import (
    CostasCube,
    Permutation,
    costas_violations,
    is_costas_cube,
)
from costas_cubes.enumeration import (
    EnumerationLimitError,
    enumerate_costas_arrays,
    class_report,
    costas_values,
    table1,
)
from costas_cubes.files import emit_array_file, parse_array_file
from costas_cubes.reference import TABLE1, TABLE2
from costas_cubes.gf import (
    field_new,
    is_prime,
    prime_power,
)
from costas_cubes.symmetry import (
    CUBE_SYMMETRIES,
    PLANAR_SYMMETRIES,
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
    ORDER6_A,
    ORDER6_B,
    ORDER6_C,
    ORDER6_TRIPLES,
    P13_A,
    P13_B,
    P13_C,
    P13_J,
    P13_K,
    SMALL_SD_MEMBERS,
    SMALL_SD_TRIPLES,
    admissible,
    costas_arrays,
    costas_cube_classes,
    costas_violation_oracle,
    cube_from_jk,
    cube_from_pair,
    cube_orbit_oracle,
    field_add,
    field_inverses,
    field_sub,
    image,
    instantiated_fields,
    projection_rows,
    value_matrix,
)


def test_criterion_1_table1_orders_2_to_10():
    start = time.perf_counter()
    reports = table1(10)
    elapsed = time.perf_counter() - start
    for r in reports:
        got = (r.cube_classes, r.projection_array_classes, r.total_array_classes)
        assert got == TABLE1[r.order], f"order {r.order}: {got} != {TABLE1[r.order]}"
    assert elapsed < 120, f"orders 2-10 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS table 1 orders 2-10 exact ({elapsed:.1f}s)")


def test_criterion_1_table1_orders_11_and_12():
    start = time.perf_counter()
    for n in (11, 12):
        r = class_report(n, value_matrix(costas_arrays(n)))
        got = (r.cube_classes, r.projection_array_classes, r.total_array_classes)
        assert got == TABLE1[n], f"order {n}: {got} != {TABLE1[n]}"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 1: PASS table 1 orders 11-12 exact ({elapsed:.1f}s)")


@pytest.mark.stretch
def test_criterion_1_stretch_orders_11_and_12():
    start = time.perf_counter()
    for n in (11, 12):
        r = class_report(n, costas_values(n))
        got = (r.cube_classes, r.projection_array_classes, r.total_array_classes)
        assert got == TABLE1[n], f"order {n}: {got} != {TABLE1[n]}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"orders 11-12 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (stretch): PASS table 1 orders 11-12 exact ({elapsed:.1f}s)")


def test_criterion_2_table2_all_orders():
    start = time.perf_counter()
    rows = table2(29)
    elapsed = time.perf_counter() - start
    for r in rows:
        expected = TABLE2.get(r.order, (0, 0, 0))
        got = (r.g2x3, r.w2w2g2, r.g3)
        assert got == expected, f"order {r.order}: {got} != {expected}"
    assert {r.order for r in rows} == set(range(2, 30))
    assert elapsed < 60, f"table 2 sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2: PASS table 2 orders 2-29 exact ({elapsed:.1f}s)")


def test_criterion_3_worked_example_fixtures():
    # order-6 cube and its projections
    cube6 = CostasCube.from_triples(ORDER6_TRIPLES)
    assert projection_rows(cube6) == (ORDER6_A, ORDER6_B, ORDER6_C)

    # the |S(D)| = 4 cube and its four permutations
    sd_cube = CostasCube.from_triples(SMALL_SD_TRIPLES)
    assert cube_g2x3(field_new(2, 3, (1, 0, 1, 1)), 7, 7, 7) == sd_cube
    assert list(map(tuple, projection_set(sd_cube).tolist())) == sorted(SMALL_SD_MEMBERS)

    # GF(16) order-14 triple table and projections
    gf16 = field_new(2, 4, (1, 0, 0, 1, 1))
    cube14 = cube_g2x3(gf16, 2, 13, 14)
    assert cube14 == cube_from_jk(GF16_J, GF16_K)
    assert projection_rows(cube14) == (GF16_A, GF16_B, GF16_C)

    # p = 13 order-11 triple table and projections
    cube11 = cube_w2w2g2(13, 11, 6)
    assert cube11 == cube_from_jk(P13_J, P13_K)
    assert projection_rows(cube11) == (P13_A, P13_B, P13_C)

    # GF(27) order-24 cubes D and E with their projections
    gf27 = field_new(3, 3, (1, 0, 2, 1))
    d = cube_g3_variant_i(gf27, 8)
    e = cube_g3_variant_ii(gf27, 8)
    assert d == cube_from_jk(GF27_J, GF27_D_K)
    assert e == cube_from_jk(GF27_J, GF27_E_K)
    assert projection_rows(d) == (GF27_D_A, GF27_D_B, GF27_D_C)
    assert projection_rows(e) == (GF27_E_A, GF27_E_B, GF27_E_C)
    print("\nACCEPTANCE 3: PASS worked-example fixtures byte-exact")


def test_criterion_4a_field_identities_exhaustive():
    checked = 0
    for f in instantiated_fields():
        assert f.q <= 1 << 14
        inverse = field_inverses(f, admissible(f)[0])
        assert sorted(inverse) == list(range(1, f.q))
        for y in range(2, f.q):
            one_minus = field_sub(f, 1, y), field_sub(f, 1, inverse[y])
            assert field_add(f, *(inverse[x] for x in one_minus)) == 1
        checked += 1
    print(f"\nACCEPTANCE 4a: PASS reciprocal and power-coverage identities in {checked} fields")


def test_criterion_4b_costas_invariance_under_symmetries():
    for n in range(1, 8):
        for p in costas_arrays(n):
            for s in PLANAR_SYMMETRIES:
                assert costas_violation_oracle(image(s, p).values) == (0, 0)
        for cube in costas_cube_classes(n):
            for s in CUBE_SYMMETRIES:
                assert is_costas_cube(image(s, cube))
    print("\nACCEPTANCE 4b: PASS symmetry invariance of the Costas property, orders <= 7")


def test_criterion_4c_reconstruction_from_any_projection_pair():
    for n in range(1, 8):
        for rep in costas_cube_classes(n):
            for cube in cube_orbit_oracle(rep):
                a, b, c = map(Permutation, projection_rows(cube))
                assert cube_from_pair("AB", a, b) == cube
                assert cube_from_pair("AC", a, c) == cube
                assert cube_from_pair("BC", b, c) == cube
    print("\nACCEPTANCE 4c: PASS two-projection reconstruction, orders <= 7")


def _all_construction_outputs(max_order=29):
    for p in range(3, max_order + 2):
        if is_prime(p) and 2 <= p - 1 <= max_order:
            for phi in admissible(field_new(p, 1)):
                for c in range(p):
                    yield w1(p, phi, c)
    for q in range(5, max_order + 3):
        if prime_power(q) is None:
            continue
        pm = prime_power(q)
        field = field_new(pm[0], pm[1], DEFAULT_MODULI.get(q))
        prims = admissible(field)
        if 2 <= q - 2 <= max_order:
            for phi in prims:
                for rho in prims:
                    yield g2(field, phi, rho)
                for psi in prims:
                    yield cube_g2x3(field, phi, prims[0], psi)
            if field.m == 1 and q > 3:
                for phi in prims:
                    yield w2(q, phi)
                    for psi in prims:
                        yield cube_w2w2g2(q, phi, psi)
        if 2 <= q - 3 <= max_order:
            for phi in admissible(field, 1, -1):
                yield g3(field, phi)
                yield cube_g3_variant_i(field, phi)
                yield cube_g3_variant_ii(field, phi)


def test_criterion_4d_all_construction_outputs_verify():
    arrays = cubes = 0
    for obj in _all_construction_outputs():
        if isinstance(obj, CostasCube):
            assert is_costas_cube(obj), obj
            cubes += 1
        else:
            assert not costas_violations(np.array([obj])).any(), obj
            arrays += 1
    print(f"\nACCEPTANCE 4d: PASS generic verifier on {arrays} arrays and {cubes} cubes <= order 29")


# |S(D)| -> number of cube classes with that projection-set size.
SD_SIZE_HISTOGRAMS = {
    3: {4: 1},
    4: {8: 2},
    5: {4: 1, 8: 2, 12: 4, 16: 1, 20: 1, 24: 4},
    6: {4: 1, 8: 5, 12: 6, 16: 4, 20: 11, 24: 20},
    7: {4: 2, 8: 6, 12: 7, 16: 1, 20: 7, 24: 7},
    8: {4: 1, 8: 6, 12: 2, 16: 1, 20: 9, 24: 23},
    9: {4: 3, 8: 2, 12: 11, 20: 6, 24: 24},
    10: {8: 4, 12: 1, 20: 6, 24: 58},
}


def test_criterion_4e_projection_set_sizes():
    for n, want in SD_SIZE_HISTOGRAMS.items():
        assert Counter(len(projection_set(cube)) for cube in costas_cube_classes(n)) == want, n
    print("\nACCEPTANCE 4e: PASS projection-set size histograms, orders 3-10 (order 6 realizes all six values)")


def test_criterion_4f_backtracking_equals_brute_force():
    for n in range(1, 7):
        brute = [
            vals
            for vals in itertools.permutations(range(1, n + 1))
            if costas_violation_oracle(vals) == (0, 0)
        ]
        assert [p.values for p in enumerate_costas_arrays(n)] == brute
    print("\nACCEPTANCE 4f: PASS backtracking matches the n!-filter, orders <= 6")


def test_criterion_5_k_reversal_exchanges_g3_variants():
    pairs = 0
    for q in range(5, 33):
        pm = prime_power(q)
        if pm is None:
            continue
        field = field_new(pm[0], pm[1], DEFAULT_MODULI.get(q))
        for phi in admissible(field, 1, -1):
            d = cube_g3_variant_i(field, phi)
            e, e_is_costas = k_reversal(d)
            assert e == cube_g3_variant_ii(field, phi)
            assert e_is_costas
            assert k_reversal(e)[0] == d
            pairs += 1
    assert pairs > 0
    print(f"\nACCEPTANCE 5: PASS k-reversal maps variant (i) to (ii) for {pairs} admissible pairs, q <= 32")


def test_criterion_6_ingestion_path(tmp_path, capsys):
    with pytest.raises(EnumerationLimitError, match="database"):
        enumerate_costas_arrays(14)

    # CLI round trip: import a database, then reproduce the row from it
    db = tmp_path / "order9.txt"
    db.write_text(emit_array_file(p.values for p in costas_arrays(9)))
    assert cli_main(["import", str(db), "--expect-order", "9"]) == 0
    normalized = tmp_path / "order9.txt.normalized"
    arrays = parse_array_file(normalized.read_text())
    assert len(arrays) == len(costas_arrays(9))
    r = class_report(9, arrays)
    assert (r.cube_classes, r.projection_array_classes, r.total_array_classes) == TABLE1[9]
    capsys.readouterr()
    print("\nACCEPTANCE 6: PASS limit guard and database ingestion reproduce the order-9 row")


@pytest.mark.stretch
def test_criterion_6_stretch_order_13_database():
    start = time.perf_counter()
    arrays = costas_values(13)
    assert len(arrays) == 12828
    r = class_report(13, arrays)
    assert (r.cube_classes, r.projection_array_classes, r.total_array_classes) == TABLE1[13]
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 6 (stretch): PASS order-13 database pair-join exact ({elapsed:.1f}s)")
