import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costas_cubes.core import (
    CostasCube,
    Permutation,
    costas_violations,
    is_costas_cube,
    projections,
)

from conftest import (
    GF16_A,
    GF16_B,
    GF16_C,
    GF27_D_K,
    GF27_J,
    ORDER6_A,
    ORDER6_B,
    ORDER6_C,
    ORDER6_TRIPLES,
    P13_A,
    P13_B,
    P13_J,
    P13_K,
    admissible,
    costas_arrays,
    costas_violation_oracle,
    cube_from_jk,
    cube_from_pair,
    inverse,
    projection_rows,
    projections_oracle,
)


def max_offphase_autocorrelation(perm: Permutation) -> int:
    """Largest out-of-phase aperiodic autocorrelation of the array form:
    the oracle for costas_violations.

    This is the maximum, over nonzero shifts (u, v), of the number of
    coincidences between the array and its translate; equivalently the
    largest multiplicity among vectors joining ordered pairs of distinct
    1 entries.  0 occurs only at order 1; the permutation is Costas
    exactly when the result is at most 1.
    """
    pts = [(i, j) for j, i in enumerate(perm.values, start=1)]
    counts = Counter(
        (p2[0] - p1[0], p2[1] - p1[1]) for p1 in pts for p2 in pts if p1 != p2
    )
    return max(counts.values(), default=0)


def violation(values) -> tuple[int, int]:
    """costas_violations of one value row: (d, diff), or (0, 0)."""
    return tuple(costas_violations(np.array([values])).tolist()[0])


perms_up_to_8 = st.integers(1, 8).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation(())


def test_cube_rejects_repeated_coordinates():
    with pytest.raises(ValueError, match=r"^j coordinates \[1, 1\] are not a bijection on 1..2$"):
        CostasCube(((1, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"^k coordinates \[1, 1\] are not a bijection on 1..2$"):
        CostasCube(((1, 1), (2, 1)))
    with pytest.raises(ValueError, match="i coordinates"):
        CostasCube.from_triples([(1, 1, 1), (1, 2, 2)])


@pytest.mark.parametrize("rows", [((1, 2), (2, 1, 3)), ((1, 2, 3), (2, 1)),
                                  ((1, 2, 3), (2, 1, 3)), ((1,), (2,))])
def test_cube_rejects_rows_that_are_not_pairs(rows):
    with pytest.raises(ValueError):
        CostasCube(rows)


def test_autocorrelation_examples():
    assert max_offphase_autocorrelation(Permutation((1,))) == 0
    assert max_offphase_autocorrelation(Permutation(ORDER6_A)) == 1
    assert max_offphase_autocorrelation(Permutation((1, 2, 3))) == 2


def test_is_costas_examples():
    assert violation((2, 1)) == (0, 0)
    assert violation((2, 4, 5, 1, 6, 3)) == (0, 0)
    assert violation((1, 2, 3, 4)) != (0, 0)


def test_costas_violation_reports_repeated_vector():
    assert violation((1, 2, 3, 4)) == (1, 1)
    assert violation((2, 4, 5, 1, 6, 3)) == (0, 0)


def test_costas_agrees_with_autocorrelation_exhaustive():
    for n in range(1, 7):
        rows = list(itertools.permutations(range(1, n + 1)))
        found = costas_violations(np.array(rows).reshape(-1, n))[:, 0].tolist()
        assert [d == 0 for d in found] == [max_offphase_autocorrelation(Permutation(v)) <= 1 for v in rows]


@given(perms_up_to_8)
def test_costas_agrees_with_autocorrelation_random(vals):
    d, diff = violation(vals)
    assert (d == 0) == (max_offphase_autocorrelation(Permutation(tuple(vals))) <= 1)
    if d:
        assert sum(vals[j + d] - vals[j] == diff for j in range(len(vals) - d)) >= 2


def test_costas_violations_exhaustive_orders_1_to_7():
    """Every permutation of orders 1-7, as one matrix in its signed and
    in its least unsigned dtype, and one row at a time: the full
    (d, diff) of every row is the scan oracle's."""
    for n in range(1, 8):
        values = np.array(list(itertools.permutations(range(1, n + 1)))).reshape(-1, n)
        want = [costas_violation_oracle(v) for v in values.tolist()]
        assert list(map(tuple, costas_violations(values).tolist())) == want
        assert list(map(tuple, costas_violations(values.astype(np.uint8)).tolist())) == want
        assert [violation(v) for v in values.tolist()] == want


def test_costas_violations_random_order_29_rows():
    """Lempel-Golomb arrays of order 29 and their planar images, with a
    few near misses (two values swapped) or random permutations at random
    places: the full (d, diff) of every row is the scan oracle's."""
    from costas_cubes.construct import g2
    from costas_cubes.gf import field_new
    from costas_cubes.symmetry import planar_images

    field = field_new(31, 1)
    phis = admissible(field)
    rng = random.Random(29)
    arrays = [g2(field, rng.choice(phis), rng.choice(phis)) for _ in range(8)]
    good = planar_images(np.array(arrays, dtype=np.uint8)).reshape(-1, 29).astype(np.int64)
    assert not costas_violations(good).any()
    for trial in range(40):
        rows = good[rng.sample(range(len(good)), 20)].copy()
        for at in rng.sample(range(len(rows)), rng.randint(1, 4)):
            if trial % 2:
                i, j = rng.sample(range(29), 2)
                rows[at, [i, j]] = rows[at, [j, i]]
            else:
                rows[at] = rng.sample(range(1, 30), 29)
        assert list(map(tuple, costas_violations(rows).tolist())) == [
            costas_violation_oracle(v) for v in rows.tolist()]


def test_projections_order6(order6_cube):
    a, b, c = projection_rows(order6_cube)
    assert a == ORDER6_A
    assert b == ORDER6_B
    assert c == ORDER6_C


def test_projections_order1():
    a, b, c = projection_rows(CostasCube(((1, 1),)))
    assert a == b == c == (1,)


def test_projections_gf16_cube():
    a, b, c = projection_rows(cube_from_jk((3, 6, 1, 12, 10, 2, 7, 9, 8, 5, 11, 4, 13, 14),
                                           (7, 14, 2, 13, 10, 4, 12, 11, 1, 5, 6, 8, 3, 9)))
    assert a == GF16_A
    assert b == GF16_B
    assert c == GF16_C


@given(st.integers(1, 300).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))))
def test_projections_match_the_row_loop_oracle(jk):
    """Random permutation cubes of orders 1-300, whose projections take
    the uint8 dtype up to order 255 and uint16 above it."""
    cube = CostasCube(tuple(zip(*jk)))
    values = projections(cube)
    assert values.shape == (3, cube.order)
    assert values.dtype == np.min_scalar_type(cube.order)
    assert projection_rows(cube) == projections_oracle(cube)


# Any two projections determine a permutation cube: the tests below rebuild
# cubes from their pairs with the cube_from_pair oracle and check the
# projections the package computes.


def test_cube_from_projections_order6(order6_cube):
    built = cube_from_pair("AB", Permutation(ORDER6_A), Permutation(ORDER6_B))
    assert built == order6_cube
    assert projection_rows(built)[2] == ORDER6_C


def test_cube_from_projections_identity_diagonal():
    ident = Permutation((1, 2, 3, 4, 5))
    cube = cube_from_pair("AB", ident, ident)
    assert cube.rows == tuple((i, i) for i in range(1, 6))
    assert projection_rows(cube)[2] == ident.values


def test_cube_from_projections_order11():
    built = cube_from_pair("AB", Permutation(P13_A), Permutation(P13_B))
    assert built == cube_from_jk(P13_J, P13_K)


def test_cube_from_pair_matches_named_slots(order6_cube):
    a, b, c = ORDER6_A, ORDER6_B, ORDER6_C
    assert cube_from_pair("AB", Permutation(a), Permutation(b)) == order6_cube
    assert cube_from_pair("AC", Permutation(a), Permutation(c)) == order6_cube
    assert cube_from_pair("BC", Permutation(b), Permutation(c)) == order6_cube


def test_cube_from_pair_diagonal_and_errors():
    ident = Permutation((1, 2, 3))
    diag = cube_from_pair("BC", ident, ident)
    assert diag.rows == ((1, 1), (2, 2), (3, 3))
    assert not is_costas_cube(diag)


def test_reconstruction_from_any_pair_small_orders():
    for n in (1, 2, 3, 4):
        for a_vals in itertools.permutations(range(1, n + 1)):
            for b_vals in itertools.permutations(range(1, n + 1)):
                cube = cube_from_pair("AB", Permutation(a_vals), Permutation(b_vals))
                a, b, c = map(Permutation, projection_rows(cube))
                assert (a.values, b.values) == (a_vals, b_vals)
                assert cube_from_pair("AC", a, c) == cube
                assert cube_from_pair("BC", b, c) == cube


def test_is_costas_cube_examples(order6_cube):
    assert is_costas_cube(order6_cube)
    diag4 = CostasCube(tuple((i, i) for i in range(1, 5)))
    assert not is_costas_cube(diag4)
    assert is_costas_cube(cube_from_jk(GF27_J, GF27_D_K))


def _dense_projection_c(cube):
    """Sum the dense 0/1 cube over i; independent of the sparse path."""
    n = cube.order
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in cube.triples():
        dense[i - 1][j - 1][k - 1] = 1
    c = [[sum(dense[i][j][k] for i in range(n)) for k in range(n)] for j in range(n)]
    values = [0] * n
    for j in range(n):
        for k in range(n):
            if c[j][k]:
                values[k] = j + 1
    return tuple(values)


def test_projection_c_is_composition_dense_oracle():
    for n in range(1, 6):
        for a_vals in itertools.permutations(range(1, n + 1)):
            for b_vals in itertools.permutations(range(1, n + 1)):
                a, b = Permutation(a_vals), Permutation(b_vals)
                cube = cube_from_pair("AB", a, b)
                composed = tuple(inverse(a).values[b.values[k - 1] - 1] for k in range(1, n + 1))
                assert projection_rows(cube)[2] == composed
                if n <= 4:
                    assert _dense_projection_c(cube) == composed


@given(st.permutations(tuple(range(1, 6))), st.permutations(tuple(range(1, 6))))
def test_projection_c_dense_oracle_order5(a_vals, b_vals):
    cube = cube_from_pair("AB", Permutation(tuple(a_vals)), Permutation(tuple(b_vals)))
    assert _dense_projection_c(cube) == projection_rows(cube)[2]


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.permutations(tuple(range(1, n + 1))),
                        st.permutations(tuple(range(1, n + 1))))))
def test_any_projection_pair_round_trips(pair):
    a, b = (Permutation(tuple(v)) for v in pair)
    cube = cube_from_pair("AB", a, b)
    pa, pb, pc = map(Permutation, projection_rows(cube))
    assert (pa, pb) == (a, b)
    assert cube_from_pair("AC", pa, pc) == cube
    assert cube_from_pair("BC", pb, pc) == cube


def test_costas_arrays_fixture_counts():
    assert len(costas_arrays(5)) == 40
    assert not costas_violations(np.array([p.values for p in costas_arrays(5)])).any()
