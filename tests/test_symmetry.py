import functools
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from costas_cubes.construct import Family
from costas_cubes.core import (
    CostasCube,
    Permutation,
    is_costas_cube,
    projections,
)
from costas_cubes.symmetry import (
    CUBE_SYMMETRIES,
    PLANAR_SYMMETRIES,
    AxisSymmetry,
    canonical_cube,
    first_of_each_class,
    least_image,
    planar_images,
    projection_set,
)
from costas_cubes import symmetry

from test_construct import sweep_tuples_oracle
from conftest import (
    CUBE_ROTATIONS,
    ORDER6_A,
    ROTATION_180,
    SMALL_SD_MEMBERS,
    VERTICAL_REFLECTION,
    apply_symmetry,
    array_class_size_oracle,
    canonical_cube_oracle,
    costas_arrays,
    costas_cube_classes,
    costas_violation_oracle,
    cube_orbit_oracle,
    image,
    inverse,
    is_rotation,
    least_image_oracle,
    projection_rows,
    projections_oracle,
    value_matrix,
)

perms_up_to_7 = st.integers(1, 7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
)
cubes_up_to_9 = st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))
).map(lambda jk: CostasCube(tuple(zip(*jk))))


def _random_cube(n, rng):
    return CostasCube(tuple(zip(rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n))))


def _flat_rows(cubes, dtype):
    return np.array([[v for row in cube.rows for v in row] for cube in cubes], dtype=dtype)


# Oracles: the symmetry functions as loops over one image at a time.


def _projection_set_oracle(cube):
    return {projections_oracle(image(s, cube))[0] for s in CUBE_SYMMETRIES}


def _images(cube):
    """symmetry._row_images of cube's row list, in the least unsigned
    dtype that holds its order."""
    flat = np.array(cube.rows, dtype=np.min_scalar_type(cube.order)).reshape(2 * cube.order)
    return symmetry._row_images(flat)


def _cube_orbit(cube):
    """The distinct rows of _images, as cubes sorted by rows."""
    rows = sorted(set(map(tuple, _images(cube).tolist())))
    return [CostasCube(tuple(zip(v[0::2], v[1::2]))) for v in rows]


def _canonical_array(perm):
    """The canonical array of perm, the least_image of its planar_images,
    as a value tuple."""
    return tuple(least_image(planar_images(value_matrix([perm])))[0].tolist())


def _array_class_size(perm):
    """The number of distinct planar_images of perm."""
    return len(set(map(tuple, planar_images(value_matrix([perm]))[:, 0].tolist())))


@functools.cache
def _by_action(dim):
    """The square (dim 2) or cube (dim 3) symmetries, keyed by their images
    of every coordinate tuple of an order-3 object."""
    points = list(itertools.product(range(1, 4), repeat=dim))
    group = PLANAR_SYMMETRIES if dim == 2 else CUBE_SYMMETRIES
    return points, {tuple(apply_symmetry(h, x, 3) for x in points): h for h in group}


def _composition(f, g):
    """The symmetry h with apply(h, x) == apply(f, apply(g, x)) at every
    coordinate tuple x, or None if the group lacks it."""
    points, by_action = _by_action(len(f.axes))
    return by_action.get(tuple(apply_symmetry(f, apply_symmetry(g, x, 3), 3) for x in points))


def _square_images_of_projections(cube):
    """The rows of the planar_images of the projections A, B and C."""
    return set(map(tuple, planar_images(projections(cube)).reshape(-1, cube.order).tolist()))


def _rows(values):
    """The rows of a value matrix as a list of value tuples."""
    return list(map(tuple, values.tolist()))


def test_group_sizes():
    assert len(set(PLANAR_SYMMETRIES)) == 8
    assert len(set(CUBE_SYMMETRIES)) == 48
    assert len(set(CUBE_ROTATIONS)) == 24
    assert is_rotation(CUBE_SYMMETRIES[0]) and CUBE_SYMMETRIES[0].axes == (0, 1, 2)


def test_cube_group_laws():
    """The listed symmetries act as a group on coordinates: every
    composition of two is one of them, and the identity is among them."""
    for group in (PLANAR_SYMMETRIES, CUBE_SYMMETRIES):
        ident = group[0]
        assert not any(ident.flips) and ident.axes == tuple(range(len(ident.axes)))
        for f in group:
            assert _composition(f, ident) == f
            for g in group:
                assert _composition(f, g) is not None


def test_rotation_subgroup_closed():
    rotations = set(CUBE_ROTATIONS)
    for f in CUBE_ROTATIONS:
        for g in CUBE_ROTATIONS:
            assert _composition(f, g) in rotations


def test_apply_planar_examples():
    """The square images of planar_images and of the image oracle."""
    p = Permutation(ORDER6_A)
    assert image(PLANAR_SYMMETRIES[0], p) == p
    assert image(VERTICAL_REFLECTION, Permutation((2, 1))).values == (1, 2)
    small = Permutation((2, 4, 5, 1, 6, 3))
    assert {image(s, small).values for s in PLANAR_SYMMETRIES} == SMALL_SD_MEMBERS
    assert set(map(tuple, planar_images(value_matrix([small]))[:, 0].tolist())) == SMALL_SD_MEMBERS
    transpose = AxisSymmetry((1, 0), (False, False))
    assert image(transpose, p) == inverse(p)


def test_vertical_reflection_complements_values():
    p = Permutation((10, 3, 4, 2, 6, 11, 1, 8, 7, 9, 5))
    want = tuple(12 - v for v in p.values)
    assert image(VERTICAL_REFLECTION, p).values == want
    s = PLANAR_SYMMETRIES.index(VERTICAL_REFLECTION)
    assert tuple(planar_images(value_matrix([p]))[s, 0].tolist()) == want


def test_rotation_180_reverses_and_complements():
    p = Permutation((2, 4, 5, 1, 6, 3))
    want = tuple(7 - v for v in reversed(p.values))
    assert image(ROTATION_180, p).values == want
    s = PLANAR_SYMMETRIES.index(ROTATION_180)
    assert tuple(planar_images(value_matrix([p]))[s, 0].tolist()) == want


def _dense_apply_cube(sym, cube):
    """Transform the dense 0/1 cube coordinate by coordinate, re-project."""
    n = cube.order
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for t in cube.triples():
        i, j, k = apply_symmetry(sym, t, n)
        dense[i - 1][j - 1][k - 1] = 1
    rows = [None] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dense[i][j][k]:
                    rows[i] = (j + 1, k + 1)
    return CostasCube(tuple(rows))


def test_apply_cube_examples(order6_cube):
    ident = AxisSymmetry((0, 1, 2), (False, False, False))
    assert image(ident, order6_cube) == order6_cube

    swap_ij = AxisSymmetry((1, 0, 2), (False, False, False))
    swapped = image(swap_ij, order6_cube)
    assert projection_rows(swapped)[0] == inverse(Permutation(projection_rows(order6_cube)[0])).values
    assert swapped == _dense_apply_cube(swap_ij, order6_cube)

    flip_k = AxisSymmetry((0, 1, 2), (False, False, True))
    one = CostasCube(((1, 1),))
    assert image(flip_k, one) == one


def test_apply_cube_matches_dense_oracle(order6_cube, small_sd_cube):
    for cube in (order6_cube, small_sd_cube):
        for s in CUBE_SYMMETRIES:
            assert image(s, cube) == _dense_apply_cube(s, cube)


@given(perms_up_to_7)
def test_canonical_array_orbit_constant_and_idempotent(vals):
    p = Permutation(tuple(vals))
    rep = _canonical_array(p)
    assert _canonical_array(Permutation(rep)) == rep
    for s in PLANAR_SYMMETRIES:
        assert _canonical_array(image(s, p)) == rep
    assert rep == least_image_oracle(p)
    assert _array_class_size(p) == array_class_size_oracle(p)


@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6)))
def test_planar_images_match_apply_planar(rows):
    perms = [Permutation(tuple(v)) for v in rows]
    images = planar_images(value_matrix(perms))
    assert images.shape == (8, len(perms), perms[0].order)
    for s, sym in enumerate(PLANAR_SYMMETRIES):
        assert [tuple(v) for v in images[s].tolist()] == [image(sym, p).values for p in perms]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_least_image_matches_min_over_image_tuples(dtype):
    """least_image against a Python min over the 8 oracle image tuples, and
    its index against the first symmetry that gives that min: on arrays of
    a 4-member class, whose least image occurs twice, on arrays of an
    8-member class, on an empty batch and at order 300."""
    batches = [
        [p for p in costas_arrays(n) if array_class_size_oracle(p) == 4] for n in (5, 6, 7, 8)
    ] + [list(costas_arrays(6)[:40])]
    assert all(batches)
    if np.iinfo(dtype).max >= 300:
        batches.append([Permutation(tuple(random.Random(300).sample(range(1, 301), 300)))])
    for perms in batches:
        images = planar_images(value_matrix(perms).astype(dtype))
        tuples = [[image(s, p).values for s in PLANAR_SYMMETRIES] for p in perms]
        least = least_image(images)
        assert least.dtype == dtype
        assert [tuple(v) for v in least.tolist()] == [min(t) for t in tuples]
        assert symmetry._least(images).tolist() == [t.index(min(t)) for t in tuples]
    empty = least_image(np.empty((8, 0, 5), dtype=dtype))
    assert empty.shape == (0, 5) and empty.dtype == dtype


@example((300, [list(range(300, 0, -1)), list(range(1, 301))]))
@example((256, [list(range(256, 0, -1))]))
@given(st.integers(1, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(1, n + 1)), max_size=4))))
def test_inverse_rows_match_argsort(case):
    """inverse_rows, one scatter, against np.argsort(v, axis=1) + 1 on
    permutation rows of orders 1-300: uint8 rows to order 255, uint16
    rows above."""
    n, rows = case
    values = np.array(rows, dtype=np.min_scalar_type(n)).reshape(len(rows), n)
    inverse = symmetry.inverse_rows(values)
    assert inverse.dtype == values.dtype
    assert inverse.tolist() == (np.argsort(values, axis=1) + 1).tolist()


@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.integers(1, n), min_size=n, max_size=n), max_size=6)))
def test_inverse_rows_leave_a_zero_in_exactly_the_non_permutations(rows):
    """Rows whose values all lie in 1..n write only their own slots: the
    inverse of a permutation is its argsort inverse, and any other row
    leaves a slot 0."""
    n = len(rows[0]) if rows else 1
    values = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    inverse = symmetry.inverse_rows(values)
    for row, inv in zip(rows, inverse.tolist()):
        if sorted(row) == list(range(1, n + 1)):
            assert inv == (np.argsort(row) + 1).tolist()
        else:
            assert 0 in inv


def _least_oracle(images):
    """_least reading every column: an image stays live while each column
    so far holds the least value of any live image of its position; the
    first live image after the last column."""
    live = np.ones(images.shape[:-1], dtype=bool)
    top = np.iinfo(images.dtype).max
    for column in np.moveaxis(images, -1, 0):
        live &= column == column.min(axis=0, initial=top, where=live)
    return live.argmax(axis=0)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_least_matches_the_every_column_oracle(dtype):
    """_least, which stops reading a position once one image is left,
    against the loop over every column: on the arrays with a nontrivial
    stabiliser at orders 2 and 5-8, whose least images tie to the last
    column; on all order-9 arrays; on random rows over 1..3, which tie
    often, with more axes between; for N = 0, N = 1 and n = 1; and at
    order 300."""
    symmetric = [[p for p in costas_arrays(n) if array_class_size_oracle(p) < 8] for n in (2, 5, 6, 7, 8)]
    assert all(symmetric)
    batches = [planar_images(value_matrix(perms)) for perms in symmetric]
    batches.append(planar_images(value_matrix(costas_arrays(9))))
    rng = np.random.default_rng(3)
    batches += [rng.integers(1, 4, (8, 300, k)) for k in (1, 2, 6)]
    batches.append(rng.integers(1, 4, (8, 5, 7, 4)))
    batches += [np.empty((8, 0, 5), dtype=int), planar_images(value_matrix(costas_arrays(6)[:1])),
                planar_images(np.ones((3, 1), dtype=int))]
    if np.iinfo(dtype).max >= 300:
        batches.append(planar_images(np.array([random.Random(300).sample(range(1, 301), 300)])))
    for images in batches:
        images = images.astype(dtype)
        want = _least_oracle(images)
        assert symmetry._least(images).tolist() == want.tolist()
    # The symmetric arrays' least images occur twice: ties reach the last
    # column and resolve to the first.
    images = batches[1].astype(dtype)
    assert (images == least_image(images)).all(axis=2).sum(axis=0).min() == 2


def test_row_images_follow_cube_symmetries():
    """Image s of _row_images is the oracle image under CUBE_SYMMETRIES[s],
    flattened, in the row's dtype, both native and big-endian: at every
    order 1-9, at 255 and 256 (the last order of uint8 and the first of
    uint16, where n + 1 and n leave the dtype's range) and at 300.  Each
    order takes two or more cubes in turn, so a kernel whose per-order
    state kept one cube's coordinates would fail on the next."""
    rng = random.Random(9)
    cubes = [_random_cube(n, rng) for n in range(1, 10) for _ in range(5)]
    cubes += [_random_cube(n, rng) for n in (255, 256) for _ in range(2)]
    cubes.append(_random_cube(300, random.Random(300)))
    for cube in cubes:
        expected = [[v for row in image(s, cube).rows for v in row] for s in CUBE_SYMMETRIES]
        native = np.dtype(np.min_scalar_type(cube.order))
        for dtype in (native, native.newbyteorder(">")):
            images = symmetry._row_images(np.array(cube.rows, dtype=dtype).reshape(-1))
            assert images.dtype == dtype
            assert images.shape == (48, 2 * cube.order)
            assert images.tolist() == expected


@given(cubes_up_to_9)
def test_canonical_cube_orbit_constant_property(cube):
    rep = canonical_cube(cube)
    assert rep == canonical_cube_oracle(cube)
    for s in CUBE_SYMMETRIES:
        assert canonical_cube(image(s, cube)) == rep


@given(cubes_up_to_9)
def test_orbit_projections_are_square_images_of_projections_property(cube):
    """The cube symmetries permute the three projection planes and act on
    each by the square symmetries, for any permutation cube."""
    assert _square_images_of_projections(cube) == _projection_set_oracle(cube)


def test_canonical_array_examples():
    assert _canonical_array(Permutation((2, 1))) == (1, 2)
    order5_classes = set(map(tuple, least_image(planar_images(value_matrix(costas_arrays(5)))).tolist()))
    assert order5_classes == {least_image_oracle(p) for p in costas_arrays(5)}
    assert len(order5_classes) == 6


def test_array_class_size_examples():
    for size in (_array_class_size, array_class_size_oracle):
        assert size(Permutation((2, 4, 5, 1, 6, 3))) == 4
        assert size(Permutation(ORDER6_A)) == 8
        assert size(Permutation((1, 3, 2))) in (4, 8)
        assert size(Permutation((2, 1))) == 2  # degenerate order


def test_class_size_4_iff_diagonal_symmetry():
    diagonal_reflections = [
        AxisSymmetry((1, 0), (False, False)),
        AxisSymmetry((1, 0), (True, True)),
    ]
    for n in (5, 6, 7):
        for p in costas_arrays(n):
            fixed = any(image(s, p) == p for s in diagonal_reflections)
            assert array_class_size_oracle(p) == _array_class_size(p) == (4 if fixed else 8)


def test_canonical_cube_orbit_constant(order6_cube):
    rep = canonical_cube(order6_cube)
    assert canonical_cube(rep) == rep
    for s in CUBE_SYMMETRIES:
        assert canonical_cube(image(s, order6_cube)) == rep
    one = CostasCube(((1, 1),))
    assert canonical_cube(one) == one


def test_cube_orbit_properties(order6_cube):
    orbit = _cube_orbit(order6_cube)
    assert orbit == cube_orbit_oracle(order6_cube)
    assert 48 % len(orbit) == 0
    assert _cube_orbit(CostasCube(((1, 1),))) == [CostasCube(((1, 1),))]
    assert _cube_orbit(image(CUBE_SYMMETRIES[17], order6_cube)) == orbit


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
def test_first_of_each_class_skips_known_orbits(dtype):
    """Two images of one class around one cube of another: the walk
    yields the first row of each class, with its canonical form."""
    x, y = costas_cube_classes(5)[:2]
    cubes = [image(CUBE_SYMMETRIES[5], x), y, image(CUBE_SYMMETRIES[17], x)]
    assert cubes[0] != cubes[2]
    rows = _flat_rows(cubes, dtype)
    assert list(first_of_each_class(rows)) == [(0, x), (1, y)]
    assert list(first_of_each_class(np.empty((0, 10), dtype=dtype))) == []


@pytest.mark.parametrize("dtype", [np.int16, np.uint16])
def test_first_of_each_class_above_order_255(dtype):
    """Coordinates above 255 neither wrap nor collide in the byte keys:
    the middle cube is the last one with the values 1 and 257 swapped in
    both coordinates, so it equals that image of x modulo 256, yet lies in
    another class.  The least image of x (seed 0) is decided by a
    coordinate above 255, so a little-endian byte compare misorders it."""
    x = _random_cube(300, random.Random(0))
    last = image(CUBE_SYMMETRIES[17], x)
    swap = {1: 257, 257: 1}
    y = CostasCube(tuple((swap.get(j, j), swap.get(k, k)) for j, k in last.rows))
    x_form, y_form = canonical_cube_oracle(x), canonical_cube_oracle(y)
    assert x_form != y_form
    cubes = [image(CUBE_SYMMETRIES[5], x), y, last]
    assert list(first_of_each_class(_flat_rows(cubes, dtype))) == [(0, x_form), (1, y_form)]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16])
def test_first_of_each_class_refuses_the_first_bad_form(dtype):
    """Row lists that are no permutation cubes, after a valid class: the
    walk refuses the first that is no permutation cube, in walk order,
    with CostasCube's message for that row as given."""
    x = costas_cube_classes(5)[0]
    j_repeated = (1, 1, 1, 2, 3, 3, 4, 4, 5, 5)
    k_repeated = (1, 2, 2, 2, 3, 3, 4, 4, 5, 1)
    j_message = "j coordinates [1, 1, 3, 4, 5] are not a bijection on 1..5"
    k_message = "k coordinates [2, 2, 3, 4, 1] are not a bijection on 1..5"
    for bad, message in (((j_repeated, k_repeated), j_message), ((k_repeated, j_repeated), k_message)):
        rows = np.concatenate([_flat_rows([x], dtype), np.array(bad, dtype=dtype)])
        with pytest.raises(ValueError, match=re.escape(message)):
            list(first_of_each_class(rows))
    assert list(first_of_each_class(rows[:1])) == [(0, x)]


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_first_of_each_class_refuses_every_row_that_is_no_permutation_cube(dtype):
    """Each of the 232 order-4 rows with k = 1..4 whose j is no bijection
    is refused with CostasCube's message for it, alone and after the
    identity cube, though some have a least image that is a permutation
    cube: j = (1, 3, 3, 3) has the identity cube's form."""
    identity = (1, 1, 2, 2, 3, 3, 4, 4)
    refused = 0
    for j in itertools.product(range(1, 5), repeat=4):
        if sorted(j) == [1, 2, 3, 4]:
            continue
        row = [x for pair in zip(j, (1, 2, 3, 4)) for x in pair]
        message = f"j coordinates {list(j)} are not a bijection on 1..4"
        for rows in ([row], [identity, row]):
            with pytest.raises(ValueError, match=re.escape(message)):
                first_of_each_class(np.array(rows, dtype=dtype))
        refused += 1
    assert refused == 232


def _rotation_projection_set(cube):
    """Oracle: Projection A over the 24 rotations only."""
    return {projections_oracle(image(s, cube))[0] for s in CUBE_ROTATIONS}


def test_projection_set_small_sd_cube(small_sd_cube):
    members = _rows(projection_set(small_sd_cube))
    assert members == sorted(SMALL_SD_MEMBERS)
    assert _rotation_projection_set(small_sd_cube) == set(members)


def test_projection_set_rejects_non_costas():
    diag = CostasCube(tuple((i, i) for i in range(1, 5)))
    with pytest.raises(ValueError, match="Costas cube"):
        projection_set(diag)


def test_images_pass_matches_oracles_on_sweep_cubes():
    """Every cube the Table 2 sweeps construct up to order 13."""
    checked = 0
    for family in (Family.CUBE_G2X3, Family.CUBE_W2W2G2, Family.CUBE_G3):
        for *_, cube in sweep_tuples_oracle(family, 13):
            assert canonical_cube(cube) == canonical_cube_oracle(cube)
            checked += 1
    assert checked > 400


def test_images_pass_matches_oracles_on_join_classes():
    """Every pair-join class of orders 2-9 and every member of its orbit."""
    for n in range(2, 10):
        classes = costas_cube_classes(n)
        for cube in classes:
            assert canonical_cube(cube) == canonical_cube_oracle(cube) == cube
            orbit = _cube_orbit(cube)
            assert orbit == cube_orbit_oracle(cube)
            assert all(canonical_cube(member) == cube for member in orbit)
            members = _rows(projection_set(cube))
            assert members == sorted(_projection_set_oracle(cube))
            for p in map(Permutation, members):
                assert _canonical_array(p) == least_image_oracle(p)
                assert _array_class_size(p) == array_class_size_oracle(p)


def test_images_pass_matches_oracles_at_order_300():
    """Coordinates above 255 must not wrap in either images pass, and at
    order 255, the last one keyed in uint8, the complement must not leave
    the dtype's range."""
    for n in (255, 300):
        cube = _random_cube(n, random.Random(n))
        assert canonical_cube(cube) == canonical_cube_oracle(cube)
        assert _cube_orbit(cube) == cube_orbit_oracle(cube)
        assert _square_images_of_projections(cube) == _projection_set_oracle(cube)
        perm = Permutation(projection_rows(cube)[0])
        assert _canonical_array(perm) == least_image_oracle(perm)
        assert _array_class_size(perm) == array_class_size_oracle(perm)


def test_projection_set_rotations_match_full_group():
    """Reflections never enlarge S(D): the rotations alone give it."""
    for n in (5, 6):
        for cube in costas_cube_classes(n):
            assert _rows(projection_set(cube)) == sorted(_rotation_projection_set(cube))


def test_costas_invariance_under_symmetries():
    for n in (5, 6):
        for p in costas_arrays(n):
            assert all(costas_violation_oracle(image(s, p).values) == (0, 0) for s in PLANAR_SYMMETRIES)
    for cube in costas_cube_classes(5):
        assert all(is_costas_cube(image(s, cube)) for s in CUBE_SYMMETRIES)
