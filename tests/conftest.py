"""Shared fixtures, known worked examples, a session enumeration cache,
and the reference oracles: the difference scan of the Costas check, the
per-element symmetry action, projection-pair reconstruction, the
one-array forms (a Permutation per array, a value matrix built from
them, an array file read one Permutation per line) and digit-level
field arithmetic that the package's numpy kernels and log tables are
checked against."""

import functools

import numpy as np
import pytest

from costas_cubes.core import CostasCube, Permutation, projections
from costas_cubes.enumeration import class_report, costas_values, enumerate_costas_arrays
from costas_cubes.gf import _primitive_logs, field_new
from costas_cubes.symmetry import CUBE_SYMMETRIES, PLANAR_SYMMETRIES, AxisSymmetry

# Every extension field the suite instantiates, keyed by q.
EXTENSION_MODULI = {
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 0, 1, 1)),
    9: (3, 2, (1, 0, 1)),
    16: (2, 4, (1, 0, 0, 1, 1)),
    25: (5, 2, (1, 1, 1)),
    27: (3, 3, (1, 0, 2, 1)),
    32: (2, 5, (1, 0, 1, 0, 0, 1)),
    49: (7, 2, (1, 0, 1)),
    64: (2, 6, (1, 1, 0, 0, 0, 0, 1)),
    81: (3, 4, (2, 1, 0, 0, 1)),
    121: (11, 2, (1, 0, 1)),
    125: (5, 3, (1, 1, 0, 1)),
    243: (3, 5, (1, 2, 0, 0, 0, 1)),
    1024: (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
    2187: (3, 7, (2, 0, 1, 0, 0, 0, 0, 1)),
    16384: (2, 14, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
}
PRIME_FIELDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 12289)


@functools.lru_cache(maxsize=1)
def instantiated_fields() -> tuple:
    fields = [field_new(p, 1) for p in PRIME_FIELDS]
    fields.extend(field_new(p, m, mod) for p, m, mod in EXTENSION_MODULI.values())
    fields.append(field_new(2, 4, (1, 1, 0, 0, 1)))  # second GF(16) representation
    return tuple(fields)

# Order-6 reference cube and its projections.
ORDER6_TRIPLES = [(1, 6, 4), (2, 4, 6), (3, 1, 2), (4, 3, 1), (5, 2, 5), (6, 5, 3)]
ORDER6_A = (3, 5, 4, 2, 6, 1)
ORDER6_B = (4, 3, 6, 1, 5, 2)
ORDER6_C = (3, 1, 5, 6, 2, 4)

# Order-6 cube whose projection set is a single array class of size 4.
SMALL_SD_TRIPLES = [(1, 2, 4), (2, 4, 1), (3, 5, 6), (4, 1, 2), (5, 6, 3), (6, 3, 5)]
SMALL_SD_MEMBERS = {
    (2, 4, 5, 1, 6, 3),
    (3, 6, 1, 5, 4, 2),
    (4, 1, 6, 2, 3, 5),
    (5, 3, 2, 6, 1, 4),
}

# Order-14 cube over GF(16) with modulus 1+x^3+x^4, phi=x, rho=1+x^2+x^3,
# psi=x+x^2+x^3.
GF16_J = (3, 6, 1, 12, 10, 2, 7, 9, 8, 5, 11, 4, 13, 14)
GF16_K = (7, 14, 2, 13, 10, 4, 12, 11, 1, 5, 6, 8, 3, 9)
GF16_A = (3, 6, 1, 12, 10, 2, 7, 9, 8, 5, 11, 4, 13, 14)
GF16_B = (9, 3, 13, 6, 10, 11, 1, 12, 14, 5, 8, 7, 4, 2)
GF16_C = (8, 1, 13, 2, 5, 11, 3, 4, 14, 10, 9, 7, 12, 6)

# Order-11 cube over GF(13) with phi=11, psi=6.
P13_J = (7, 4, 2, 3, 11, 5, 9, 8, 10, 1, 6)
P13_K = (6, 11, 2, 4, 3, 7, 1, 9, 10, 8, 5)
P13_A = (10, 3, 4, 2, 6, 11, 1, 8, 7, 9, 5)
P13_B = (7, 3, 5, 4, 11, 1, 6, 10, 8, 9, 2)
P13_C = (9, 2, 11, 3, 6, 7, 5, 1, 8, 10, 4)

# Order-24 cubes D and E over GF(27) with modulus 1+2x^2+x^3, phi=2+2x.
# The published Projection B row of D misprints its final entry as 12;
# the triple table forces 22 (as printed, the row repeats 12 and is not
# a permutation), so the corrected row is frozen here.
GF27_J = (6, 2, 4, 7, 20, 21, 3, 8, 18, 15, 14, 12, 5, 23, 17, 24, 10, 19, 9, 13, 1, 16, 11, 22)
GF27_D_K = (21, 2, 7, 3, 13, 1, 4, 8, 19, 17, 23, 12, 20, 11, 10, 22, 15, 9, 18, 5, 6, 24, 14, 16)
GF27_E_K = (16, 14, 24, 6, 5, 18, 9, 15, 22, 10, 11, 20, 12, 23, 17, 19, 8, 4, 1, 13, 3, 7, 2, 21)
GF27_D_A = (21, 2, 7, 3, 13, 1, 4, 8, 19, 17, 23, 12, 20, 11, 10, 22, 15, 9, 18, 5, 6, 24, 14, 16)
GF27_D_B = (6, 2, 4, 7, 20, 21, 3, 8, 18, 15, 14, 12, 5, 23, 17, 24, 10, 19, 9, 13, 1, 16, 11, 22)
GF27_D_C = (21, 2, 7, 3, 13, 1, 4, 8, 19, 17, 23, 12, 20, 11, 10, 22, 15, 9, 18, 5, 6, 24, 14, 16)
GF27_E_A = GF27_D_A
GF27_E_B = (19, 23, 21, 18, 5, 4, 22, 17, 7, 10, 11, 13, 20, 2, 8, 1, 15, 6, 16, 12, 24, 9, 14, 3)
GF27_E_C = (9, 11, 1, 19, 20, 7, 16, 10, 3, 15, 14, 5, 13, 2, 8, 6, 17, 21, 24, 12, 22, 18, 23, 4)


# -- Costas oracle -------------------------------------------------------


def costas_violation_oracle(values) -> tuple[int, int]:
    """The first repeated difference vector (d, diff) of a value sequence,
    scanning column shifts d in increasing order and, at each, the
    columns from the left; (0, 0) for a Costas array."""
    n = len(values)
    for d in range(1, n):
        seen = set()
        for j in range(n - d):
            diff = values[j + d] - values[j]
            if diff in seen:
                return (d, diff)
            seen.add(diff)
    return (0, 0)


# -- one-array oracles ---------------------------------------------------


def value_matrix(arrays) -> np.ndarray:
    """The value sequences of Permutations as the rows of one matrix, in
    the least unsigned dtype that holds them; arrays of lesser order are
    padded with zeros to the largest order."""
    width = max((len(p.values) for p in arrays), default=0)
    rows = [p.values + (0,) * (width - len(p.values)) for p in arrays]
    return np.array(rows, dtype=np.min_scalar_type(width)).reshape(len(rows), width)


def numbered_arrays(text: str) -> list[tuple[int, Permutation]]:
    """(line number, Permutation) for every array line of an array file,
    one line at a time; raises ValueError naming the first bad line, or
    when there is no array line."""
    numbered = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            numbered.append((lineno, Permutation(tuple(map(int, line.split())))))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not numbered:
        raise ValueError("no permutations found")
    return numbered


# -- symmetry oracles ----------------------------------------------------


def apply_symmetry(sym: AxisSymmetry, coords: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Image of a 1-based coordinate tuple of an order-n array (two axes)
    or cube (three axes): output axis a reads input axis sym.axes[a],
    reversed (x -> n+1-x) where sym.flips[a]."""
    return tuple(n + 1 - coords[a] if flip else coords[a] for a, flip in zip(sym.axes, sym.flips))


def image(sym: AxisSymmetry, obj):
    """Image of a Permutation under a square symmetry, or of a CostasCube
    under a cube symmetry, one 1 entry at a time through apply_symmetry.
    The array's 1 entries are the cells (sigma(j), j)."""
    n = obj.order
    if isinstance(obj, Permutation):
        cells = (apply_symmetry(sym, (i, j), n) for j, i in enumerate(obj.values, start=1))
        return Permutation(tuple(i for i, _ in sorted(cells, key=lambda cell: cell[1])))
    return CostasCube.from_triples(apply_symmetry(sym, t, n) for t in obj.triples())


def is_rotation(sym: AxisSymmetry) -> bool:
    """True for orientation-preserving symmetries (determinant +1): the
    parity of the axis permutation plus the number of reversed axes is even."""
    axes = sym.axes
    inversions = sum(axes[x] > axes[y] for x in range(len(axes)) for y in range(x + 1, len(axes)))
    return (inversions + sum(sym.flips)) % 2 == 0


CUBE_ROTATIONS = tuple(s for s in CUBE_SYMMETRIES if is_rotation(s))
# i -> n+1-i with j fixed: mirrors the array left-right when the first
# index is drawn as the horizontal coordinate.
VERTICAL_REFLECTION = AxisSymmetry((0, 1), (True, False))
ROTATION_180 = AxisSymmetry((0, 1), (True, True))


def canonical_cube_oracle(cube: CostasCube) -> CostasCube:
    """canonical_cube as a loop over one image at a time."""
    return min((image(s, cube) for s in CUBE_SYMMETRIES), key=lambda c: c.rows)


def cube_orbit_oracle(cube: CostasCube) -> list[CostasCube]:
    """The distinct images of cube under the 48 symmetries, sorted by rows."""
    return sorted({image(s, cube) for s in CUBE_SYMMETRIES}, key=lambda c: c.rows)


def least_image_oracle(perm: Permutation) -> tuple[int, ...]:
    """The least value sequence among the images of perm under
    PLANAR_SYMMETRIES, one symmetry at a time: the key of its D4 class."""
    return min(image(s, perm).values for s in PLANAR_SYMMETRIES)


def array_class_size_oracle(perm: Permutation) -> int:
    """The size of the D4 orbit of perm."""
    return len({image(s, perm) for s in PLANAR_SYMMETRIES})


# -- projection oracles --------------------------------------------------


def inverse(perm: Permutation) -> Permutation:
    inv = [0] * perm.order
    for j, i in enumerate(perm.values, start=1):
        inv[i - 1] = j
    return Permutation(tuple(inv))


def projections_oracle(cube: CostasCube) -> tuple[tuple[int, ...], ...]:
    """The projections A, B and C of a cube as value tuples, read from its
    rows one at a time: sigma_A(j_i) = i, sigma_B(k_i) = i and
    sigma_C(k_i) = j_i."""
    n = cube.order
    a, b, c = [0] * n, [0] * n, [0] * n
    for i, (j, k) in enumerate(cube.rows, start=1):
        a[j - 1], b[k - 1], c[k - 1] = i, i, j
    return tuple(a), tuple(b), tuple(c)


def projection_rows(cube: CostasCube) -> tuple[tuple[int, ...], ...]:
    """The rows A, B and C of projections(cube), as value tuples."""
    return tuple(map(tuple, projections(cube).tolist()))


def projection_class_count(cubes) -> int:
    """The number of D4 classes among the projections A, B and C of the
    cubes, from projections_oracle; a class is its least member, the
    least image under PLANAR_SYMMETRIES one symmetry at a time."""
    return len({least_image_oracle(Permutation(values))
                for cube in cubes for values in projections_oracle(cube)})


def cube_from_pair(which: str, x: Permutation, y: Permutation) -> CostasCube:
    """The permutation cube whose projection pair which ("AB", "AC" or
    "BC") is (x, y).  Row i has j_i = A^-1(i) and k_i = B^-1(i), and
    Projection C links them: C(k_i) = j_i."""
    if which == "AB":
        j, k = inverse(x).values, inverse(y).values
    elif which == "AC":
        j = inverse(x).values
        k = tuple(inverse(y).values[jj - 1] for jj in j)
    else:
        k = inverse(x).values
        j = tuple(y.values[kk - 1] for kk in k)
    return CostasCube(tuple(zip(j, k)))


# -- field oracles ------------------------------------------------------


def field_add(field, a: int, b: int) -> int:
    """a + b, digit by digit mod p."""
    return field.encode([x + y for x, y in zip(field.digits(a), field.digits(b))])


def field_sub(field, a: int, b: int) -> int:
    """a - b, digit by digit mod p."""
    return field.encode([x - y for x, y in zip(field.digits(a), field.digits(b))])


def field_mul(field, a: int, b: int) -> int:
    """Schoolbook polynomial product reduced by long division."""
    p, m = field.p, field.m
    da, db = field.digits(a), field.digits(b)
    prod = [0] * (2 * m)
    for s, ca in enumerate(da):
        for t, cb in enumerate(db):
            prod[s + t] = (prod[s + t] + ca * cb) % p
    for top in range(2 * m - 1, m - 1, -1):
        c = prod[top]
        if c:
            for t, cm in enumerate(field.modulus):
                prod[top - m + t] = (prod[top - m + t] - c * cm) % p
    return field.encode(prod[:m])


@functools.lru_cache(maxsize=None)
def field_pow(field, a: int, k: int) -> int:
    """a^k by square-and-multiply over field_mul; a negative k reads
    a^(k mod q-1), so a must then be nonzero.  Cached, as the tests
    raise few bases to many exponents."""
    if k < 0:
        k %= field.q - 1
    r = 1
    while k:
        if k & 1:
            r = field_mul(field, r, a)
        a = field_mul(field, a, a)
        k >>= 1
    return r


def admissible(field, *one_minus: int) -> list[int]:
    """The elements whose logs _primitive_logs(field, *one_minus) lists,
    ascending: every primitive element, and with (1,) or (1, -1) the
    parameters of the G3 array or of both G3 cubes."""
    exp = field.tables()[0]
    return [exp[t] for t in _primitive_logs(field, *one_minus)]


def field_inverses(field, g: int) -> dict[int, int]:
    """x -> x^(-1) for each power x = g^t, t in [0, q-1), the powers formed
    by field_mul one after another: g^(-t) is g^(q-1-t).  Its keys are
    every nonzero element exactly when g is primitive."""
    powers = [1]
    for _ in range(field.q - 2):
        powers.append(field_mul(field, powers[-1], g))
    return {x: powers[-t % (field.q - 1)] for t, x in enumerate(powers)}


def cube_from_jk(j_row, k_row) -> CostasCube:
    return CostasCube(tuple(zip(j_row, k_row)))


@pytest.fixture
def order6_cube() -> CostasCube:
    return CostasCube.from_triples(ORDER6_TRIPLES)


@pytest.fixture
def small_sd_cube() -> CostasCube:
    return CostasCube.from_triples(SMALL_SD_TRIPLES)


@functools.lru_cache(maxsize=None)
def costas_arrays(n: int) -> tuple[Permutation, ...]:
    return tuple(enumerate_costas_arrays(n))


@functools.lru_cache(maxsize=None)
def costas_cube_classes(n: int) -> tuple[CostasCube, ...]:
    return class_report(n, costas_values(n)).representatives


def order7_without_one_class() -> list[Permutation]:
    """The order-7 Costas arrays minus one whole D4 class: still closed
    under the square symmetries, but incomplete."""
    arrays = costas_arrays(7)
    orbit = {image(s, arrays[0]).values for s in PLANAR_SYMMETRIES}
    return [p for p in arrays if p.values not in orbit]
