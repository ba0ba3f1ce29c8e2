"""Symmetry groups of the square and the cube acting on permutation arrays
and permutation cubes, canonical forms, orbits, and projection sets.

A symmetry is a signed axis permutation: output axis a reads input axis
axes[a] and then optionally reverses the coordinate (x -> n+1-x).  With
two axes this gives the 8 square symmetries; with three axes the 48 cube
symmetries.

Canonical forms and orbits read all images of an object at once.  One
numpy pass forms the 8 square images of a whole value matrix, its rows'
inverses from one scatter, and the least is found column by column,
among the images still least on every column before it: an array whose
least image is the only one left stops being read, and the pass ends
once every array has one.  The 48 images of a cube take a fixed number
of numpy calls whatever its order, through three read-only tables built
once per order and dtype and cached together: a copy of a template,
which already holds i and its complement, takes j and k, and their
complements from one take through a complement table; one argsort gives
the orders of i, j and k, one take lists the six coordinate rows in
each, 18 sequences, and one take through an index table reads the images
from them.  A cube's row list is keyed by its bytes as big-endian
words of the dtype it is given in, whose byte order is the numeric
order of the values 1..n, so the least image is the least key.  The
class walk (class_keys) gives each class's first row and least key, and
after the walk checks the first rows, as given, as permutation cubes,
once per call; decode_keys builds CostasCubes from keys, so a caller
that only counts classes builds none.  The cube symmetries permute the
three projection planes and act on each by the square symmetries, so
the arrays a cube's orbit projects, its projection set S(D), are the
rows of the planar images of its (3, n) projection matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations as _axis_orders, product as _product

import numpy as np

from .core import CostasCube, _unchecked, costas_violations, distinct_rows, projections


@dataclass(frozen=True)
class AxisSymmetry:
    """A signed permutation of coordinate axes (2 for arrays, 3 for cubes)."""

    axes: tuple[int, ...]
    flips: tuple[bool, ...]


def _group(dim: int) -> tuple[AxisSymmetry, ...]:
    return tuple(
        AxisSymmetry(axes, flips)
        for axes in _axis_orders(range(dim))
        for flips in _product((False, True), repeat=dim)
    )


PLANAR_SYMMETRIES: tuple[AxisSymmetry, ...] = _group(2)
CUBE_SYMMETRIES: tuple[AxisSymmetry, ...] = _group(3)


def inverse_rows(values: np.ndarray) -> np.ndarray:
    """The inverses of the rows of an (N, n) value matrix, as 1-based value
    rows in its dtype, from one scatter: value v at position j of a row
    writes j to slot v of that row's inverse.

    The slots are row-relative, so a value outside 1..n writes into
    another row's inverse or past the matrix: only rows known to be
    permutations of 1..n may be given, or rows whose every value is known
    to lie in 1..n.  Then each row writes only its own slots, a slot that
    no value names is left 0, and a row is a permutation exactly when its
    inverse has no 0."""
    count, n = values.shape
    inverse = np.zeros(values.shape, values.dtype)
    if values.size:
        slots = np.add(values, np.arange(-1, count * n - 1, n)[:, None], dtype=np.intp)
        np.put(inverse, slots, np.arange(1, n + 1, dtype=values.dtype))
    return inverse


def planar_images(values: np.ndarray, inverse: np.ndarray | None = None) -> np.ndarray:
    """Value matrices of the images of the rows of an (N, n) value matrix
    of permutations of 1..n under PLANAR_SYMMETRIES, in that order: shape
    (8, N, n), in the matrix's dtype.  inverse, if given, is the matrix's
    inverse_rows."""
    n = values.shape[1]
    if inverse is None:
        inverse = inverse_rows(values)
    images = np.empty((len(PLANAR_SYMMETRIES),) + values.shape, values.dtype)
    for s, sym in enumerate(PLANAR_SYMMETRIES):
        # Swapping the axes inverts the permutation, flipping the second
        # axis reverses the value sequence, flipping the first complements it.
        image = inverse if sym.axes == (1, 0) else values
        if sym.flips[1]:
            image = image[:, ::-1]
        images[s] = n - image + 1 if sym.flips[0] else image
    return images


def _least(images: np.ndarray) -> np.ndarray:
    """Index along axis 0 of the lexicographically least row (last axis)
    of images, for every position of the axes in between; the first such
    index where rows tie.

    Columns are read in turn, and an image stays live while each column
    so far holds the least value of any live image of its position.  A
    position with one live image is settled and no longer read, and the
    columns stop once every position is settled; positions still tied
    after the last column take their first live image."""
    count, width = images.shape[0], images.shape[-1]
    flat = images.reshape(count, math.prod(images.shape[1:-1]), width)
    least = np.zeros(flat.shape[1], dtype=np.intp)
    open_ = np.arange(flat.shape[1])
    live = np.ones((count, len(open_)), dtype=bool)
    top = images.dtype.type(np.iinfo(images.dtype).max)
    for j in range(width):
        if not len(open_):
            break
        # An image no longer live reads the dtype's maximum, so that a plain
        # min finds the least live value (a where= reduction is far slower).
        dead = np.multiply(~live, top, dtype=images.dtype.type)
        column = np.maximum(np.take(flat[:, :, j], open_, axis=1), dead)
        live &= column == column.min(axis=0)
        settled = live.sum(axis=0, dtype=np.min_scalar_type(count)) == 1
        if settled.any():
            least[open_[settled]] = live[:, settled].argmax(axis=0)
            keep = ~settled
            open_, live = open_[keep], live.compress(keep, axis=1)
    least[open_] = live.argmax(axis=0)
    return least.reshape(images.shape[1:-1])


def least_image(images: np.ndarray) -> np.ndarray:
    """The lexicographically least of each array's images, its canonical
    form and the key of its D4 class: (N, n) from the (8, N, n)
    planar_images."""
    return images[_least(images), np.arange(images.shape[1])]


@functools.cache
def _image_tables(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of _row_images at order n, for rows of dtype:

    - the template of the six coordinate sequences, (6, n) in dtype: i =
      1..n in row 0 and its complement n+1-i in row 3; the j and k rows 1,
      2, 4 and 5 are 0, for each call to fill in its own copy;
    - the complements n+1-x of x = 0..n, 0 for x = 0, in dtype: the table
      never holds n + 1, which need not fit (256 in uint8);
    - the index table of the 48 images into the 18 sequences: image s
      lists coordinate axes[1 + c] (complemented where flips[1 + c]) in
      the order of coordinate axes[0], from the back where flips[0], for
      c = 0, 1 (j then k).  Shape (48, 2n), in CUBE_SYMMETRIES order.
    """
    template = np.zeros((6, n), dtype=dtype)
    template[0] = np.arange(1, n + 1)
    template[3] = template[0][::-1]
    flip = np.zeros(n + 1, dtype=dtype)
    flip[1:] = template[3]
    positions = np.arange(n)
    gather = np.empty((len(CUBE_SYMMETRIES), n, 2), dtype=np.intp)
    for s, sym in enumerate(CUBE_SYMMETRIES):
        for c in (0, 1):
            sequence = (sym.axes[1 + c] + 3 * sym.flips[1 + c]) * 3 + sym.axes[0]
            gather[s, :, c] = sequence * n + (positions[::-1] if sym.flips[0] else positions)
    gather = gather.reshape(len(CUBE_SYMMETRIES), 2 * n)
    for table in (template, flip, gather):
        table.setflags(write=False)
    return template, flip, gather


def _row_images(row: np.ndarray) -> np.ndarray:
    """Row lists of the images of one flattened row list j_1, k_1, ...,
    j_n, k_n under CUBE_SYMMETRIES, in that order: shape (48, 2n), in the
    row's dtype.

    A copy of _image_tables' template takes j and k into rows 1 and 2 and
    their complements into rows 4 and 5, one take through its complement
    table, so that row x of it is coordinate x of i, j, k (0, 1, 2) or its
    complement (3, 4, 5).  One argsort of rows 0-2 gives the order of each
    coordinate, one take lists every row in each of those orders, 18
    sequences with sequence (3x + y) at (3x + y) * n, and one take
    through its index table reads the 48 images from them.  The flip take
    wraps, so that a row that is no permutation cube still forms images
    without an error: the walk goes on, and class_keys refuses the row
    after it."""
    n = len(row) // 2
    template, flip, gather = _image_tables(n, row.dtype)
    coords = template.copy()
    coords[1:3] = row.reshape(n, 2).T
    flip.take(coords[1:3], out=coords[4:], mode="wrap")
    return coords.take(coords[:3].argsort(axis=1), axis=1).take(gather)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """The bytes of each row of a C-contiguous 2-d array, as a 1-d void
    view of it."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def canonical_cube(cube: CostasCube) -> CostasCube:
    """Lexicographically least row list over the 48-element orbit of cube,
    walked as one row of the least unsigned dtype for its order."""
    row = np.array(cube.rows, dtype=np.min_scalar_type(cube.order)).reshape(1, 2 * cube.order)
    (form,) = decode_keys(class_keys(row)[1], row.dtype)
    return form


def class_keys(rows: np.ndarray) -> tuple[list[int], list[bytes]]:
    """The class walk: the rows t of a (T, 2n) matrix of flattened cube
    rows whose class no earlier row holds, in row order, and each one's
    canonical key, the least key of its 48 images.

    The rows are keyed by their bytes as big-endian words of the dtype
    they are given in, so no value is changed.  They are walked in order
    against a set of the keys of every image of the classes found so far:
    a row in the set is skipped, and any other row's 48 images join the
    set.  After the walk, one sort of the first rows, as given, refuses
    the first that is no permutation cube, by building its CostasCube.
    That checks every row: a skipped row equals an image of an earlier
    first row, and the images of a permutation cube are permutation
    cubes, so the first row that is none is a first row.  A width that is
    0 or odd is refused before any row is keyed.
    """
    n, odd = divmod(rows.shape[1], 2)
    if not n or odd:
        raise ValueError(f"cube rows need an even width of at least 2, not shape {rows.shape}")
    key_dtype = rows.dtype.newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=key_dtype)
    key = np.dtype((np.void, rows.shape[1] * key_dtype.itemsize))
    seen: set[bytes] = set()
    firsts, forms = [], []
    for t, row_key in enumerate(rows.view(key).ravel().tolist()):
        if row_key in seen:
            continue
        keys = _row_images(rows[t]).view(key).ravel().tolist()
        seen.update(keys)
        firsts.append(t)
        forms.append(min(keys))
    first_rows = rows[firsts].reshape(len(firsts), n, 2)
    identity = np.arange(1, n + 1, dtype=key_dtype)[:, None]
    bad = (np.sort(first_rows, axis=1) != identity).any(axis=(1, 2))
    if bad.any():
        row = first_rows[np.argmax(bad)].tolist()
        CostasCube(tuple(map(tuple, row)))  # raises
    return firsts, forms


def decode_keys(keys: list[bytes], dtype: np.dtype) -> list[CostasCube]:
    """The CostasCubes of class_keys' keys of rows of dtype, built
    unchecked (_unchecked): the walk has checked their first rows."""
    if not keys:
        return []
    least = np.frombuffer(b"".join(keys), dtype=dtype.newbyteorder(">")).reshape(len(keys), -1)
    return _unchecked(CostasCube, (tuple(zip(row[0::2], row[1::2])) for row in least.tolist()))


def projection_set(cube: CostasCube) -> np.ndarray:
    """S(D), the distinct Costas arrays occurring as Projection A over the
    orbit of a Costas cube: the square images of its projections A, B and
    C, as the sorted distinct rows of a value matrix.

    For a Costas cube of order > 2 the result is a union of D4 classes,
    so it has a multiple of 4 rows and at most 24.  Reflections never
    enlarge the set (each is realized by some rotation).
    """
    values = projections(cube)
    if costas_violations(values).any():
        raise ValueError("projection_set requires a Costas cube")
    return distinct_rows(planar_images(values).reshape(-1, cube.order))
