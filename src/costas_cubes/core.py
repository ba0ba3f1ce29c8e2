"""Permutations, permutation cubes, and the Costas property.

Index conventions used throughout the package (all 1-based):

* A permutation sigma on {1..n} is stored as its value row
  (sigma(1), ..., sigma(n)), a tuple or a row of a value matrix, and
  encodes the n x n 0/1 array with a 1 in row i, column j exactly when
  sigma(j) = i.  Arrays of several orders share one matrix zero-padded
  to the largest order, so a row's order is its count of nonzero values.
  Permutation, a validated value tuple, is returned only by
  enumeration.enumerate_costas_arrays and array_classes.  These build
  their lists from one value matrix checked once (_permutations), while
  Permutation(...) checks each object it builds.

* A permutation cube is an n x n x n 0/1 array with exactly one 1 in
  every axis-aligned plane.  It is stored sparsely: for each i there is
  a unique pair (j_i, k_i) carrying the 1, and the cube is the row list
  ((j_1, k_1), ..., (j_n, k_n)).

* The three projections of a cube collapse one axis by summation:
  A over k, B over j, C over i.  Read as permutations:
  sigma_A(j_i) = i, sigma_B(k_i) = i, sigma_C(k_i) = j_i.  They are
  the rows A, B and C of one (3, n) value matrix, which the array
  kernels read as they read any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np


@cache
def _identity(n: int) -> list[int]:
    """[1, ..., n], shared by every Permutation and CostasCube check of
    order n: never handed out, so never changed."""
    return list(range(1, n + 1))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as its 1-based value sequence."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n == 0:
            raise ValueError("permutation must have order >= 1")
        if sorted(self.values) != _identity(n):
            raise ValueError(f"{self.values!r} is not a bijection on 1..{n}")

    @property
    def order(self) -> int:
        return len(self.values)


def _permutations(values: np.ndarray) -> list[Permutation]:
    """The rows of an (N, n) value matrix as Permutations, checked once as
    a matrix: one row-wise sort against 1..n refuses the first row that is
    not a bijection, with Permutation's own message.  Each object is then
    built as the frozen dataclass __init__ builds it, without its sort."""
    n = values.shape[1]
    if n == 0:
        raise ValueError("permutation must have order >= 1")
    rows = values.tolist()
    bad = (np.sort(values, axis=1) != np.arange(1, n + 1)).any(axis=1)
    if bad.any():
        raise ValueError(f"{tuple(rows[np.argmax(bad)])!r} is not a bijection on 1..{n}")
    new, set_values = object.__new__, object.__setattr__
    out = []
    for row in rows:
        p = new(Permutation)
        set_values(p, "values", tuple(row))
        out.append(p)
    return out


@dataclass(frozen=True)
class CostasCube:
    """A permutation cube, stored as rows (j_i, k_i) for i = 1..n.

    The type stores any permutation cube; the Costas property is decided
    by is_costas_cube, never assumed.
    """

    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n == 0:
            raise ValueError("cube must have order >= 1")
        # Any row that is not a pair fails: strict catches mixed lengths, the
        # unpacking catches the rest.
        js, ks = zip(*self.rows, strict=True)
        if sorted(js) != _identity(n):
            raise ValueError(f"j coordinates {list(js)!r} are not a bijection on 1..{n}")
        if sorted(ks) != _identity(n):
            raise ValueError(f"k coordinates {list(ks)!r} are not a bijection on 1..{n}")

    @property
    def order(self) -> int:
        return len(self.rows)

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        """The 1-entry coordinates (i, j_i, k_i), sorted by i."""
        return tuple((i, j, k) for i, (j, k) in enumerate(self.rows, start=1))

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> CostasCube:
        """Build a cube from (i, j, k) triples in any order.

        Raises ValueError on duplicate or missing i coordinates.
        """
        items = sorted(triples)
        n = len(items)
        if [i for i, _, _ in items] != list(range(1, n + 1)):
            raise ValueError("i coordinates must cover 1..n exactly once")
        return cls(tuple((j, k) for _, j, k in items))

    def __str__(self) -> str:
        return " ".join(f"({i},{j},{k})" for i, j, k in self.triples())


def costas_violations(values: np.ndarray) -> np.ndarray:
    """Each row's first repeated difference vector (d, diff), at the least
    shift d and then the first column repeating one to its left, or (0, 0)
    for a Costas row: shape (N, 2) for an (N, n) matrix of permutations.

    Per shift, sorted differences show a repeat as equal neighbours; only
    for rows failing first there, a stable argsort finds the column."""
    values = np.asarray(values, dtype=np.int32)
    found = np.zeros((len(values), 2), dtype=np.int64)
    # Shift n - 1 has a single difference, which cannot repeat.
    for d in range(1, values.shape[1] - 1):
        diffs = values[:, d:] - values[:, :-d]
        ranked = np.sort(diffs, axis=1)
        fail = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        if fail.any():
            fail &= found[:, 0] == 0
            diffs = diffs[fail]
            order = np.argsort(diffs, axis=1, kind="stable")
            ranked = np.take_along_axis(diffs, order, axis=1)
            column = np.where(ranked[:, 1:] == ranked[:, :-1], order[:, 1:], diffs.shape[1]).min(axis=1)
            found[fail] = np.stack([np.full(len(diffs), d), diffs[np.arange(len(diffs)), column]], axis=1)
    return found


def distinct_rows(values: np.ndarray) -> np.ndarray:
    """The distinct rows of a value matrix, sorted."""
    values = values[np.lexsort(values.T[::-1])]
    return values[np.concatenate(([True], (values[1:] != values[:-1]).any(axis=1)))]


def projections(cube: CostasCube) -> np.ndarray:
    """The projections A, B and C of a permutation cube as the rows of one
    (3, n) value matrix, in the least unsigned dtype for order n: one
    scatter of the row list writes A(j_i) = i, B(k_i) = i and C(k_i) = j_i."""
    n = cube.order
    i = np.arange(1, n + 1)
    j, k = np.array(cube.rows).T
    values = np.empty((3, n), dtype=np.min_scalar_type(n))
    values[[[0], [1], [2]], [j - 1, k - 1, k - 1]] = [i, i, j]
    return values


def is_costas_cube(cube: CostasCube) -> bool:
    """True iff all three projections of the cube are Costas arrays."""
    return not costas_violations(projections(cube)).any()
