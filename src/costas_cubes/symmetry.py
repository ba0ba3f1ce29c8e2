"""Symmetry groups of the square and the cube acting on permutation arrays
and permutation cubes, canonical forms, orbits, and projection sets.

A symmetry is a signed axis permutation: output axis a reads input axis
axes[a] and then optionally reverses the coordinate (x -> n+1-x).  With
two axes this gives the 8 square symmetries; with three axes the 48 cube
symmetries.  The orientation-preserving elements (signed permutation
matrices of determinant +1) form the 24-element rotation subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _axis_orders, product as _product

from .core import CostasCube, Permutation, is_costas_cube, projections


@dataclass(frozen=True)
class AxisSymmetry:
    """A signed permutation of coordinate axes (2 for arrays, 3 for cubes)."""

    axes: tuple[int, ...]
    flips: tuple[bool, ...]

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def is_rotation(self) -> bool:
        """True for orientation-preserving elements (determinant +1)."""
        inversions = sum(
            1
            for x in range(self.dim)
            for y in range(x + 1, self.dim)
            if self.axes[x] > self.axes[y]
        )
        return (inversions + sum(self.flips)) % 2 == 0

    def apply_coords(self, coords: tuple[int, ...], n: int) -> tuple[int, ...]:
        """Image of a 1-based coordinate tuple in an order-n array."""
        return tuple(
            (n + 1 - coords[src]) if flip else coords[src]
            for src, flip in zip(self.axes, self.flips)
        )

    def compose(self, other: AxisSymmetry) -> AxisSymmetry:
        """self after other: apply(compose(f, g), x) == apply(f, apply(g, x))."""
        axes = tuple(other.axes[a] for a in self.axes)
        flips = tuple(f ^ other.flips[a] for a, f in zip(self.axes, self.flips))
        return AxisSymmetry(axes, flips)

    def inverse(self) -> AxisSymmetry:
        axes = tuple(self.axes.index(a) for a in range(self.dim))
        flips = tuple(self.flips[axes[a]] for a in range(self.dim))
        return AxisSymmetry(axes, flips)


def _group(dim: int) -> tuple[AxisSymmetry, ...]:
    return tuple(
        AxisSymmetry(axes, flips)
        for axes in _axis_orders(range(dim))
        for flips in _product((False, True), repeat=dim)
    )


PLANAR_SYMMETRIES: tuple[AxisSymmetry, ...] = _group(2)
CUBE_SYMMETRIES: tuple[AxisSymmetry, ...] = _group(3)
CUBE_ROTATIONS: tuple[AxisSymmetry, ...] = tuple(s for s in CUBE_SYMMETRIES if s.is_rotation)

PLANAR_IDENTITY = AxisSymmetry((0, 1), (False, False))
# i -> n+1-i with j fixed: mirrors the array left-right when the first
# index is drawn as the horizontal coordinate.
VERTICAL_REFLECTION = AxisSymmetry((0, 1), (True, False))
ROTATION_180 = AxisSymmetry((0, 1), (True, True))


def apply_planar(sym: AxisSymmetry, perm: Permutation) -> Permutation:
    """Image of a permutation array under a square symmetry."""
    n = perm.order
    values = [0] * n
    for cell in perm.cells():
        i, j = sym.apply_coords(cell, n)
        values[j - 1] = i
    return Permutation(tuple(values))


def apply_cube(sym: AxisSymmetry, cube: CostasCube) -> CostasCube:
    """Image of a permutation cube under a cube symmetry."""
    n = cube.order
    rows = [(0, 0)] * n
    for triple in cube.triples():
        i, j, k = sym.apply_coords(triple, n)
        rows[i - 1] = (j, k)
    return CostasCube(tuple(rows))


def canonical_array(perm: Permutation) -> Permutation:
    """Lexicographically least value sequence over the D4 orbit of perm."""
    return Permutation(min(apply_planar(s, perm).values for s in PLANAR_SYMMETRIES))


def array_class_size(perm: Permutation) -> int:
    """Size of the D4 orbit: 4 or 8 for order > 2 (4 iff a diagonal
    reflection fixes the array), the literal orbit size at orders <= 2."""
    return len({apply_planar(s, perm).values for s in PLANAR_SYMMETRIES})


def canonical_cube(cube: CostasCube) -> CostasCube:
    """Lexicographically least row list over the 48-element orbit of cube."""
    return CostasCube(min(apply_cube(s, cube).rows for s in CUBE_SYMMETRIES))


def cube_orbit(cube: CostasCube) -> list[CostasCube]:
    """The distinct images of cube under all 48 symmetries, sorted by rows."""
    return [CostasCube(rows) for rows in sorted({apply_cube(s, cube).rows for s in CUBE_SYMMETRIES})]


def projection_set(cube: CostasCube) -> set[Permutation]:
    """The distinct Costas arrays occurring as Projection A over the orbit.

    For a Costas cube of order > 2 the result is a union of D4 classes,
    so its size is a multiple of 4 and at most 24.  Reflections never
    enlarge the set (each is realized by some rotation).
    """
    if not is_costas_cube(cube):
        raise ValueError("projection_set requires a Costas cube")
    return {projections(apply_cube(s, cube)).a for s in CUBE_SYMMETRIES}
