"""Exhaustive generation of Costas arrays and Costas cubes.

Arrays are generated by column-by-column backtracking with incremental
difference-vector pruning.  Cubes of order n are generated by the
pair-join over a complete list of order-n Costas arrays: for every pair
(A, B) with A a class representative, build the unique permutation cube
with those projections and retain it when Projection C = A^-1 B is in
the list.  Cube equivalence absorbs the square symmetries acting on A,
so no class is lost; class counts come from canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import CostasCube, Permutation, is_costas
from .reference import COSTAS_ARRAY_TOTALS
from .symmetry import PLANAR_SYMMETRIES, apply_planar, canonical_array, canonical_cube, projection_set

DEFAULT_ORDER_LIMIT = 13


class EnumerationLimitError(ValueError):
    """Raised when an order exceeds the in-process enumeration limit."""

    def __init__(self, order: int, limit: int):
        super().__init__(
            f"order {order} exceeds the in-process enumeration limit {limit}; "
            "supply a complete Costas array database for this order instead"
        )
        self.order = order
        self.limit = limit


def enumerate_costas_arrays(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> list[Permutation]:
    """All Costas permutations of order n, in lexicographic order."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > limit:
        raise EnumerationLimitError(n, limit)
    out: list[Permutation] = []
    values = [0] * n
    # masks[d] has bit (diff + n) set when value difference diff has been
    # seen between columns at distance d
    masks = [0] * n

    def extend(col: int, free: int) -> None:
        if col == n:
            out.append(Permutation(tuple(values)))
            return
        avail = free
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            shifts = []
            ok = True
            for d in range(1, col + 1):
                s = values[col - d] - v + n
                if (masks[d] >> s) & 1:
                    ok = False
                    break
                shifts.append((d, 1 << s))
            if not ok:
                continue
            for d, b in shifts:
                masks[d] |= b
            values[col] = v
            extend(col + 1, free ^ bit)
            for d, b in shifts:
                masks[d] ^= b

    extend(0, (1 << (n + 1)) - 2)
    return out


def array_classes(arrays: Iterable[Permutation]) -> list[Permutation]:
    """One canonical representative per D4 class, sorted."""
    return [Permutation(v) for v in sorted({canonical_array(p).values for p in arrays})]


def enumerate_costas_classes(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> list[Permutation]:
    """Canonical representatives of the D4 classes of order-n Costas arrays."""
    return array_classes(enumerate_costas_arrays(n, limit))


def total_mismatch(n: int, count: int) -> str | None:
    """Why a D4-closed list of count order-n Costas arrays cannot be
    complete, or None if count is the published total (or none is known)."""
    expected = COSTAS_ARRAY_TOTALS.get(n)
    if expected is None or count == expected:
        return None
    return (f"array list holds {count} Costas arrays of order {n}, "
            f"but there are {expected}; it cannot be complete")


def _check_complete(arrays: Sequence[Permutation], n: int) -> list[int]:
    """Sanity checks for a claimed-complete list of order-n Costas arrays;
    returns the indices of the arrays that are least in their D4 orbit."""
    if not arrays:
        raise ValueError("empty array list")
    values = {p.values for p in arrays}
    if len(values) != len(arrays):
        raise ValueError("array list contains duplicates")
    for p in arrays:
        if p.order != n:
            raise ValueError(f"array {p} has order {p.order}, expected {n}")
        if not is_costas(p):
            raise ValueError(f"array {p} is not a Costas array")
    representatives = []
    for r, p in enumerate(arrays):
        images = [apply_planar(s, p).values for s in PLANAR_SYMMETRIES]
        if not values.issuperset(images):
            raise ValueError(
                f"array list is not closed under the square symmetries "
                f"(image of {p} missing); it cannot be complete"
            )
        if min(images) == p.values:
            representatives.append(r)
    mismatch = total_mismatch(n, len(arrays))
    if mismatch:
        raise ValueError(mismatch)
    return representatives


# (idx, inverses, table) of the running join, set in each pool worker.
_shared: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _share(*arrays: np.ndarray) -> None:
    global _shared
    _shared = arrays


def _scan(a_indices: list[int], shared=None) -> set[tuple[tuple[int, int], ...]]:
    """Canonical row lists of the Costas cubes whose Projection A is one of
    the given first arrays.  shared is (idx, inverses, table): the
    zero-based value matrix, its inverses, and its sorted byte rows."""
    idx, inverses, table = shared or _shared
    n = idx.shape[1]
    row = np.dtype((np.void, n))
    last = len(table) - 1
    found: set[tuple[tuple[int, int], ...]] = set()
    for a in a_indices:
        inv_a = inverses[a]
        # Projection C of the cube with projections (A, B) is A^-1 B.
        c_rows = inv_a[idx].view(row).ravel()
        loc = np.minimum(np.searchsorted(table, c_rows), last)
        hits = np.nonzero(table[loc] == c_rows)[0]
        ja = inv_a.tolist()
        for b in hits.tolist():
            rows = tuple(zip(ja, inverses[b].tolist()))
            found.add(canonical_cube(CostasCube(rows)).rows)
    return found


def _tables(arrays: Sequence[Permutation], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (idx, inverses, table) arrays that _scan reads."""
    matrix = np.array([p.values for p in arrays], dtype=np.uint8)
    return (
        (matrix - 1).astype(np.intp),
        np.array([p.inverse().values for p in arrays], dtype=np.uint8),
        np.sort(matrix.view(np.dtype((np.void, n))).ravel()),
    )


def _chunks(indices: list[int], parts: int) -> list[list[int]]:
    size = (len(indices) + parts - 1) // parts
    return [indices[t : t + size] for t in range(0, len(indices), size)]


def _join(n: int, arrays: Sequence[Permutation], representatives: list[int],
          threads: int) -> list[CostasCube]:
    """The pair-join with the given first arrays, over a checked list."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    shared = _tables(arrays, n)
    if threads == 1:
        found = _scan(representatives, shared)
    else:
        from multiprocessing import Pool

        found = set()
        with Pool(threads, initializer=_share, initargs=shared) as pool:
            for part in pool.map(_scan, _chunks(representatives, threads * 4)):
                found |= part
    return [CostasCube(rows) for rows in sorted(found)]


def enumerate_costas_cubes(
    n: int,
    arrays: Sequence[Permutation],
    *,
    threads: int = 1,
) -> list[CostasCube]:
    """One canonical representative per equivalence class of order-n
    Costas cubes, from the pair-join over the given complete array list.

    The first array of each pair ranges over the canonical class
    representatives only, which reaches every class because cube
    equivalence absorbs the square symmetries acting on Projection A.
    threads > 1 splits the scan over a process pool.
    """
    return _join(n, arrays, _check_complete(arrays, n), threads)


def projection_class_count(cubes: Iterable[CostasCube]) -> int:
    """Number of D4 classes of Costas arrays that occur as a projection
    of at least one of the given cubes (via their full orbits)."""
    classes: set[tuple[int, ...]] = set()
    for cube in cubes:
        for p in projection_set(cube):
            classes.add(canonical_array(p).values)
    return len(classes)


@dataclass(frozen=True)
class ClassReport:
    """Class counts for one order (cubes, projection arrays, all arrays)
    and one canonical representative per cube class."""

    order: int
    cube_classes: int
    projection_array_classes: int
    total_array_classes: int
    representatives: tuple[CostasCube, ...] = ()

    def __post_init__(self) -> None:
        if min(self.cube_classes, self.projection_array_classes, self.total_array_classes) < 0:
            raise ValueError("counts must be non-negative")
        if self.projection_array_classes > self.total_array_classes:
            raise ValueError("projection classes cannot exceed total classes")


def class_report(n: int, arrays: Sequence[Permutation], *, threads: int = 1) -> ClassReport:
    """The class report of order n from a complete list of order-n Costas
    arrays.  A complete list is closed under D4 and has no duplicates, so
    each array class has exactly one least member: the total number of
    array classes is the number of first arrays of the join."""
    representatives = _check_complete(arrays, n)
    cubes = _join(n, arrays, representatives, threads)
    return ClassReport(
        order=n,
        cube_classes=len(cubes),
        projection_array_classes=projection_class_count(cubes),
        total_array_classes=len(representatives),
        representatives=tuple(cubes),
    )


def table1(
    max_n: int,
    *,
    limit: int = DEFAULT_ORDER_LIMIT,
    arrays_by_order: Mapping[int, Sequence[Permutation]] | None = None,
    threads: int = 1,
) -> list[ClassReport]:
    """Class reports for orders 2..max_n.

    Orders present in arrays_by_order use the supplied complete array
    list (e.g. an ingested database); all others are enumerated
    in-process, subject to the order limit.
    """
    supplied = arrays_by_order or {}
    reports = []
    for n in range(2, max_n + 1):
        arrays = supplied[n] if n in supplied else enumerate_costas_arrays(n, limit)
        reports.append(class_report(n, arrays, threads=threads))
    return reports
