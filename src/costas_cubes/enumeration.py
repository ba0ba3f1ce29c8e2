"""Exhaustive generation of Costas arrays and Costas cubes.

Arrays are generated breadth-first: from each two-column prefix, one
numpy step per column extends every partial array of the frontier,
pruned by one difference bitmask per column distance.  Only first values
up to ceil(n/2) are searched; the complement v -> n+1-v supplies the
rest.

Cubes of order n are generated by the pair-join over a complete list of
order-n Costas arrays: for every pair (A, B) with A a class
representative, build the unique permutation cube with those projections
and retain it when Projection C = A^-1 B is in the list.  Cube
equivalence absorbs the square symmetries acting on A, so no class is
lost; class counts come from canonical forms, and a hit in the orbit of
a class already found is not canonicalised again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import CostasCube, Permutation, is_costas
from .reference import COSTAS_ARRAY_TOTALS
from .symmetry import (
    canonical_cube,
    cube_images,
    least_image,
    planar_images,
    projection_set,
)

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


# The difference masks keep bits 1..2n-1 of one int64 word, below its sign
# bit, and the free candidates are unpacked from 32 bits.
MAX_WORD_ORDER = 31


def _prefix_search(n: int, a: int, b: int) -> np.ndarray:
    """The order-n Costas arrays that begin with the values a, b, as the
    rows of an (m, n) int matrix in lexicographic order.

    Each step extends the whole frontier by one column.  A row carries its
    values, its used values (bit n - v for value v) and one difference
    mask per column distance d (bit values[c - d] - values[c] + n for the
    columns c - d and c).
    """
    full = (1 << n) - 1
    values = np.array([[a, b]], dtype=np.int64)
    used = np.array([(1 << (n - a)) | (1 << (n - b))], dtype=np.int64)
    masks = np.array([[1 << (a - b + n)]], dtype=np.int64)
    for k in range(2, n):
        # The mask of distance d, shifted right by the value d columns back,
        # holds the bit of candidate v at n - v: one OR over the distances
        # blocks every candidate that would repeat a difference.
        blocked = used | np.bitwise_or.reduce(masks >> values[:, :-k:-1], axis=1)
        grid = np.unpackbits((~blocked & full).astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
        # Row-major (row, candidate) order keeps the frontier lexicographic.
        rows, cols = np.divmod(np.flatnonzero(grid[:, 32 - n :]), n)
        v = cols + 1
        grown = np.empty((len(rows), k + 1), dtype=np.int64)
        grown[:, :k] = values[rows]
        grown[:, k] = v
        values = grown
        used = used[rows] | (1 << (n - v))
        bits = 1 << (values[:, k - 1 :: -1] - v[:, None] + n)
        bits[:, :-1] |= masks[rows]
        masks = bits
    return values


def enumerate_costas_arrays(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> list[Permutation]:
    """All Costas permutations of order n, in lexicographic order.

    Orders above limit raise EnumerationLimitError, and orders above
    MAX_WORD_ORDER a ValueError, before any search starts."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > limit:
        raise EnumerationLimitError(n, limit)
    if n > MAX_WORD_ORDER:
        raise ValueError(
            f"order {n} needs difference-mask bits up to {2 * n - 1}, beyond one "
            f"64-bit word; the enumerator handles orders up to {MAX_WORD_ORDER}"
        )
    if n == 1:
        return [Permutation((1,))]
    half = (n + 1) // 2
    groups = [
        np.concatenate([_prefix_search(n, a, b) for b in range(1, n + 1) if b != a])
        for a in range(1, half + 1)
    ]
    # The complement v -> n+1-v maps the arrays that begin with n+1-a onto
    # those that begin with a, in reversed order.
    groups += [n + 1 - groups[n - a][::-1] for a in range(half + 1, n + 1)]
    return [Permutation(tuple(v)) for group in groups for v in group.tolist()]


def array_classes(arrays: Iterable[Permutation]) -> list[Permutation]:
    """One canonical representative per D4 class of the given arrays (all
    of one order), sorted."""
    arrays = list(arrays)
    if not arrays:
        return []
    least = least_image(planar_images(arrays))
    least = least[np.lexsort(least.T[::-1])]
    distinct = np.concatenate(([True], (least[1:] != least[:-1]).any(axis=1)))
    return [Permutation(tuple(v)) for v in least[distinct].tolist()]


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


# (idx, inverses, table) of one join: the zero-based value matrix, its
# inverses, and its sorted byte rows.
_Shared = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_complete(arrays: Sequence[Permutation], n: int) -> tuple[list[int], _Shared]:
    """Sanity checks for a claimed-complete list of order-n Costas arrays;
    returns the indices of the arrays that are least in their D4 orbit,
    and the arrays that _scan reads."""
    if not arrays:
        raise ValueError("empty array list")
    if len({p.values for p in arrays}) != len(arrays):
        raise ValueError("array list contains duplicates")
    for p in arrays:
        if p.order != n:
            raise ValueError(f"array {p} has order {p.order}, expected {n}")
        if not is_costas(p):
            raise ValueError(f"array {p} is not a Costas array")
    values = np.array([p.values for p in arrays], dtype=np.min_scalar_type(n))
    row = np.dtype((np.void, values.itemsize * n))
    table = np.sort(values.view(row).ravel())
    last = len(table) - 1
    # An array is least in its orbit when none of its images sits before
    # it in the sorted table.
    own = least = np.searchsorted(table, values.view(row).ravel())
    closed = np.ones(len(arrays), dtype=bool)
    for image in planar_images(arrays):
        rows = image.view(row).ravel()
        loc = np.minimum(np.searchsorted(table, rows), last)
        closed &= table[loc] == rows
        least = np.minimum(least, loc)
    if not closed.all():
        raise ValueError(
            f"array list is not closed under the square symmetries "
            f"(image of {arrays[int(np.argmin(closed))]} missing); it cannot be complete"
        )
    mismatch = total_mismatch(n, len(arrays))
    if mismatch:
        raise ValueError(mismatch)
    representatives = np.nonzero(least == own)[0].tolist()
    inverses = np.argsort(values, axis=1).astype(values.dtype) + 1
    return representatives, ((values - 1).astype(np.intp), inverses, table)


# The arrays of the running join, set in each pool worker.
_shared: _Shared | None = None


def _share(*arrays: np.ndarray) -> None:
    global _shared
    _shared = arrays


def _scan(a_indices: list[int], shared: _Shared | None = None) -> set[tuple[tuple[int, int], ...]]:
    """Canonical row lists of the Costas cubes whose Projection A is one of
    the given first arrays."""
    idx, inverses, table = shared or _shared
    row = np.dtype((np.void, inverses.itemsize * inverses.shape[1]))
    last = len(table) - 1
    found: set[tuple[tuple[int, int], ...]] = set()
    # Every image of every class found so far, as the bytes of its j
    # sequence and then its k sequence: a hit among them needs no
    # canonical form.
    seen: set[bytes] = set()
    for a in a_indices:
        inv_a = inverses[a]
        # Projection C of the cube with projections (A, B) is A^-1 B.
        c_rows = inv_a[idx].view(row).ravel()
        loc = np.minimum(np.searchsorted(table, c_rows), last)
        hits = np.nonzero(table[loc] == c_rows)[0]
        j_key = inv_a.tobytes()
        for b in hits.tolist():
            if j_key + inverses[b].tobytes() not in seen:
                cube = CostasCube(tuple(zip(inv_a.tolist(), inverses[b].tolist())))
                found.add(canonical_cube(cube).rows)
                images = cube_images(cube)
                keys = np.hstack((images[:, 0::2], images[:, 1::2])).astype(inverses.dtype)
                seen.update(map(bytes, keys))
    return found


def _chunks(indices: list[int], parts: int) -> list[list[int]]:
    size = (len(indices) + parts - 1) // parts
    return [indices[t : t + size] for t in range(0, len(indices), size)]


def _join(representatives: list[int], shared: _Shared, threads: int) -> list[CostasCube]:
    """The pair-join with the given first arrays, over a checked list."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
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
    return _join(*_check_complete(arrays, n), threads)


def projection_class_count(cubes: Iterable[CostasCube]) -> int:
    """Number of D4 classes of Costas arrays that occur as a projection
    of at least one of the given cubes (via their full orbits)."""
    return len(array_classes(p for cube in cubes for p in projection_set(cube)))


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
    representatives, shared = _check_complete(arrays, n)
    cubes = _join(representatives, shared, threads)
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
    if max_n < 2:
        raise ValueError(f"max order {max_n} is below 2, the least order Table 1 lists")
    supplied = arrays_by_order or {}
    reports = []
    for n in range(2, max_n + 1):
        arrays = supplied[n] if n in supplied else enumerate_costas_arrays(n, limit)
        reports.append(class_report(n, arrays, threads=threads))
    return reports
