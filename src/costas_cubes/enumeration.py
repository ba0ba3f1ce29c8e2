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

from .core import CostasCube, Permutation, first_non_costas
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


# A table of N rows of order n is indexed on prefixes of the least length
# m with n^m >= _PREFIX_SPREAD * N, so that most absent rows fail on the
# prefix alone and a prefix's range holds few rows.
_PREFIX_SPREAD = 16


class _PrefixIndex:
    """Exact membership in a sorted table of distinct zero-based value
    rows of order n.

    A row's prefix is its first m values, packed base n into the integer
    key sum(row[j] * n^(m-1-j)), which keeps the table's order; m is the
    least length with n^m >= _PREFIX_SPREAD * N (at most n).  The index
    holds a dense bool table of the keys that occur, the sorted distinct
    keys and each key's range of table rows.  A row is in the table when
    its key occurs and it equals one row of that key's range in full.
    """

    def __init__(self, table: np.ndarray):
        count, n = table.shape
        m = 1
        while m < n and n**m < _PREFIX_SPREAD * count:
            m += 1
        self.table = table
        self.weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.prefixes, starts = np.unique(self.keys(table), return_index=True)
        self.starts = np.append(starts, count)
        self.occurs = np.zeros(n**m, dtype=bool)
        self.occurs[self.prefixes] = True

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """The prefix keys of the rows of an (R, n) value matrix."""
        return rows[:, : len(self.weights)].astype(np.int64) @ self.weights

    def pair_weights(self, inverses: np.ndarray) -> np.ndarray:
        """The (N, n) float matrix M with M[b, v] = w[B^-1(v)], where w is
        the key weight of a column (0 beyond the prefix) and inverses holds
        the zero-based B^-1 of every row.  The key of A^-1 B is z @ M[b]
        for the zero-based inverse z of A: keys stay below n^m < 2^53, so
        a float product is exact."""
        padded = np.zeros(inverses.shape[1])
        padded[: len(self.weights)] = self.weights
        return padded[inverses]

    def find(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The table position of each row of an (R, n) value matrix, or -1
        where the row is absent; keys are the rows' prefix keys."""
        loc = np.full(len(rows), -1, dtype=np.intp)
        (live,) = np.nonzero(self.occurs[keys])
        rank = np.searchsorted(self.prefixes, keys[live])
        at, end = self.starts[rank], self.starts[rank + 1]
        # Each pass compares every unresolved row with the next row of its
        # range: most ranges hold a single row.
        while len(live):
            same = (self.table[at] == rows[live]).all(axis=1)
            loc[live[same]] = at[same]
            at += 1
            more = ~same & (at < end)
            live, at, end = live[more], at[more], end[more]
        return loc


# (idx, inverses, pair_weights, index) of one join: the zero-based value
# matrix and the one-based inverses, in list order, the weights whose
# product with a zero-based inverse gives prefix keys, and the index of
# the sorted value rows.
_Shared = tuple[np.ndarray, np.ndarray, np.ndarray, _PrefixIndex]


def _check_complete(arrays: Sequence[Permutation], n: int) -> tuple[list[int], _Shared]:
    """Sanity checks for a claimed-complete list of order-n Costas arrays;
    returns the indices of the arrays that are least in their D4 orbit,
    and the arrays that _scan reads."""
    if not arrays:
        raise ValueError("empty array list")
    if len({p.values for p in arrays}) != len(arrays):
        raise ValueError("array list contains duplicates")
    # The Costas check covers the arrays before the first one of the wrong
    # order, so that the first faulty array is the one named.
    wrong = next((i for i, p in enumerate(arrays) if p.order != n), len(arrays))
    values = np.array([p.values for p in arrays[:wrong]], dtype=np.min_scalar_type(n)).reshape(wrong, n)
    bad = first_non_costas(values)
    if bad is not None:
        raise ValueError(f"array {arrays[bad]} is not a Costas array")
    if wrong < len(arrays):
        p = arrays[wrong]
        raise ValueError(f"array {p} has order {p.order}, expected {n}")
    idx = values - 1
    order = np.lexsort(idx.T[::-1])
    index = _PrefixIndex(idx[order])
    # An array is least in its orbit when none of its images sits before
    # it in the sorted table.
    own = np.empty(len(order), dtype=np.intp)
    own[order] = np.arange(len(order))
    least = own
    closed = np.ones(len(arrays), dtype=bool)
    for image in planar_images(arrays):
        image -= 1
        loc = index.find(image, index.keys(image))
        closed &= loc >= 0
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
    inverses = np.argsort(idx, axis=1).astype(idx.dtype)
    return representatives, (idx, inverses + 1, index.pair_weights(inverses), index)


# The arrays of the running join, set in each pool worker.
_shared: _Shared | None = None


def _share(*shared) -> None:
    global _shared
    _shared = shared


# First arrays per block hold about this many pairs, so that the block's
# key matrix stays a few MB.
_BLOCK_PAIRS = 1 << 15


def _scan(a_indices: list[int], shared: _Shared | None = None) -> set[tuple[tuple[int, int], ...]]:
    """Canonical row lists of the Costas cubes whose Projection A is one of
    the given first arrays."""
    idx, inverses, pair_weights, index = shared or _shared
    found: set[tuple[tuple[int, int], ...]] = set()
    # Every image of every class found so far, as the bytes of its j
    # sequence and then its k sequence: a hit among them needs no
    # canonical form.
    seen: set[bytes] = set()
    step = max(1, _BLOCK_PAIRS // len(idx))
    for start in range(0, len(a_indices), step):
        block = np.array(a_indices[start : start + step], dtype=np.intp)
        z = inverses[block] - 1
        # Projection C of the cube with projections (A, B) is A^-1 B: its
        # prefix key is linear in A^-1, and only pairs whose key occurs
        # are compared in full.
        keys = (z @ pair_weights.T).astype(np.int64)
        first, second = np.nonzero(index.occurs[keys])
        c_rows = z[first[:, None], idx[second]]
        hit = index.find(c_rows, keys[first, second]) >= 0
        for a, b in zip(block[first[hit]].tolist(), second[hit].tolist()):
            if inverses[a].tobytes() + inverses[b].tobytes() not in seen:
                cube = CostasCube(tuple(zip(inverses[a].tolist(), inverses[b].tolist())))
                found.add(canonical_cube(cube).rows)
                images = cube_images(cube)
                images = np.hstack((images[:, 0::2], images[:, 1::2])).astype(inverses.dtype)
                seen.update(map(bytes, images))
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
