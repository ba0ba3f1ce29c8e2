"""Exhaustive generation of Costas arrays and Costas cubes.

Arrays are generated by one depth-first search over blocks of partial
arrays, from the block of every two-column prefix whose first value is
at most ceil(n/2); the complement v -> n+1-v supplies the rest.  One
numpy step extends every partial array of a block by one column, pruned
by one difference bitmask per column distance, and a grown block of more
than _BLOCK_ROWS rows is split into slices searched one after another,
so that the frontier's memory is bounded at every order.  Each step
looks one column ahead and keeps a partial array only when its next
column still has a free value, so that no value or mask row is built for
a partial array with no future.  A value v is bit v - 1 of a word and a
difference w - u is bit w - u + n - 1; words are int32 up to order 16
and int64 above, and value rows int8.

Cubes of order n are generated by the pair-join over a complete list of
order-n Costas arrays: for a pair (A, B), build the unique permutation
cube with those projections and retain it when Projection C = A^-1 B is
in the list.  Array classes are numbered by their least planar images,
the key by which array_classes counts them, and ordered so.  The cube
symmetries permute the three projection planes and act on each by the
square symmetries, so every cube class has a member whose Projection A
lies in the least class of its three projections, and moving A to the
first member of its class keeps that true.  So A ranges over the first
member of each class and B over the arrays of no lesser class.  The cube
symmetry (j_i, k_i) -> (j_i, n+1-k_i) keeps Projection A and reverses
Projections B and C, so with each hit (A, B) the join meets the hit
(A, rev B) of the same cube class: B and rev B lie in one array class, so
both or neither are of no lesser class than A.  For n >= 2 exactly one
of B and rev B has a first value less than its last, so B ranges over
the arrays whose first value is at most their last, which is half of
each class (at order 1 the one array is kept), and every cube class
still has a hit.  The scan indexes the list by a hashed key of each
whole row; C is looked up by its key, and compared in full only when
the key occurs.  Class counts come from canonical forms, and a hit in
the orbit of a class already found is not canonicalised again.  The
projection classes are counted from the hits: the classes of each hit's
rows A and B and of the row its lookup of C finds.  The arrays a cube's
orbit projects are the square images of its three projections, so any
one hit of a cube class gives that class's projection classes.  None of
this needs the list to be complete, only closed under the square
symmetries.

The array list reaches the join as one (N, n) value matrix, from
costas_values or files.parse_array_file.  The completeness check reads
duplicates from one sort of the list and classes from one sort of its
least images.  The square symmetries keep the Costas property, so once
every row is known to be a permutation of 1..n the Costas check runs on
one least image per class, and over the rows only to name the first
faulty array.  Permutations are built only to name a faulty array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import CostasCube, Permutation, distinct_rows, first_non_costas, value_matrix
from .reference import COSTAS_ARRAY_TOTALS
from .symmetry import _row_keys, first_of_each_class, least_image, planar_images

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


# A value v is bit v - 1 of a mask word and a difference w - u is bit
# w - u + n - 1, so the top bit in use is 2n - 2: below the sign bit of an
# int32 word up to order 16, and of an int64 word up to MAX_WORD_ORDER.
MAX_WORD_ORDER = 31


# A grown block of more rows than this is searched in slices of this many
# rows, so that the frontier and one step's temporaries stay a few MB at
# every order.
_BLOCK_ROWS = 1 << 12


def _prefix_search(n: int, prefixes: np.ndarray) -> np.ndarray:
    """The order-n Costas arrays that begin with a row of prefixes, an
    (m, k) matrix of first values with 2 <= k <= n, as the rows of an int8
    matrix: those of each prefix in lexicographic order, the prefixes in
    row order.  A prefix that repeats a value or a difference begins none.

    The search runs depth-first over blocks of partial arrays.  A block is
    held by column: one int8 row per value column, one mask row per column
    distance d, the free values of each partial array's next column, and
    its fixed word, the bits of its first two values.  One step (_grow)
    extends a whole block by one column; a grown block of more than
    _BLOCK_ROWS rows is split into slices, pushed in reverse order, so
    that the first is searched to the end first and the output stays in
    order.

    The mask of distance d has bit w - u + n - 1 for the values u, w of
    each pair of columns d apart, and bit n - 1, the difference 0: shifted
    right by n - u, for the value u d columns before the next one, it holds
    u at bit u - 1 and each candidate w that would repeat a difference at
    bit w - 1.  The fixed word blocks the first two values, which lie
    beyond the distances of the parent masks that _grow shifts.
    """
    values = np.array(prefixes, dtype=np.int8).T
    k = len(values)
    ok = np.ones(values.shape[1], dtype=bool)
    for d in range(1, k):
        diffs = np.sort(values[d:] - values[:-d], axis=0)
        ok &= (diffs != 0).all(axis=0) & (diffs[1:] != diffs[:-1]).all(axis=0)
    values = values[:, ok]
    if k == n:
        return values.T
    dtype = np.dtype(np.int32 if n <= 16 else np.int64)
    # Every shift operand is of the mask dtype, so that promotion is the
    # same under every numpy version.
    one = dtype.type(1)
    masks = np.empty((k - 1, values.shape[1]), dtype=dtype)
    for d in range(1, k):
        bits = one << (values[d:] - values[:-d]).astype(dtype) + (n - 1)
        masks[d - 1] = np.bitwise_or.reduce(bits, axis=0) | one << (n - 1)
    fixed = one << (values[0] - 1).astype(dtype) | one << (values[1] - 1).astype(dtype)
    blocked = fixed | np.bitwise_or.reduce(masks >> (n - values[:0:-1]).astype(dtype), axis=0)
    found = []
    stack = [(values, masks, fixed, ~blocked & ((one << n) - 1))]
    while stack:
        values, masks, fixed, free = stack.pop()
        if len(values) == n - 1:
            rows, cols = _free_values(n, free)
            found.append(np.vstack((values[:, rows], cols.astype(np.int8) + 1)).T)
            continue
        grown = _grow(n, values, masks, fixed, free)
        stack.extend(
            tuple(x[..., s : s + _BLOCK_ROWS] for x in grown)
            for s in reversed(range(0, len(grown[2]), _BLOCK_ROWS))
        )
    return np.concatenate(found) if found else np.empty((0, n), dtype=np.int8)


def _free_values(n: int, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, v - 1) for each value v of each row's free set, in row-major
    order, which keeps a block's children lexicographic."""
    # Bit v - 1 of a free set is column v - 1 of its row.
    little = free.dtype.newbyteorder("<")
    grid = np.unpackbits(
        free.astype(little, copy=False).view(np.uint8).reshape(-1, free.dtype.itemsize),
        axis=1, count=n, bitorder="little",
    )
    return np.divmod(np.flatnonzero(grid.view(bool)), n)


def _grow(
    n: int, values: np.ndarray, masks: np.ndarray, fixed: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of _prefix_search: the block of the children, one column
    longer, of a block of partial arrays, as (values, masks, fixed, free).

    A child is kept only when its own next column still has a free value.
    That column's blocked set has two parts.  One is per parent: the fixed
    word and the parent's masks of distance 2 and up, each shifted by the
    value one column later.  The other is per child: its new distance-1
    mask, shifted by its value, since the bits a child adds to its longer
    distances, so shifted, are exactly its parent's distance-1 mask
    shifted by its value.  Only the kept children get value and mask rows.
    The temporaries are formed in place, as they set the search's peak
    memory.
    """
    k = len(values)
    dtype = masks.dtype
    one, top, full = (dtype.type(x) for x in (1, 1 << (n - 1), (1 << n) - 1))
    rows, cols = _free_values(n, free)
    v = cols.astype(dtype)
    v += 1
    shifts = (n - values[k - 1 : 1 : -1]).astype(dtype)
    ahead = fixed | np.bitwise_or.reduce(masks[1:] >> shifts, axis=0)
    blocked = np.subtract(v, values[k - 1, rows], dtype=dtype)
    blocked += n - 1
    np.left_shift(one, blocked, out=blocked)
    blocked |= masks[0, rows]
    blocked >>= n - v
    blocked |= ahead[rows]
    free = np.bitwise_and(~blocked, full, out=blocked)
    (keep,) = np.nonzero(free)
    rows, v, free = rows[keep], v[keep], free[keep]
    grown = np.empty((k + 1, len(rows)), dtype=np.int8)
    np.take(values, rows, axis=1, out=grown[:k])
    grown[k] = v
    values = grown
    grown = np.empty((k, len(rows)), dtype=dtype)
    np.take(masks, rows, axis=1, out=grown[:-1])
    grown[-1] = top
    bits = np.subtract(v, values[k - 1 :: -1], dtype=dtype)
    bits += n - 1
    np.left_shift(one, bits, out=bits)
    grown |= bits
    return values, grown, fixed[rows], free


def costas_values(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> np.ndarray:
    """All Costas permutations of order n as the rows of an (N, n) value
    matrix, in lexicographic order.

    Orders above limit raise EnumerationLimitError, and orders above
    MAX_WORD_ORDER a ValueError, before any search starts."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > limit:
        raise EnumerationLimitError(n, limit)
    if n > MAX_WORD_ORDER:
        raise ValueError(
            f"order {n} needs difference-mask bits up to {2 * n - 2}; the enumerator "
            f"keeps them in one 64-bit word for orders up to {MAX_WORD_ORDER}"
        )
    dtype = np.min_scalar_type(n)
    if n == 1:
        return np.ones((1, 1), dtype=dtype)
    # Only first values up to ceil(n/2) are searched.  The complement
    # v -> n+1-v maps the arrays that begin with n+1-a onto those that begin
    # with a, in reversed order.
    half = (n + 1) // 2
    prefixes = [(a, b) for a in range(1, half + 1) for b in range(1, n + 1) if b != a]
    low = _prefix_search(n, np.array(prefixes))
    cut = np.searchsorted(low[:, 0], n // 2, side="right")
    return np.concatenate((low, n + 1 - low[:cut][::-1])).astype(dtype)


def enumerate_costas_arrays(n: int, limit: int = DEFAULT_ORDER_LIMIT) -> list[Permutation]:
    """All Costas permutations of order n, in lexicographic order; see
    costas_values."""
    return [Permutation(tuple(v)) for v in costas_values(n, limit).tolist()]


def array_classes(arrays: Iterable[Permutation]) -> list[Permutation]:
    """One canonical representative per D4 class of the given arrays (all
    of one order), sorted."""
    values = value_matrix(list(arrays))
    if not len(values):
        return []
    orders = np.count_nonzero(values, axis=1)
    odd = orders[orders != orders[0]]
    if len(odd):
        raise ValueError(
            f"arrays of orders {orders[0]} and {odd[0]} mixed; "
            "the images of a list are taken within one order"
        )
    values = least_image(planar_images(values))
    return [Permutation(tuple(v)) for v in distinct_rows(values).tolist()]


def total_mismatch(n: int, count: int) -> str | None:
    """Why a D4-closed list of count order-n Costas arrays cannot be
    complete, or None if count is the published total (or none is known)."""
    expected = COSTAS_ARRAY_TOTALS.get(n)
    if expected is None or count == expected:
        return None
    return (f"array list holds {count} Costas arrays of order {n}, "
            f"but there are {expected}; it cannot be complete")


# A table of N rows is keyed into R slots, R the least power of two with
# R >= _KEY_SPREAD * N, so that about one absent row in _KEY_SPREAD finds
# its key in use.
_KEY_SPREAD = 64


class _RowIndex:
    """Exact membership in a table of distinct zero-based value rows of
    order n.

    A row's key is (row . w) mod R for fixed pseudo-random weights w_j < R,
    with R the least power of two with R >= _KEY_SPREAD * N.  The index
    holds the table rows grouped by key (a stable sort; row i of the
    grouped table is row order[i] of the given one), a dense bool table
    of the keys that occur, the sorted distinct keys and each key's range
    of grouped rows.
    A row is in the table when its key occurs and it equals one row of
    that key's range in full.
    """

    def __init__(self, table: np.ndarray):
        count, n = table.shape
        bits = (_KEY_SPREAD * count - 1).bit_length()
        # Float products of value rows and weights are exact while every
        # sum row . w, below n (n-1) R, stays below 2^53.
        if n * (n - 1) << bits >= 1 << 53:
            raise ValueError(
                f"row keys of order {n} over {1 << bits} slots reach 2^53; "
                "float row products would not be exact"
            )
        self.mask = (1 << bits) - 1
        # Seeded weights from the random module (importing numpy.random
        # would add about 6 MB to a join's peak memory), drawn with
        # repetition since n may exceed R.
        self.weights = np.array(random.Random(0).choices(range(1 << bits), k=n), dtype=np.int64)
        keys = self.keys(table)
        self.order = np.argsort(keys, kind="stable")
        self.table = table[self.order]
        self.distinct, starts = np.unique(keys[self.order], return_index=True)
        self.starts = np.append(starts, count)
        self.occurs = np.zeros(1 << bits, dtype=bool)
        self.occurs[self.distinct] = True

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """The keys of the rows of an (R, n) value matrix."""
        return (rows.astype(np.int64) @ self.weights) & self.mask

    def find(self, rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The position in the given table of each row of an (R, n) value
        matrix, or -1 where the row is absent; keys are the rows' keys."""
        loc = np.full(len(rows), -1, dtype=np.intp)
        (live,) = np.nonzero(self.occurs[keys])
        rank = np.searchsorted(self.distinct, keys[live])
        at, end = self.starts[rank], self.starts[rank + 1]
        # Each pass compares every unresolved row with the next row of its
        # range: most ranges hold a single row.
        while len(live):
            same = (self.table[at] == rows[live]).all(axis=1)
            loc[live[same]] = self.order[at[same]]
            at += 1
            more = ~same & (at < end)
            live, at, end = live[more], at[more], end[more]
        return loc


def _as_permutation(row: np.ndarray) -> Permutation:
    """The array of one row of a value_matrix, for messages."""
    return Permutation(tuple(v for v in row.tolist() if v))


def _check_complete(values: np.ndarray, n: int) -> np.ndarray:
    """Sanity checks for a claimed-complete list of order-n Costas arrays,
    given as a value matrix (a value_matrix, if of mixed orders); returns
    each row's class, the classes numbered in the order of their least
    planar images.

    The Costas property is kept by the square symmetries, so a
    permutation is Costas exactly when its least image is: the check runs
    on one least image per class, and over the rows only to name the
    first faulty one.  A list with a row of the wrong order is checked
    row by row up to that row."""
    if not len(values):
        raise ValueError("empty array list")
    if len(distinct_rows(values)) < len(values):
        raise ValueError("array list contains duplicates")
    wrong_order = np.count_nonzero(values, axis=1) != n
    if wrong_order.any():
        # The Costas check covers the arrays before the first one of the
        # wrong order, so that the first faulty array is the one named.
        wrong = int(np.argmax(wrong_order))
        _check_costas(values[:wrong, :n])
        p = _as_permutation(values[wrong])
        raise ValueError(f"array {p} has order {p.order}, expected {n}")
    # Only for permutations is a row Costas exactly when its least image
    # is.  Every row has n nonzero values, so a wider row is none.
    bijective = (np.sort(values, axis=1) == np.arange(1, values.shape[1] + 1)).all(axis=1)
    if not bijective.all():
        row = values[np.argmin(bijective)].tolist()
        raise ValueError(f"array ({','.join(map(str, row))}) is not a permutation of 1..{n}")
    images = planar_images(values)
    least = least_image(images)
    _, firsts, classes, members = np.unique(
        _row_keys(least), return_index=True, return_inverse=True, return_counts=True
    )
    if first_non_costas(least[firsts]) is not None:
        _check_costas(values)
    # The rows are distinct, so a row's class is whole when its members
    # are as many as its orbit: 8 over the number of its images equal to it.
    short = members[classes] * (images == values).all(axis=2).sum(axis=0) != 8
    if short.any():
        raise ValueError(
            f"array list is not closed under the square symmetries (image of "
            f"{_as_permutation(values[np.argmax(short)])} missing); it cannot be complete"
        )
    mismatch = total_mismatch(n, len(values))
    if mismatch:
        raise ValueError(mismatch)
    return classes


def _check_costas(values: np.ndarray) -> None:
    """Raise naming the first row of a value matrix that is not a Costas
    array, if any."""
    bad = first_non_costas(values)
    if bad is not None:
        raise ValueError(f"array {_as_permutation(values[bad])} is not a Costas array")


# First arrays per block meet about this many second arrays, so that the
# block's key matrix stays a few MB.
_BLOCK_PAIRS = 1 << 15


def _scan(values: np.ndarray, classes: np.ndarray) -> tuple[list[CostasCube], int]:
    """Canonical representatives, sorted, of the classes of the Costas
    cubes whose Projection A is the first member of its class and whose
    Projection B is of no lesser class and has a first value at most its
    last, from a list closed under the square symmetries (an (N, n) value
    matrix) and each row's class, and the number of array classes among
    those cubes' projections."""
    table = values - 1
    index = _RowIndex(table)
    # In class order each class's first member comes first, so the arrays
    # of no lesser class than a first array are the list from it on.
    by_class = np.argsort(classes, kind="stable")
    ordered = classes[by_class]
    (firsts,) = np.nonzero(np.diff(ordered, prepend=-1))
    idx = table[by_class]
    n = idx.shape[1]
    inverses = np.argsort(idx, axis=1).astype(idx.dtype)
    # An array and its reversal are of one class: the second arrays, in
    # class order, are those whose first value is at most their last, and
    # those from a first array on begin at its position among them.
    (seconds,) = np.nonzero(idx[:, 0] <= idx[:, -1])
    starts = np.searchsorted(seconds, firsts)
    second_rows = idx[seconds]
    # The key of A^-1 B is z @ weights[b] mod R for the zero-based inverse
    # z of A, and the float product is exact.
    weights = index.weights.astype(float)[inverses[seconds]]
    # The hit cubes of every block, as rows j_1, k_1, ..., j_n, k_n, and
    # the classes of their projections A, B and C.
    hits, projected = [], []
    start = 0
    while start < len(firsts):
        lo = starts[start]
        step = max(1, _BLOCK_PAIRS // (len(seconds) - lo))
        block, block_starts = firsts[start : start + step], starts[start : start + step]
        start += step
        z = inverses[block]
        # Projection C of the cube with projections (A, B) is A^-1 B: its
        # key is linear in A^-1, and only pairs whose key occurs are
        # compared in full.
        keys = (z @ weights[lo:].T).astype(np.int64)
        keys &= index.mask
        first, second = np.nonzero(index.occurs[keys])
        keys = keys[first, second]
        second += lo
        # The block's later first arrays keep only the second arrays from
        # their own position on.
        keep = second >= block_starts[first]
        first, second, keys = first[keep], second[keep], keys[keep]
        c_rows = z[first[:, None], second_rows[second]]
        c_at = index.find(c_rows, keys)
        hit = c_at >= 0
        a_at, b_at = block[first[hit]], seconds[second[hit]]
        hits.append(np.stack((inverses[a_at], inverses[b_at]), axis=2).reshape(-1, 2 * n))
        projected.append(np.concatenate((ordered[a_at], ordered[b_at], classes[c_at[hit]])))
    cubes = (cube for _, cube in first_of_each_class(np.concatenate(hits) + 1))
    return sorted(cubes, key=lambda cube: cube.rows), len(np.unique(np.concatenate(projected)))


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


def class_report(n: int, values: np.ndarray) -> ClassReport:
    """The class report of order n from a complete list of order-n Costas
    arrays, given as a value matrix, with one canonical representative per
    cube class, from the pair-join; see the module docstring for why the
    join reaches every class.  The total number of array classes is the
    number of classes the completeness check numbers."""
    classes = _check_complete(values, n)
    cubes, projection_classes = _scan(values, classes)
    return ClassReport(
        order=n,
        cube_classes=len(cubes),
        projection_array_classes=projection_classes,
        total_array_classes=int(classes.max()) + 1,
        representatives=tuple(cubes),
    )


def table1(max_n: int) -> list[ClassReport]:
    """Class reports for orders 2..max_n, each from the Costas arrays
    enumerated in-process; an order above the limit raises before any
    search starts."""
    if max_n < 2:
        raise ValueError(f"max order {max_n} is below 2, the least order Table 1 lists")
    if max_n > DEFAULT_ORDER_LIMIT:
        raise EnumerationLimitError(max_n, DEFAULT_ORDER_LIMIT)
    return [class_report(n, costas_values(n)) for n in range(2, max_n + 1)]
