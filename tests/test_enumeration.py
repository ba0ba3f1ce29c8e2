import functools
import hashlib
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costas_cubes import enumeration, symmetry
from costas_cubes.cli import main
from costas_cubes.construct import default_field, g2, w1
from costas_cubes.core import (
    CostasCube,
    Permutation,
    _permutations,
    costas_violations,
    is_costas_cube,
)
from costas_cubes.enumeration import (
    MAX_WORD_ORDER,
    ClassReport,
    EnumerationLimitError,
    _RowIndex,
    _prepare,
    array_classes,
    class_report,
    costas_values,
    enumerate_costas_arrays,
    table1,
)
from costas_cubes.files import parse_array_file
from costas_cubes.reference import COSTAS_ARRAY_TOTALS, CUBE_CLASS_COUNTS
from costas_cubes.symmetry import PLANAR_SYMMETRIES, canonical_cube

from conftest import (
    array_class_size_oracle,
    costas_arrays,
    costas_cube_classes,
    costas_violation_oracle,
    cube_from_pair,
    image,
    least_image_oracle,
    order7_without_one_class,
    projection_class_count,
    projections_oracle,
    value_matrix,
)

# The join benchmark's input: the 4368 order-11 Costas arrays.
ORDER11_DATABASE = Path(__file__).parents[1] / "perfbench" / "data" / "costas_order11.txt"


def brute_force_costas(n):
    """Filter all n! permutations; checks none of the backtracking logic."""
    return [
        Permutation(vals)
        for vals in itertools.permutations(range(1, n + 1))
        if costas_violation_oracle(vals) == (0, 0)
    ]


@functools.cache
def backtrack_costas_arrays(n):
    """Oracle: depth-first backtracking, one column per recursion level,
    with the same incremental difference masks as the breadth-first
    search.  Cached: the breadth-first, prefix and block-path tests all
    read it for the same orders."""
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
    return tuple(out)


def corner_least(values):
    """Whether an array's first value is the least of its eight corner
    distances: sigma(1), sigma(n), c(1) and c(n), and n+1 minus each, for
    c(v) the column of value v.  These are the first values of its eight
    square images.  An array that begins with 1 must also have a second
    value no greater than its transpose's, c(2)."""
    n = len(values)
    column = {v: j for j, v in enumerate(values, start=1)}
    corners = (values[0], values[-1], column[1], column[n])
    least = values[0] == min(d for x in corners for d in (x, n + 1 - x))
    return least and (values[0] > 1 or values[1] <= column[2])


def test_breadth_first_matches_backtracking_oracle():
    """Content and order, for even and odd orders: the square images of
    the corner-least arrays, deduplicated and sorted."""
    for n in range(1, 11):
        assert tuple(enumerate_costas_arrays(n)) == backtrack_costas_arrays(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_search_keeps_the_least_image_of_every_class(monkeypatch, n):
    """The rows the search hands costas_values are all corner-least, and
    the least image of every D4 class is among them."""
    search, kept = enumeration._prefix_search, []

    def recorded(order, prefixes):
        kept.append(search(order, prefixes))
        return kept[-1]

    monkeypatch.setattr(enumeration, "_prefix_search", recorded)
    costas_values(n)
    rows = set(map(tuple, np.concatenate(kept).tolist()))
    assert all(corner_least(row) for row in rows)
    assert {least_image_oracle(p) for p in backtrack_costas_arrays(n)} <= rows


def test_corner_least_rows_of_order_11(monkeypatch):
    """719 corner-least arrays at order 11, none with first value 6 and
    none with first value 1 whose second value exceeds the column of
    value 2.  The search takes 84 steps, which pins the merging of small
    deep blocks (121 steps without it), and keeps as many partial arrays
    of each length 3..10 as a search with a mask for every distance."""
    grow, steps = enumeration._grow, []

    def counted(*args):
        steps.append(grow(*args))
        return steps[-1]

    monkeypatch.setattr(enumeration, "_grow", counted)
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 12) if a != b]
    found = enumeration._prefix_search(11, np.array(pairs))
    assert len(found) == 719
    assert not (found[:, 0] == 6).any()
    ones = found[found[:, 0] == 1]
    assert len(ones) and (ones[:, 1] <= np.argmax(ones == 2, axis=1) + 1).all()
    assert len(steps) == 84
    kept = dict.fromkeys(range(3, 11), 0)
    for values, *_, free in steps:
        kept[len(values)] += len(free)
    assert list(kept.values()) == [387, 2463, 12441, 45737, 90951, 73439, 18305, 719]


@pytest.mark.parametrize("n", range(2, 9))
def test_repeats_show_within_half_the_order(n):
    """The search keeps difference masks only to distance
    H = max(1, floor((n - 1) / 2)): over every permutation of order n, a
    row is flagged by costas_violations exactly when some difference
    repeats at a distance at most H, found here by comparing every pair of
    differences, and the rows left are the published total."""
    rows = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    reach = max(1, (n - 1) // 2)
    assert enumeration._mask_reach(n) == reach
    near = np.zeros(len(rows), dtype=bool)
    for d in range(1, reach + 1):
        diffs = rows[:, d:] - rows[:, :-d]
        equal = diffs[:, :, None] == diffs[:, None, :]
        near |= equal.sum(axis=(1, 2)) > diffs.shape[1]
    assert np.array_equal(costas_violations(rows).any(axis=1), near)
    assert np.count_nonzero(~near) == COSTAS_ARRAY_TOTALS[n]


@pytest.mark.parametrize("n", range(2, 11))
def test_prefix_search_matches_backtracking_oracle(n):
    """Every two-value prefix as a one-row prefix matrix, those that begin
    no array and those that repeat a value included, against the oracle's
    corner-least arrays: n = 2 takes no step, and for n = 3 the first step
    is the last.  All of them as one matrix give the same rows, in the
    order of the prefixes."""
    oracle = np.array([p.values for p in backtrack_costas_arrays(n) if corner_least(p.values)])
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    expected = []
    for a, b in pairs:
        found = enumeration._prefix_search(n, np.array([[a, b]]))
        assert found.dtype == np.int8 and found.shape[1] == n
        expected.append(oracle[(oracle[:, 0] == a) & (oracle[:, 1] == b)])
        np.testing.assert_array_equal(found, expected[-1])
    np.testing.assert_array_equal(enumeration._prefix_search(n, np.array(pairs)), np.concatenate(expected))


@pytest.mark.parametrize("n", range(5, 9))
def test_longer_prefixes_match_backtracking_oracle(n):
    """Every 3- and 4-value prefix, those that repeat a value or a
    difference included, as one prefix matrix per length, against the
    oracle's corner-least arrays: the rows found are those that begin
    with each prefix, the prefixes in row order."""
    oracle = np.array([p.values for p in backtrack_costas_arrays(n) if corner_least(p.values)])
    for k in (3, 4):
        prefixes = np.array(list(itertools.product(range(1, n + 1), repeat=k)))
        expected = [oracle[(oracle[:, :k] == prefix).all(axis=1)] for prefix in prefixes]
        found = enumeration._prefix_search(n, prefixes)
        assert found.dtype == np.int8 and found.shape[1] == n
        np.testing.assert_array_equal(found, np.concatenate(expected))


@pytest.mark.parametrize("block", [1, 5, 64, 1 << 20])
def test_block_path_matches_backtracking_oracle(monkeypatch, block):
    """With steps of up to 1, 5, 64 or 2^20 rows, the search still gives
    every array in order.  Blocks of 1 and 5 rows merge from 0 and 1 rows,
    so every step takes the deepest rows; 2^20 rows merge from more than
    any frontier up to order 10, so every step takes the shallowest.
    Prefixes as long as the order are returned as they are, less those
    that repeat a value or a difference and those that are not
    corner-least."""
    monkeypatch.setattr(enumeration, "_BLOCK_ROWS", block)
    for n in range(1, 11):
        oracle = [p.values for p in backtrack_costas_arrays(n)]
        assert [tuple(v) for v in costas_values(n).tolist()] == oracle
    # (2, 1) and (2, 3, 1) are Costas but not corner-least, and (1, 4, 2, 3)
    # is Costas but its transpose (1, 3, 4, 2) is less.
    for full, kept in (
        ([[1, 2], [2, 2], [2, 1]], [[1, 2]]),
        ([[1, 3, 2], [1, 2, 3], [2, 3, 1]], [[1, 3, 2]]),
        ([[1, 4, 2, 3], [1, 3, 4, 2], [1, 2, 3, 4]], [[1, 3, 4, 2]]),
    ):
        permutations = [row for row in full if sorted(row) == list(range(1, len(row) + 1))]
        oracle = [row for row in permutations if costas_violation_oracle(row) == (0, 0) and corner_least(row)]
        assert oracle == kept
        np.testing.assert_array_equal(enumeration._prefix_search(len(kept[0]), np.array(full)), kept)


@pytest.mark.parametrize(
    "seed",
    [
        w1(17, 3),  # order 16, the last with int32 masks
        g2(default_field(19), 2, 2),  # order 17, the first with int64 masks
        w1(23, 5),
        w1(31, 3),  # order 30
    ],
    ids=lambda seed: f"order{len(seed)}",
)
def test_prefix_search_completes_a_long_prefix(seed):
    """Seeded with all but the last four values of the least image of a
    constructed array, the search finds that image among the corner-least
    Costas arrays of that prefix."""
    n = len(seed)
    least = least_image_oracle(Permutation(seed))
    found = enumeration._prefix_search(n, np.array([least[: n - 4]]))
    assert found.dtype == np.int8 and found.shape[1] == n
    assert least in set(map(tuple, found.tolist()))
    assert (found[:, : n - 4] == least[: n - 4]).all()
    assert (np.sort(found, axis=1) == np.arange(1, n + 1)).all()
    assert not costas_violations(found).any()
    assert all(corner_least(row) for row in found.tolist())


def grow_oracle(n, values, free):
    """One step of the search, child by child: for each partial array (a
    column of values) and each value v of its free word in ascending
    order, the child that appends v, kept when its own next column has a
    free value, as (values, masks, used, free) lists.  The free sets are
    read from the definitions, every value not yet placed that repeats no
    difference at any distance, and from the corner-least window."""
    window = enumeration._corner_window(n, np.int64).tolist()
    kept = ([], [], [], [])

    def free_word(row):
        diffs = [{row[i + d] - row[i] for i in range(len(row) - d)} for d in range(len(row) + 1)]
        blocked = window[len(row) + 1][row[0]][row[1]]
        return sum(
            1 << (w - 1)
            for w in range(1, n + 1)
            if w not in row
            and not blocked >> (w - 1) & 1
            and all(w - row[-d] not in diffs[d] for d in range(1, len(row) + 1))
        )

    for parent, word in zip(values.T.tolist(), free.tolist()):
        assert word == free_word(parent)
        for v in range(1, n + 1):
            child = parent + [v]
            if not word >> (v - 1) & 1 or not (child_free := free_word(child)):
                continue
            masks = [
                1 << (n - 1) | functools.reduce(int.__or__, (1 << (w - u + n - 1) for u, w in zip(child, child[d:])))
                for d in range(1, min(len(parent), enumeration._mask_reach(n)) + 1)
            ]
            for part, x in zip(kept, (child, masks, sum(1 << (u - 1) for u in child), child_free)):
                part.append(x)
    return kept


def grow_inputs(monkeypatch, n, prefixes):
    """The arguments of every _grow call of one _prefix_search."""
    grow, calls = enumeration._grow, []

    def recorded(*args):
        calls.append(args)
        return grow(*args)

    monkeypatch.setattr(enumeration, "_grow", recorded)
    enumeration._prefix_search(n, np.array(prefixes))
    monkeypatch.setattr(enumeration, "_grow", grow)
    return calls


@pytest.mark.parametrize(
    "n, depth, part",
    [
        (11, 2, slice(None)),  # the first step: each child gains a mask
        (11, 3, slice(None)),
        (11, 6, slice(1000, 1400)),  # a column slice, as _Fifo.take hands one over
        (11, 9, slice(None)),  # the last step before the arrays are read out
        (17, 7, slice(None)),  # int64 words from here on
        (17, 10, slice(None)),  # past H = 8: no child gains a mask
        (17, 11, slice(100, 700)),
    ],
)
def test_grow_matches_a_per_child_oracle(monkeypatch, n, depth, part):
    """One _grow call on a real block (the first at its depth) gives the
    children that grow_oracle builds one by one, word for word and in the
    same order.  Every gather of _grow skips numpy's bounds check, so this
    is what shows that no index strays.  Order 11 runs from every
    two-value prefix; order 17 from the first six values of the least
    image of a constructed array."""
    if n == 11:
        prefixes = [(a, b) for a in range(1, 7) for b in range(1, 12) if a != b]
    else:
        prefixes = [least_image_oracle(Permutation(g2(default_field(19), 2, 2)))[:6]]
    window, values, masks, used, free = next(
        args[1:] for args in grow_inputs(monkeypatch, n, prefixes) if len(args[2]) == depth
    )
    values, masks, used, free = (x[..., part] for x in (values, masks, used, free))
    if part != slice(None):
        assert not values.flags.c_contiguous and len(free) == part.stop - part.start
    grown = enumeration._grow(n, window, values, masks, used, free)
    expected = grow_oracle(n, values, free)
    assert expected[0]
    dtype = np.dtype(np.int32 if n <= 16 else np.int64)
    for got, want, kind in zip(grown, expected, (np.int8, dtype, dtype, dtype)):
        assert got.dtype == kind
        np.testing.assert_array_equal(got, np.array(want, dtype=kind).T)


def test_word_size_guard_rejects_before_searching(monkeypatch):
    searched = []
    monkeypatch.setattr(enumeration, "_prefix_search", lambda *args: searched.append(args))
    for n in (40, MAX_WORD_ORDER + 1):
        with pytest.raises(ValueError, match=rf"order {n} .*64-bit word") as err:
            enumerate_costas_arrays(n, limit=40)
        assert not isinstance(err.value, EnumerationLimitError)
    assert searched == []


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (11, 4368, "c977639eb635da476714bdd93f134763fff0eb4c53e044ade06857f332dddf06"),
        (12, 7852, "2fdab762aa40a869115f284e86a02f024abcc322e903b377549882f12d44ee19"),
    ],
)
def test_costas_values_golden(n, count, digest):
    """The rows, their order and the dtype, byte for byte.  Every shift
    operand of the search has the mask dtype, so these hold under numpy's
    value-based casting (before 2.0) and under NEP 50 alike."""
    values = costas_values(n)
    assert values.shape == (count, n) and values.dtype == np.uint8
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def assert_same_permutations(got, want):
    """Element for element: equal, equally hashed, of type Permutation,
    with a tuple of Python ints as values."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert type(p) is Permutation and p == q and hash(p) == hash(q)
        assert type(p.values) is tuple and all(type(x) is int for x in p.values)


@pytest.mark.parametrize("n", range(1, 11))
def test_permutations_match_per_object_construction(n):
    values = costas_values(n)
    assert_same_permutations(_permutations(values), [Permutation(tuple(r)) for r in values.tolist()])


def test_array_classes_match_per_object_construction():
    want = sorted({least_image_oracle(p) for p in costas_arrays(9)})
    assert_same_permutations(array_classes(costas_arrays(9)), [Permutation(r) for r in want])


@pytest.mark.parametrize("bad", [(1, 1, 3), (0, 1, 2), (1, 2, 4)])
def test_permutations_refuse_as_permutation_does(bad):
    """The first row that is not a bijection on 1..n is named, in
    Permutation's own words."""
    with pytest.raises(ValueError) as refusal:
        Permutation(bad)
    values = np.array([[1, 2, 3], bad, [3, 3, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refusal.value))}$"):
        _permutations(values)
    with pytest.raises(ValueError, match="^permutation must have order >= 1$"):
        _permutations(np.zeros((2, 0), dtype=np.uint8))
    assert _permutations(np.zeros((0, 3), dtype=np.uint8)) == []


def test_backtracking_matches_brute_force():
    for n in range(1, 7):
        assert enumerate_costas_arrays(n) == brute_force_costas(n)


def test_enumeration_is_lexicographic():
    arrays = enumerate_costas_arrays(6)
    assert arrays == sorted(arrays, key=lambda p: p.values)


def test_enumeration_limit_error():
    with pytest.raises(EnumerationLimitError, match="database"):
        enumerate_costas_arrays(14)
    assert enumerate_costas_arrays(5, limit=5)
    with pytest.raises(ValueError):
        enumerate_costas_arrays(0)


def test_class_counts():
    assert len(array_classes(costas_arrays(5))) == 6
    assert len(array_classes(costas_arrays(6))) == 17
    assert len(array_classes(costas_arrays(7))) == 30


def test_raw_count_consistent_with_class_sizes():
    for n in (5, 6, 7):
        reps = array_classes(costas_arrays(n))
        assert sum(array_class_size_oracle(p) for p in reps) == len(costas_arrays(n))


def test_pair_join_class_counts():
    assert len(costas_cube_classes(4)) == 2
    assert len(costas_cube_classes(5)) == 13
    assert len(costas_cube_classes(6)) == 47


def test_pair_join_representatives_are_canonical_costas_cubes():
    for cube in costas_cube_classes(5):
        assert is_costas_cube(cube)
        assert canonical_cube(cube) == cube


def _dense_pair_join(n):
    """Independent oracle: expand class representatives to full orbits,
    then test Projection C of every ordered pair directly."""
    reps = array_classes(costas_arrays(n))
    arrays = sorted(
        {image(s, p).values for p in reps for s in PLANAR_SYMMETRIES}
    )
    found = set()
    for a_vals in arrays:
        for b_vals in arrays:
            cube = cube_from_pair("AB", Permutation(a_vals), Permutation(b_vals))
            if costas_violation_oracle(projections_oracle(cube)[2]) == (0, 0):
                found.add(canonical_cube(cube).rows)
    return sorted(found)


def test_pair_join_matches_dense_oracle():
    for n in range(2, 8):
        assert [c.rows for c in costas_cube_classes(n)] == _dense_pair_join(n)


def test_one_first_array_per_block(monkeypatch):
    """Blocks of one first array each, some of which hit nothing (orders
    4, 5, 7 and 8), give the same classes as the default blocks."""
    expected = {n: costas_cube_classes(n) for n in range(2, 9)}
    monkeypatch.setattr(enumeration, "_BLOCK_PAIRS", 1)
    for n, cubes in expected.items():
        assert class_report(n, costas_values(n)).representatives == cubes


def _row_index(values):
    """The _RowIndex of a list of distinct value rows, with the dict of
    its rows' bytes built here, one row at a time."""
    values = np.ascontiguousarray(values)
    return _RowIndex(values, {row.tobytes(): at for at, row in enumerate(values)})


@pytest.mark.parametrize("n", [5, 16, 22, 29])
def test_row_index_matches_a_dict_oracle(monkeypatch, n):
    """The row index of tables of distinct permutation rows, in groups of
    1 to 4 rows that share all but their last three values; hits, misses
    and near misses (the last two values swapped) against a dict of the
    table.  Every table row's key occurs, so the filter keeps every hit.
    At the join's key spread most absent rows fail the filter; at a
    spread of 1 many pass it, and the dict alone finds them absent."""
    rng = np.random.default_rng(n)
    rows = set()
    for _ in range(60):
        head = rng.permutation(n)
        for _ in range(rng.integers(1, 5)):
            rows.add(tuple(head[: n - 3]) + tuple(rng.permutation(head[n - 3 :])))
    table = np.array(sorted(rows), dtype=np.uint8)[rng.permutation(len(rows))] + 1
    near = table.copy()
    near[:, [-2, -1]] = near[:, [-1, -2]]
    misses = np.array([rng.permutation(n) for _ in range(200)], dtype=np.uint8) + 1
    queries = np.concatenate((table[rng.permutation(len(table))], near, misses))
    position = {row: at for at, row in enumerate(map(tuple, table.tolist()))}
    want = [position.get(tuple(q), -1) for q in queries.tolist()]
    assert any(w < 0 for w in want) and any(w >= 0 for w in want[len(table) :])
    for spread in (enumeration._KEY_SPREAD, 1):
        monkeypatch.setattr(enumeration, "_KEY_SPREAD", spread)
        index = _row_index(table)
        slots = index.mask + 1
        assert slots >= spread * len(table) > slots // 2
        assert (index.weights < slots).all()
        assert index.occurs[index.keys(table)].all()
        passed = index.occurs[index.keys(queries)]
        if spread == 1:
            assert any(p and w < 0 for p, w in zip(passed.tolist(), want))
        assert index.find(queries).tolist() == want


def test_row_index_takes_more_weights_than_key_slots():
    """An order-70 row needs more weights than a one-row table has key
    slots (64): the weights repeat, and the row is still found exactly."""
    welch70 = np.array([[pow(7, i, 71) for i in range(70)]], dtype=np.uint8)
    index = _row_index(welch70)
    assert len(index.weights) == 70 > index.mask + 1 == 64
    queries = np.concatenate((welch70, welch70[:, ::-1]))
    assert index.find(queries).tolist() == [0, -1]


def test_row_index_rejects_inexact_keys(monkeypatch):
    """Row keys reaching 2^31 would overflow the scan's int32 keys: the
    index refuses them before it allocates its key table.  One order-29
    row over R slots has keys below 29 * 28 * R: R = 2^21 is accepted and
    R = 2^22 refused."""
    table = np.array([np.arange(1, 30)], dtype=np.uint8)
    monkeypatch.setattr(enumeration, "_KEY_SPREAD", 1 << 21)
    assert _row_index(table).mask + 1 == 1 << 21
    for spread in (1 << 22, 1 << 44):
        monkeypatch.setattr(enumeration, "_KEY_SPREAD", spread)
        with pytest.raises(ValueError, match=r"2\^31"):
            _row_index(table)


def test_row_index_refuses_rows_of_another_dtype():
    """Rows are looked up by their bytes, so a row of another integer
    width would never match: find refuses it rather than miss it."""
    table = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.uint8)
    index = _row_index(table)
    assert index.find(table[::-1]).tolist() == [1, 0]
    for dtype in (np.uint16, np.int64, np.int8):
        with pytest.raises(TypeError, match="dtype"):
            index.find(table.astype(dtype))


@pytest.mark.parametrize("n", [0, -3])
def test_class_report_refuses_an_order_below_one(n):
    """The order is checked before any row is read."""
    with pytest.raises(ValueError, match=r"^order must be >= 1$"):
        class_report(n, None)


def test_class_report_does_not_depend_on_dtype_or_layout():
    """One list as uint8, uint16 and int64 rows, Fortran-ordered and with
    its rows reversed gives one report: the scan looks rows up by their
    bytes, always in the list's own dtype."""
    lists = {n: costas_values(n) for n in range(1, 11)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    for n, values in lists.items():
        expected = class_report(n, values)
        assert expected.cube_classes == CUBE_CLASS_COUNTS.get(n, 1)
        assert expected.representatives == costas_cube_classes(n)
        for dtype in (np.uint8, np.uint16, np.int64):
            given = values.astype(dtype)
            for variant in (given, np.asfortranarray(given), given[::-1]):
                assert class_report(n, variant) == expected, (n, dtype, variant.flags)


@pytest.mark.parametrize("n", [5, 11, 29])
def test_pair_weights_give_the_keys_of_a_inverse_b(n):
    """The key of A^-1 B is the product of the zero-based inverse of A
    with the weights gathered by the inverse of B, exact in float and
    below 2^31 as the scan's int32 keys need, masked to the key range;
    each such key occurs when A^-1 B is in the table, and find gives
    A^-1 B's position in the given table (the identity, for B = A)."""
    rng = np.random.default_rng(n)
    rows = {tuple(rng.permutation(n)) for _ in range(300)} | {tuple(range(n))}
    values = np.array(sorted(rows), dtype=np.uint8)[rng.permutation(len(rows))]
    position = {row: at for at, row in enumerate(map(tuple, values.tolist()))}
    index = _row_index(values + 1)
    inverses = np.argsort(values, axis=1).astype(np.uint8)
    products = inverses @ index.weights.astype(float)[inverses].T
    keys = products.astype(np.int32) & index.mask
    assert (products == np.rint(products)).all() and products.max() < 2**31
    for a in range(0, len(values), 37):
        c_rows = inverses[a][values]
        assert keys[a].tolist() == index.keys(c_rows + 1).tolist()
        want = [position.get(row, -1) for row in map(tuple, c_rows.tolist())]
        assert want[a] == position[tuple(range(n))]
        assert index.occurs[keys[a]][np.array(want) >= 0].all()
        assert index.find(c_rows + 1).tolist() == want


def _unrestricted_join(arrays):
    """Oracle: every array as Projection A against every array as
    Projection B, Projection C = A^-1 B looked up in a set of the row
    bytes of the list, and every hit canonicalised."""
    values = np.array([p.values for p in arrays], dtype=np.uint8)
    count, n = values.shape
    members = set(map(bytes, values))
    inverses = np.argsort(values, axis=1).astype(np.uint8) + 1
    found = set()
    for start in range(0, count, 64):
        c_rows = inverses[start : start + 64][:, values - 1].reshape(-1, n)
        c_bytes = c_rows.view(np.dtype((np.void, n))).ravel().tolist()
        for pair in np.nonzero(list(map(members.__contains__, c_bytes)))[0]:
            a, b = divmod(start * count + int(pair), count)
            cube = CostasCube(tuple(zip(inverses[a].tolist(), inverses[b].tolist())))
            found.add(canonical_cube(cube).rows)
    return sorted(found)


def test_class_ordered_join_matches_unrestricted_join():
    """First arrays restricted to class representatives and second arrays
    to classes no less than the first's lose no class."""
    for n in range(2, 11):
        arrays = costas_arrays(n)
        assert [c.rows for c in class_report(n, value_matrix(arrays)).representatives] == _unrestricted_join(arrays)


def _class_ordered_hits(values, classes):
    """Oracle: (B's position, hit cube, classes of A, B and C) for every
    pair (A, B) of a value matrix with A the first row in list order of
    its class and B of no lesser class, C = A^-1 B looked up in a dict of
    the row bytes of the list."""
    values = np.ascontiguousarray(values, dtype=np.uint8)
    n = values.shape[1]
    position = {row: at for at, row in enumerate(map(bytes, values))}
    inverses = np.argsort(values, axis=1).astype(np.uint8) + 1
    _, firsts = np.unique(classes, return_index=True)
    hits = []
    for a in firsts.tolist():
        (b_at,) = np.nonzero(classes >= classes[a])
        c_rows = inverses[a][values[b_at] - 1]
        for b, c in zip(b_at.tolist(), c_rows.view(np.dtype((np.void, n))).ravel().tolist()):
            if c in position:
                cube = CostasCube(tuple(zip(inverses[a].tolist(), inverses[b].tolist())))
                hits.append((b, cube, {classes[a], classes[b], classes[position[c]]}))
    return hits


def test_join_keeps_one_of_each_reversal_pair(monkeypatch):
    """The k-flip (j_i, k_i) -> (j_i, n+1-k_i) takes the hit (A, B) to the
    hit (A, rev B) of the same cube class.  The scan keeps only the B
    whose first value is at most its last: it hands the class walk
    exactly the hits of the oracle's join over every B that keep this
    rule, half of them for n >= 2, and finds the same representatives and
    projection classes as the join over every B."""
    handed = []
    walk = enumeration.first_of_each_class

    def recorded(rows):
        handed.append(rows)
        return walk(rows)

    monkeypatch.setattr(enumeration, "first_of_each_class", recorded)
    lists = {n: costas_values(n) for n in range(1, 11)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    for n, values in lists.items():
        prepared = _prepare(values, n)
        every = _class_ordered_hits(values, prepared.classes)
        half = [cube for b, cube, _ in every if values[b, 0] <= values[b, -1]]
        assert len(every) == (len(half) if n == 1 else 2 * len(half)), n
        handed.clear()
        cubes, projection_classes = enumeration._scan(values, prepared)
        (rows,) = handed
        assert sorted(map(tuple, rows.tolist())) == sorted(sum(cube.rows, ()) for cube in half), n
        forms = {canonical_cube(cube).rows for _, cube, _ in every}
        assert [c.rows for c in cubes] == sorted(forms), n
        assert projection_classes == len(set().union(*(found for _, _, found in every))), n
    assert (len(every), len(half)) == (164, 82)
    assert class_report(1, costas_values(1)).cube_classes == 1


def _least_image_numbering(arrays):
    """Oracle: each array's class, the rank of its least image (formed one
    symmetry at a time) among the list's distinct least images."""
    least = [least_image_oracle(p) for p in arrays]
    number = {key: at for at, key in enumerate(sorted(set(least)))}
    return [number[key] for key in least]


def _scan_hits_2d_oracle(values, classes, block_pairs):
    """The rows _scan hands the class walk, in order, and its count of
    projection classes, from its block loop with a 2-D key filter: each
    block's keys as a (first, second) matrix, kept by a 2-D gather of the
    occurring keys and np.nonzero, and the inverses from argsort."""
    table = values - 1
    index = _row_index(values)
    by_class = np.argsort(classes, kind="stable")
    ordered = classes[by_class]
    (firsts,) = np.nonzero(np.diff(ordered, prepend=-1))
    idx = table[by_class]
    n = idx.shape[1]
    inverses = np.argsort(idx, axis=1).astype(idx.dtype)
    (seconds,) = np.nonzero(idx[:, 0] <= idx[:, -1])
    starts = np.searchsorted(seconds, firsts)
    second_rows = idx[seconds]
    weights = index.weights.astype(float)[inverses[seconds]]
    hits, projected = [], []
    start = 0
    while start < len(firsts):
        lo = starts[start]
        step = max(1, block_pairs // (len(seconds) - lo))
        block, block_starts = firsts[start : start + step], starts[start : start + step]
        start += step
        z = inverses[block]
        keys = (z @ weights[lo:].T).astype(np.int64) & index.mask
        first, second = np.nonzero(index.occurs[keys])
        second += lo
        keep = second >= block_starts[first]
        first, second = first[keep], second[keep]
        c_at = index.find(z[first[:, None], second_rows[second]] + 1)
        hit = c_at >= 0
        a_at, b_at = block[first[hit]], seconds[second[hit]]
        hits.append(np.stack((inverses[a_at], inverses[b_at]), axis=2).reshape(-1, 2 * n))
        projected.append(np.concatenate((ordered[a_at], ordered[b_at], classes[c_at[hit]])))
    return np.concatenate(hits) + 1, len(np.unique(np.concatenate(projected)))


@pytest.mark.parametrize("block_pairs", [enumeration._BLOCK_PAIRS, 97])
def test_scan_hits_match_the_2d_filter_oracle(monkeypatch, block_pairs):
    """The flat key filter and the scatter inverses hand the class walk the
    rows of the 2-D filter, row for row, and count the same projection
    classes: at orders 1-11, and over the closed but incomplete order-7
    list, whose classes the preparation numbers as the least-image oracle
    does; in the default blocks and in blocks of about 97 pairs, where
    most blocks hold a few first arrays of unequal reach."""
    handed = []
    walk = enumeration.first_of_each_class

    def recorded(rows):
        handed.append(rows)
        return walk(rows)

    monkeypatch.setattr(enumeration, "first_of_each_class", recorded)
    monkeypatch.setattr(enumeration, "_BLOCK_PAIRS", block_pairs)
    cases = [(n, costas_values(n)) for n in range(1, 11)]
    cases.append((11, parse_array_file(ORDER11_DATABASE.read_text())))
    closed = order7_without_one_class()
    cases.append((7, value_matrix(closed)))
    for n, values in cases:
        prepared = _prepare(values, n)
        rows, projection_classes = _scan_hits_2d_oracle(values, prepared.classes, block_pairs)
        handed.clear()
        _, count = enumeration._scan(values, prepared)
        assert handed[0].tolist() == rows.tolist()
        assert count == projection_classes
    assert prepared.classes.tolist() == _least_image_numbering(closed)


def test_join_over_a_closed_incomplete_list():
    """The join's argument needs only closure under the square symmetries:
    the order-7 arrays without one class pass the preparation, which
    numbers their classes as the least-image oracle does, and the scan
    finds the classes of the unrestricted join and their projection
    classes.  class_report refuses the list on its total."""
    arrays = order7_without_one_class()
    values = value_matrix(arrays)
    prepared = _prepare(values, 7)
    assert prepared.classes.tolist() == _least_image_numbering(arrays)
    cubes, projection_classes = enumeration._scan(values, prepared)
    assert [c.rows for c in cubes] == _unrestricted_join(arrays) != []
    assert projection_classes == projection_class_count(cubes)
    with pytest.raises(ValueError, match=r"holds 196 Costas arrays of order 7, but there are 200"):
        class_report(7, values)


def test_join_output_does_not_depend_on_row_order():
    """The list's rows are filtered by a hashed key and looked up by
    their bytes, and its classes ordered by their least images: seeded
    shuffles of a list give the report of the lexicographic list,
    representatives included."""
    lists = {n: costas_values(n) for n in (7, 8, 9)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    for n, values in lists.items():
        expected = class_report(n, values[np.lexsort(values.T[::-1])])
        assert expected.representatives == costas_cube_classes(n)
        for seed in range(3):
            shuffled = values[np.random.default_rng(seed).permutation(len(values))]
            assert class_report(n, shuffled) == expected


def test_join_canonicalises_once_per_class(monkeypatch):
    """Hits in the orbit of a class already found form no images."""
    expected = list(costas_cube_classes(8))
    calls = []
    row_images = symmetry._row_images

    def counted(row):
        calls.append(row)
        return row_images(row)

    monkeypatch.setattr(symmetry, "_row_images", counted)
    assert list(class_report(8, costas_values(8)).representatives) == expected
    assert len(calls) == len(expected) == 42


def test_array_totals_match_published_table():
    for n in range(1, 13):
        assert len(costas_arrays(n)) == COSTAS_ARRAY_TOTALS[n]


def test_completeness_checks_reject_bad_input():
    arrays = list(costas_arrays(5))
    with pytest.raises(ValueError, match="closed"):
        class_report(5, value_matrix(arrays[:-1]))
    with pytest.raises(ValueError, match="duplicates"):
        class_report(5, value_matrix(arrays + [arrays[0]]))
    with pytest.raises(ValueError, match="not a Costas"):
        class_report(4, value_matrix([Permutation((1, 2, 3, 4))]))
    with pytest.raises(ValueError, match="order"):
        class_report(6, value_matrix(arrays))
    with pytest.raises(ValueError, match="empty"):
        class_report(5, value_matrix([]))
    # An order-70 list reaches the closure check.
    welch70 = Permutation(tuple(pow(7, i, 71) for i in range(70)))
    with pytest.raises(ValueError, match="closed"):
        class_report(70, value_matrix([welch70]))
    closed = order7_without_one_class()
    with pytest.raises(ValueError, match=rf"holds {len(closed)} .* there are 200"):
        class_report(7, value_matrix(closed))


def test_closure_counts_the_images_equal_to_a_row():
    """A row's class is whole when its members times the images equal to
    it make 8.  Without one row of a class with a symmetric member (an
    orbit of 4 for n >= 3, of 2 at order 2), the first row in list order
    whose orbit is not wholly in the list is named; without the whole
    class, the list is closed and fails on its total (or is empty)."""
    for n in range(2, 9):
        arrays = list(costas_arrays(n))
        orbit = {p: frozenset(image(s, p) for s in PLANAR_SYMMETRIES) for p in arrays}
        symmetric = next(o for o in orbit.values() if len(o) < 8)
        assert len(symmetric) == (2 if n == 2 else 4)
        for gone in symmetric:
            rest = [p for p in arrays if p != gone]
            named = next(p for p in rest if gone in orbit[p])
            message = rf"image of \({','.join(map(str, named.values))}\) missing"
            with pytest.raises(ValueError, match=message):
                _prepare(value_matrix(rest), n)
        rest = [p for p in arrays if p not in symmetric]
        message = rf"holds {len(rest)} Costas arrays" if rest else "empty"
        with pytest.raises(ValueError, match=message):
            class_report(n, value_matrix(rest))


def test_check_complete_messages_name_the_first_faulty_array():
    arrays = list(costas_arrays(6))
    line, wrong_order = Permutation((1, 2, 3, 4, 5, 6)), Permutation((1, 2))
    later = Permutation((6, 5, 4, 3, 2, 1))
    cases = [
        (arrays[:7] + [line] + arrays[7:] + [later], r"array \(1,2,3,4,5,6\) is not a Costas array"),
        (arrays[:7] + [line, wrong_order], r"array \(1,2,3,4,5,6\) is not a Costas array"),
        (arrays[:7] + [wrong_order, line], r"array \(1,2\) has order 2, expected 6"),
        (arrays + [arrays[9]], "array list contains duplicates"),
    ]
    # Without one array, the first array in list order that has it as an
    # image is named.
    missing = arrays[20]
    rest = (arrays[:20] + arrays[21:])[::-1]
    named = next(p for p in rest if missing in {image(s, p) for s in PLANAR_SYMMETRIES})
    cases.append((rest, rf"array list is not closed under the square symmetries "
                        rf"\(image of \({','.join(map(str, named.values))}\) missing\); "
                        "it cannot be complete"))
    for listed, message in cases:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            _prepare(value_matrix(listed), 6)


def test_costas_property_is_a_class_property():
    """A permutation is Costas exactly when its least planar image is, at
    every permutation of orders 1-7: the completeness check tests one
    least image per class."""
    for n in range(1, 8):
        values = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.uint8)
        least = symmetry.least_image(symmetry.planar_images(values))
        for row, key in zip(values.tolist(), least.tolist()):
            assert (costas_violation_oracle(row) == (0, 0)) == (costas_violation_oracle(key) == (0, 0)), row


@st.composite
def permutation_lists(draw):
    """An order n <= 7 and distinct permutations of it: some or all of its
    Costas arrays in a drawn order, with a few other permutations and some
    of their images put in at drawn places."""
    n = draw(st.integers(1, 7))
    arrays = list(costas_arrays(n))
    listed = draw(st.permutations(arrays)) if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(arrays), unique=True, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        p = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
        for sym in draw(st.lists(st.sampled_from(PLANAR_SYMMETRIES), min_size=1, max_size=3)):
            listed.insert(draw(st.integers(0, len(listed))), image(sym, p))
    return n, list(dict.fromkeys(listed))


@given(permutation_lists())
def test_class_wise_costas_check_names_the_first_faulty_row(case):
    """The check on one least image per class fails exactly when
    costas_violations over the rows finds a row, and its message names
    that row, the first faulty one in list order."""
    n, listed = case
    values = value_matrix(listed)
    faulty = np.flatnonzero(costas_violations(values)[:, 0])
    bad = faulty[0] if len(faulty) else None
    try:
        _prepare(values, n)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None
    if bad is None:
        assert message is None or "not a Costas array" not in message
    else:
        assert message == f"array ({','.join(map(str, listed[bad].values))}) is not a Costas array"


def test_check_complete_refuses_rows_that_are_not_permutations():
    """Every list of four distinct rows over 1..3 that a row-wise Costas
    check passes and that holds a row which is not a permutation is
    refused, naming the first such row: 14 of them passed every check
    before this one, and class_report counted them."""
    rows = [row for row in itertools.product(range(1, 4), repeat=3) if row[1] - row[0] != row[2] - row[1]]
    checked = 0
    for listed in itertools.combinations(rows, 4):
        named = next((row for row in listed if sorted(row) != [1, 2, 3]), None)
        if named is None:
            continue
        message = rf"^array \({','.join(map(str, named))}\) is not a permutation of 1..3$"
        with pytest.raises(ValueError, match=message):
            _prepare(np.array(listed, dtype=np.uint8), 3)
        checked += 1
    assert checked == 7314
    with pytest.raises(ValueError, match=r"^array \(2,1,2\) is not a permutation of 1..3$"):
        class_report(3, np.array([[1, 3, 2], [2, 1, 2], [2, 1, 3], [2, 3, 1]], dtype=np.uint8))
    # A row with n nonzero values but wider than n is no permutation of 1..n.
    with pytest.raises(ValueError, match=r"^array \(0,1\) is not a permutation of 1..1$"):
        _prepare(np.array([[0, 1]]), 1)


def test_rows_before_a_row_of_the_wrong_order_are_checked_as_on_the_main_route():
    """Every list of three distinct rows over 1..3 that the main route
    refuses for a row that is not a permutation or not a Costas array is
    refused with the same message when a row of order 2 follows it."""
    checked = 0
    for listed in itertools.combinations(itertools.product(range(1, 4), repeat=3), 3):
        message = ""
        try:
            _prepare(np.array(listed, dtype=np.uint8), 3)
        except ValueError as exc:
            message = str(exc)
        if not message.endswith(("is not a permutation of 1..3", "is not a Costas array")):
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _prepare(np.array(listed + ((1, 2, 0),), dtype=np.uint8), 3)
        checked += 1
    assert checked == 2921
    with pytest.raises(ValueError, match=r"^array \(1,1,1\) is not a permutation of 1..3$"):
        class_report(3, np.array([[1, 1, 1], [1, 2, 0]], dtype=np.uint8))


@pytest.mark.parametrize("values", [
    np.loadtxt(ORDER11_DATABASE), costas_values(5).astype(np.float32), costas_values(5).astype(bool)],
    ids=["float64-order-11-database", "float32", "bool"])
def test_class_report_refuses_a_matrix_that_is_not_of_integers(values):
    """A float matrix holds the right values yet cannot be scattered into
    inverses; it is refused, by its dtype, before any check."""
    n = values.shape[1]
    with pytest.raises(ValueError, match=rf"^array list of dtype {values.dtype}; expected an integer dtype$"):
        class_report(n, values)


@pytest.mark.parametrize("values", [
    costas_values(5)[0], np.int64(3), np.empty((4, 0), dtype=np.uint8), costas_values(5).reshape(2, 20, 5)],
    ids=["1-d-row", "0-d", "width-0", "3-d"])
def test_class_report_refuses_a_matrix_that_is_not_2d_or_has_width_0(values):
    """Only an (N, n) matrix with n >= 1 is a list of arrays: a single
    row, a scalar, a matrix of empty rows and a stack of matrices are
    refused, naming their shape, before any other check."""
    message = rf"^array list of shape {re.escape(str(values.shape))}; expected an \(N, n\) value matrix with n >= 1$"
    with pytest.raises(ValueError, match=message):
        class_report(5, values)


def _two_fault_lists():
    """(order, value matrix, message) for lists with two faults each, as
    uint8, uint16 and int64 matrices: the message names the fault that the
    completeness checks meet first, in the order empty, duplicates, wrong
    order, not a permutation, not Costas, not closed, wrong total."""
    six = costas_values(6)
    line, twice, five = np.arange(1, 7), np.array([1, 1, 2, 3, 4, 5]), np.array([2, 4, 1, 5, 3, 0])
    # Without (2,3,5,4,1,6), one row short of the total 116.
    unclosed = np.delete(six, 20, axis=0)
    cases = [
        # A duplicate, then a row of order 5, zero-padded.
        (6, np.vstack((six, six[3], five)), "array list contains duplicates"),
        # A row that is not a permutation, and a later duplicate.
        (6, np.vstack((twice, six, six[-1])), "array list contains duplicates"),
        # Two equal rows that are not permutations.
        (6, np.vstack((six, twice, twice)), "array list contains duplicates"),
        # A row of order 5, then a row that is not Costas.
        (6, np.vstack((six[:9], five, line)), "array (2,4,1,5,3) has order 5, expected 6"),
        # A row that is not Costas, then a row of order 5.
        (6, np.vstack((six[:9], line, five)), "array (1,2,3,4,5,6) is not a Costas array"),
        # A row that is not Costas, then one that is not a permutation.
        (6, np.vstack((line, six, twice)), "array (1,1,2,3,4,5) is not a permutation of 1..6"),
        # A row that is not Costas, in a list that is not closed either.
        (6, np.vstack((unclosed, line)), "array (1,2,3,4,5,6) is not a Costas array"),
        # Not closed, and short of the total.
        (6, unclosed, "array list is not closed under the square symmetries "
                      "(image of (1,4,3,5,6,2) missing); it cannot be complete"),
        # Closed, but a whole class short of the total.
        (7, value_matrix(order7_without_one_class()),
         "array list holds 196 Costas arrays of order 7, but there are 200; it cannot be complete"),
    ]
    for n, values, message in cases:
        for dtype in (np.uint8, np.uint16, np.int64):
            yield n, values.astype(dtype), message


def test_the_first_of_two_faults_is_named(monkeypatch):
    """Each list with two faults is refused with the message of the fault
    checked first, in every dtype; the 2^31 guard of the scan's row keys
    fires only for a list that passes every check."""
    for spread in (enumeration._KEY_SPREAD, 1 << 40):
        monkeypatch.setattr(enumeration, "_KEY_SPREAD", spread)
        for n, values, message in _two_fault_lists():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                class_report(n, values)
    with pytest.raises(ValueError, match=r"2\^31"):
        class_report(6, costas_values(6))


@pytest.mark.parametrize("dtype, n", [(np.uint8, 5), (np.uint16, 5), (np.uint16, 256)])
def test_class_report_refuses_rows_with_a_value_outside_a_permutation(capsys, tmp_path, dtype, n):
    """A row of a list of 40 Costas arrays of order n (those of order 5,
    or the Welch arrays 3^(i+c) mod 257 of order 256, c < 40) holding 0,
    n+1, 255 or a repeated value, first, in the middle or last, makes
    class_report raise, naming that row; the same line makes enumerate
    --arrays-file exit 2.  Values outside 1..n never reach the inverse
    scatter, whose slots are row-relative."""
    welch = [[pow(3, i + c, 257) for i in range(256)] for c in range(40)]
    arrays = (costas_values(5) if n == 5 else np.array(welch)).astype(dtype)
    assert arrays.shape == (40, n) and not costas_violations(arrays).any()
    for at in (0, 17, 39):
        for value in (0, n + 1, 255, None):
            bad = arrays.copy()
            bad[at, 2] = bad[at, 1] if value is None else value
            row = ",".join(str(v) for v in bad[at].tolist() if v)
            message = (rf"^array \({row}\) has order {n - 1}, expected {n}$" if value == 0
                       else rf"^array \({row}\) is not a permutation of 1..{n}$")
            with pytest.raises(ValueError, match=message):
                class_report(n, bad)
            path = tmp_path / "db.txt"
            path.write_text("".join(" ".join(map(str, r)) + "\n" for r in bad.tolist()))
            assert main(["enumerate", "--order", str(n), "--arrays-file", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: line {at + 1}: "), err


def test_projection_class_count_examples():
    assert class_report(4, costas_values(4)).projection_array_classes == 1
    assert class_report(6, costas_values(6)).projection_array_classes == 17
    assert class_report(1, costas_values(1)).projection_array_classes == 1


def test_projection_class_count_matches_projection_sets():
    """class_report's count, read off the join's hits, equals the number of
    classes in the union of its representatives' projection sets: the least
    square images of their projections A, B and C, counted one image at a
    time."""
    reports = [class_report(n, costas_values(n)) for n in range(1, 11)]
    reports.append(class_report(11, parse_array_file(ORDER11_DATABASE.read_text())))
    for report in reports:
        want = projection_class_count(report.representatives)
        assert report.projection_array_classes == want, report.order
    assert reports[-1].projection_array_classes == 126


def test_class_report_validation():
    with pytest.raises(ValueError):
        ClassReport(5, -1, 0, 0)
    with pytest.raises(ValueError):
        ClassReport(5, 1, 7, 6)


def test_table1_small_rows():
    reports = {r.order: r for r in table1(8)}
    assert (reports[2].cube_classes, reports[2].projection_array_classes,
            reports[2].total_array_classes) == (1, 1, 1)
    assert (reports[8].cube_classes, reports[8].projection_array_classes,
            reports[8].total_array_classes) == (42, 44, 60)


def test_table1_accepts_supplied_databases():
    """A supplied database reaches class_report, past the enumeration limit;
    an incomplete one is refused."""
    assert class_report(5, value_matrix(costas_arrays(5))) == table1(5)[-1]
    assert class_report(5, value_matrix(costas_arrays(5))).cube_classes == 13
    with pytest.raises(EnumerationLimitError):
        costas_values(5, limit=4)
    with pytest.raises(ValueError, match="cannot be complete"):
        class_report(7, value_matrix(order7_without_one_class()))


def test_table1_representatives_flag():
    report = table1(4)[-1]
    assert report.representatives is not None
    assert len(report.representatives) == report.cube_classes
    assert all(isinstance(c, CostasCube) for c in report.representatives)


def test_check_complete_numbers_classes_by_their_least_images():
    """Each row's class is the rank of its least image among the sorted
    distinct least images (least_image_oracle), whatever the row order:
    seeded shuffles of the lists of orders 1-10 and of the order-11
    database, and a uint16 list of order 256, the planar images of the
    Welch arrays w1(257, g) of the first six primitive g, whose values
    reach past one byte."""
    lists = {n: costas_values(n) for n in range(1, 11)}
    lists[11] = parse_array_file(ORDER11_DATABASE.read_text())
    primitive = [g for g in range(2, 257) if pow(g, 128, 257) != 1][:6]
    welch = np.array([w1(257, g) for g in primitive], dtype=np.uint16)
    lists[256] = symmetry.planar_images(welch).reshape(-1, 256)
    rng = np.random.default_rng(41)
    for n, values in lists.items():
        values = values[rng.permutation(len(values))]
        keys = [least_image_oracle(Permutation(tuple(row))) for row in values.tolist()]
        rank = {key: c for c, key in enumerate(sorted(set(keys)))}
        assert _prepare(values, n).classes.tolist() == [rank[key] for key in keys]
    assert len(lists[256]) == 48 and len(rank) == 6


def test_prepared_record_matches_oracles():
    """The preparation's record of a list, at orders 1-10, of the order-11
    database and of the closed but incomplete order-7 list, each shuffled:
    the inverses are argsort + 1, the class order is a stable argsort of
    the classes, the first members are each class's first row in list
    order, and the dict maps each row, read back from its bytes, to its
    position."""
    lists = [(n, costas_values(n)) for n in range(1, 11)]
    lists.append((11, parse_array_file(ORDER11_DATABASE.read_text())))
    lists.append((7, value_matrix(order7_without_one_class())))
    rng = np.random.default_rng(42)
    for n, values in lists:
        values = values[rng.permutation(len(values))]
        prepared = _prepare(values, n)
        assert prepared.inverse.dtype == values.dtype
        assert prepared.inverse.tolist() == (np.argsort(values, axis=1) + 1).tolist()
        assert prepared.order.tolist() == np.argsort(prepared.classes, kind="stable").tolist()
        first = {}
        for at, c in enumerate(prepared.classes.tolist()):
            first.setdefault(c, at)
        assert prepared.order[prepared.firsts].tolist() == [first[c] for c in range(len(first))]
        rows = {tuple(np.frombuffer(key, values.dtype).tolist()): at for key, at in prepared.position.items()}
        assert rows == {tuple(row): at for at, row in enumerate(values.tolist())}


def test_class_report_total_is_representative_count():
    """The completeness check numbers each row's class by the rank of its
    least image among array_classes' sorted representatives, and the
    total array classes are their count."""
    for n in range(1, 9):
        arrays = costas_arrays(n)
        reps = array_classes(arrays)
        classes = _prepare(value_matrix(arrays), n).classes
        assert [reps[c].values for c in classes.tolist()] == [least_image_oracle(p) for p in arrays]
        assert class_report(n, value_matrix(arrays)).total_array_classes == len(reps)
    # The first order and the first other order are named.
    four, five, six = costas_arrays(4), costas_arrays(5), costas_arrays(6)
    for mixed, named in ((four + five, "orders 4 and 5 mixed"), (five + four, "orders 5 and 4 mixed"),
                         (five[:2] + six[:1] + five[2:] + four, "orders 5 and 6 mixed")):
        with pytest.raises(ValueError, match=named):
            array_classes(mixed)


@pytest.mark.stretch
def test_search_memory_stays_bounded():
    """The search's numpy buffers, which numpy reports to tracemalloc,
    peak below 6 MiB at order 13: the frontier is held in bounded blocks.
    The rows are those of commit 794c2aa byte for byte."""
    tracemalloc.start()
    try:
        values = costas_values(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    digest = "1b00d8d252106be4b114dd74c5a90a6d6ce3bc71f442252503f2b56e915b1c2f"
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.stretch
def test_order_14_join_stretch():
    """The in-process reach: the order-14 search and pair-join, a few seconds.
    The whole report is pinned: its counts, and the bytes of its
    representatives' rows as of commit 8a972b0."""
    arrays = costas_values(14, limit=14)
    assert len(arrays) == COSTAS_ARRAY_TOTALS[14] == 17252
    digest = "8e914faaa0ca6f1b6b1989416b424793b2d5fed98a8c47b6e6e0a6778b444e47"
    assert hashlib.sha256(arrays.tobytes()).hexdigest() == digest
    report = class_report(14, arrays)
    # reference.py holds no published figure for the projection and
    # total array classes, 6 and 2168.
    counts = (report.cube_classes, report.projection_array_classes, report.total_array_classes)
    assert counts == (CUBE_CLASS_COUNTS[14], 6, 2168) == (6, 6, 2168)
    rows = np.array([cube.rows for cube in report.representatives], dtype=np.uint8)
    digest = "bad6f576f2a618444388ddda58ae240d875e8c0a4908bde97cb0082c90a600b3"
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


@pytest.mark.stretch
def test_order_15_search_stretch():
    """The search at order 15, about 20 s: the rows of the order-15 prefix
    jobs run one (a, b) prefix at a time, byte for byte."""
    values = costas_values(15, limit=15)
    assert len(values) == COSTAS_ARRAY_TOTALS[15] == 19612
    digest = "435271c156e4af77a02d64252d527bd0a556049917461fd96e3e086cc5426826"
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
