"""Finite-field constructions of Costas arrays and Costas cubes.

Array families (names follow the classical literature):

* W1(p, phi, c): order p-1, sigma(j) = phi^(j+c) over GF(p).
* G2(q, phi, rho): order q-2, 1 entries where phi^i + rho^j = 1.
* W2(p, phi): order p-2, sigma(j) = phi^j - 1: W1(p, phi, 0) with its
  corner dot sigma(p-1) = 1 removed.
* G3(q, phi): order q-3, 1 entries where phi^(i+1) + (1-phi)^(j+1) = 1,
  requiring 1-phi primitive as well: G2(q, phi, 1-phi) with its corner
  dot sigma(1) = 1 removed.

Cube families, each of whose three projections lands in one of the
array families above:

* cube_g2x3: order q-2, rows phi^i + rho^(-j) = 1 = phi^(-i) + psi^k
  (the third condition rho^j + psi^(-k) = 1 then holds automatically).
* cube_w2w2g2: order p-2, rows i = phi^j - 1 = -psi^k.
* cube_g3_variant_i / _ii: order q-3, requiring phi, 1-phi and
  1-phi^(-1) all primitive.  (i) is cube_g2x3(q, phi, (1-phi)^(-1),
  1-phi^(-1)) with the three planes through its corner dot (1,1,1)
  removed, and (ii) is the k-reversal of (i).

Every constructor is integer arithmetic on the discrete logs of one
field, to its least primitive g, read from the field's one table
(gf.FieldSpec.tables): with a = log phi, b = log rho, c = log psi and the
Zech column Z[t] = log(1 - g^t), all mod q-1, the relation
phi^i + rho^j = 1 reads a*i = Z[b*j], and each row is one Z read.
The G3 constructors check phi first, and then 1-phi and 1-phi^(-1) as
exp[Z[a]] and exp[Z[-a]].

W1, G2, G2x3 and W2W2G2 each have one row formula, numpy arithmetic
over arrays of these logs; W2, G3 and the G3 cubes are read from those
rows by dropping the corner dot's row (the last W1 entry, the first G2
entry or G2x3 row) and subtracting 1.  A constructor evaluates a family
at one parameter tuple: an array constructor returns its value row, a
tuple of ints, and a cube constructor a CostasCube.  sweep evaluates a
cube family once per field, at every admissible tuple, into one int16
row matrix, and counts equivalence classes per order: a row among the
48 images of a class already found is skipped, so each class is
canonicalized exactly once.  table2 makes each field once per call and
hands the same fields to its four sweeps, so each table is built once
per call; nothing is cached from one call to the next.  A field with no
admissible tuple (10 of the 15 G3 fields to order 29) makes no row
matrix and starts no walk.
catalog labels canonical arrays of one order by the families able to
produce them, evaluating each array formula once over the field it
holds and canonicalizing every array in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping

import numpy as np

from .core import CostasCube, is_costas_cube
from .reference import CUBE_CLASS_COUNTS
from .gf import (
    PRIMITIVE_ELEMENT_GUARD,
    FieldElement,
    FieldSpec,
    field_new,
    format_element,
    is_prime,
    is_primitive,
    prime_power,
    _is_irreducible,
    _primitive_logs,
)
from .symmetry import first_of_each_class, least_image, planar_images

# One fixed representation per non-prime field order used by sweeps and
# the catalog (default_field picks one for any other order); different
# moduli give isomorphic fields and identical canonical class sets, so
# ranging over them would only duplicate work.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
    32: (1, 0, 1, 0, 0, 1),
}

SWEEP_ORDER_GUARD = 29


class Family(str, Enum):
    W1 = "W1"
    G2 = "G2"
    W2 = "W2"
    G3 = "G3"
    CUBE_G2X3 = "CUBE_G2x3"
    CUBE_W2W2G2 = "CUBE_W2W2G2"
    CUBE_G3_I = "CUBE_G3_I"
    CUBE_G3_II = "CUBE_G3_II"
    CUBE_G3 = "CUBE_G3"  # variants (i) and (ii) pooled


@dataclass(frozen=True)
class ConstructionId:
    """A construction family together with the parameters that ran it."""

    family: Family
    field: FieldSpec
    elements: tuple[FieldElement, ...]

    def describe(self) -> str:
        parts = [format_element(self.field, e) for e in self.elements]
        return f"{self.family.value}(q={self.field.q}; {'; '.join(parts)})"


def default_field(q: int, moduli: dict[int, tuple[int, ...]] | None = None) -> FieldSpec:
    """The configured GF(q) for sweeps and the catalog.  A field with no
    configured modulus takes the least monic irreducible one by encoding,
    up to the table guard."""
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    p, m = pm
    if m == 1:
        return field_new(p, 1)
    table = DEFAULT_MODULI if moduli is None else moduli
    if q in table:
        return field_new(p, m, table[q])
    if q > PRIMITIVE_ELEMENT_GUARD:
        raise ValueError(f"no modulus configured for GF({q}), above the table guard {PRIMITIVE_ELEMENT_GUARD}")
    # product() counts the digits c_(m-1)..c_0 up, which is encoding order.
    low = next(c[::-1] for c in product(range(p), repeat=m) if _is_irreducible(c[::-1] + (1,), p))
    return field_new(p, m, low + (1,))


# -- array constructions -----------------------------------------------


def _logs(field: FieldSpec, **named: FieldElement) -> list[int]:
    """log_g of each named element, checked primitive in the order given."""
    log = field.tables()[1]
    out = []
    for name, e in named.items():
        if e == 0 or not is_primitive(field, e):
            raise ValueError(
                f"{name}={format_element(field, e)} is not primitive in GF({field.q})"
            )
        out.append(log[e])
    return out


# The row formulas, for arrays as for cubes: the logs of the parameters
# broadcast against the column (or row) index on a last axis.  An array
# formula returns the value sequences, a cube formula the j and k columns.


def _unit_inverse(x, n: int) -> np.ndarray:
    """x^(-1) mod n, elementwise, for units x of the integers mod n."""
    x = np.asarray(x)
    return np.array([pow(t, -1, n) for t in x.ravel().tolist()], dtype=np.int64).reshape(x.shape)


def _w1_values(field: FieldSpec, a, c) -> np.ndarray:
    """sigma(j) = exp[a*(j+c)] (mod p-1), j = 1..p-1."""
    exp = np.array(field.tables()[0])
    return exp[a * (np.arange(1, field.q) + c) % (field.q - 1)]


def _g2_values(field: FieldSpec, a, b) -> np.ndarray:
    """sigma(j) = Z[b*j] * a^(-1) (mod q-1), j = 1..q-2."""
    n = field.q - 1
    zech = np.array(field.tables()[2])
    return zech[b * np.arange(1, n) % n] * _unit_inverse(a, n) % n


def w1(p: int, phi: FieldElement, c: int = 0) -> tuple[int, ...]:
    """Order p-1 array with sigma(j) = phi^(j+c) over GF(p), p > 2 prime."""
    field = field_new(p, 1)
    if p <= 2:
        raise ValueError("W1 requires p > 2")
    (a,) = _logs(field, phi=phi)
    if not 0 <= c < p:
        raise ValueError(f"shift c={c} must lie in GF({p})")
    return tuple(_w1_values(field, a, c).tolist())


def g2(field: FieldSpec, phi: FieldElement, rho: FieldElement) -> tuple[int, ...]:
    """Order q-2 array with 1 entries where phi^i + rho^j = 1, q > 3."""
    if field.q <= 3:
        raise ValueError("G2 requires q > 3")
    return tuple(_g2_values(field, *_logs(field, phi=phi, rho=rho)).tolist())


def w2(p: int, phi: FieldElement) -> tuple[int, ...]:
    """Order p-2 array with sigma(j) = phi^j - 1 over GF(p), p > 3 prime."""
    field = field_new(p, 1)
    if p <= 3:
        raise ValueError("W2 requires p > 3")
    (a,) = _logs(field, phi=phi)
    return tuple((_w1_values(field, a, 0)[:-1] - 1).tolist())


def g3(field: FieldSpec, phi: FieldElement) -> tuple[int, ...]:
    """Order q-3 array with 1 entries where phi^(i+1) + (1-phi)^(j+1) = 1.

    Requires phi and 1-phi both primitive.  Equals the G2(q, phi, 1-phi)
    array with the row and column through its 1 entry at (1, 1) removed.
    """
    if field.q <= 3:
        raise ValueError("G3 requires q > 3")
    (a,) = _logs(field, phi=phi)
    exp, _, zech = field.tables()
    (m,) = _logs(field, **{"1-phi": exp[zech[a]]})
    return tuple((_g2_values(field, a, m)[1:] - 1).tolist())


# -- cube constructions ------------------------------------------------


def _g2x3_jk(field: FieldSpec, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """j = -Z[a*i] * b^(-1) and k = Z[-a*i] * c^(-1) (mod q-1), i = 1..q-2."""
    n = field.q - 1
    zech = np.array(field.tables()[2])
    ai = a * np.arange(1, n)
    return -zech[ai % n] * _unit_inverse(b, n) % n, zech[-ai % n] * _unit_inverse(c, n) % n


def _w2w2g2_jk(field: FieldSpec, a, c) -> tuple[np.ndarray, np.ndarray]:
    """j = log(i+1) * a^(-1) and k = log(p-i) * c^(-1) (mod p-1), i = 1..p-2."""
    p, n = field.q, field.q - 1
    log = np.array(field.tables()[1])
    i = np.arange(1, n)
    return log[i + 1] * _unit_inverse(a, n) % n, log[p - i] * _unit_inverse(c, n) % n


def _g3_jk(field: FieldSpec, a) -> tuple[np.ndarray, np.ndarray]:
    """Variant (i)'s j and k columns: the G2x3 rows at rho = (1-phi)^(-1)
    and psi = 1-phi^(-1), whose logs are -Z[a] and Z[-a], with the first
    row dropped, minus 1."""
    n = field.q - 1
    zech = np.array(field.tables()[2])
    j, k = _g2x3_jk(field, a, -zech[a % n] % n, zech[-a % n])
    return j[..., 1:] - 1, k[..., 1:] - 1


def _cube(j: np.ndarray, k: np.ndarray) -> CostasCube:
    return CostasCube(tuple(zip(j.tolist(), k.tolist())))


def cube_g2x3(
    field: FieldSpec, phi: FieldElement, rho: FieldElement, psi: FieldElement
) -> CostasCube:
    """Order q-2 cube whose projections are all G2 arrays.

    Row i has j = -dlog_rho(1 - phi^i) mod (q-1) and k = dlog_psi(1 - phi^(-i));
    the remaining condition rho^j + psi^(-k) = 1 is implied.  Projections:
    A = G2(q, phi, rho^(-1)), B = G2(q, phi^(-1), psi), C = G2(q, rho, psi^(-1)).
    """
    if field.q <= 3:
        raise ValueError("this construction requires q > 3")
    return _cube(*_g2x3_jk(field, *_logs(field, phi=phi, rho=rho, psi=psi)))


def cube_w2w2g2(p: int, phi: FieldElement, psi: FieldElement) -> CostasCube:
    """Order p-2 cube with rows i = phi^j - 1 = -psi^k over GF(p), p > 3.

    Projection A = W2(p, phi); Projection B is the vertical-axis
    reflection of W2(p, psi); Projection C = G2(p, phi, psi).
    """
    field = field_new(p, 1)
    if p <= 3:
        raise ValueError("this construction requires p > 3")
    return _cube(*_w2w2g2_jk(field, *_logs(field, phi=phi, psi=psi)))


def _cube_g3_jk(field: FieldSpec, phi: FieldElement) -> tuple[np.ndarray, np.ndarray]:
    if field.q <= 3:
        raise ValueError("this construction requires q > 3")
    (a,) = _logs(field, phi=phi)
    # Checked here for the error message; the formula reads their logs off Z.
    exp, _, zech = field.tables()
    _logs(field, **{"1-phi": exp[zech[a]], "1-phi^(-1)": exp[zech[-a % (field.q - 1)]]})
    return _g3_jk(field, a)


def cube_g3_variant_i(field: FieldSpec, phi: FieldElement) -> CostasCube:
    """Order q-3 cube whose projections are all G3 arrays.

    Requires phi, 1-phi and 1-phi^(-1) all primitive.  Row i has
    j = dlog_(1-phi)(1 - phi^(i+1)) - 1 and
    k = dlog_(1-phi^(-1))(1 - phi^(-(i+1))) - 1.  Projections:
    A = G3(q, phi), B = G3(q, phi^(-1)), C = G3(q, (1-phi)^(-1)).
    Equals cube_g2x3(field, phi, (1-phi)^(-1), 1-phi^(-1)) with the
    three planes through its 1 entry at (1,1,1) removed.
    """
    return _cube(*_cube_g3_jk(field, phi))


def cube_g3_variant_ii(field: FieldSpec, phi: FieldElement) -> CostasCube:
    """cube_g3_variant_i with its k column reversed (its k_reversal).

    Row i has the same j and k = dlog_(1-phi^(-1))(1 - phi^i) - 1.
    Projection A is unchanged; Projection B is the vertical-axis
    reflection of G3(q, phi^(-1)); Projection C is the 180-degree
    rotation of G3(q, (1-phi)^(-1)).
    """
    j, k = _cube_g3_jk(field, phi)
    return _cube(j, k[::-1])


def k_reversal(cube: CostasCube) -> tuple[CostasCube, bool]:
    """Re-read each row's k coordinate from the row n+1-i.

    Returns the transformed permutation cube and whether it is a Costas
    cube; the transformation is an involution but does not preserve the
    Costas property in general.
    """
    n = cube.order
    rows = tuple(
        (cube.rows[i][0], cube.rows[n - 1 - i][1]) for i in range(n)
    )
    out = CostasCube(rows)
    return out, is_costas_cube(out)


# -- parameter sweeps and the catalog ----------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Canonical cube classes found per order, with one witness each."""

    family: Family
    classes: dict[int, dict[CostasCube, ConstructionId]]

    def count(self, order: int) -> int:
        return len(self.classes.get(order, {}))


# The G3 variants each sweep family walks, in the order of a field's rows.
_G3_VARIANTS = {
    Family.CUBE_G3_I: (Family.CUBE_G3_I,),
    Family.CUBE_G3_II: (Family.CUBE_G3_II,),
    Family.CUBE_G3: (Family.CUBE_G3_I, Family.CUBE_G3_II),
}


def _admissible_logs(family: Family, field: FieldSpec) -> list[int]:
    """The logs of the phi that family admits over field (_primitive_logs)."""
    return _primitive_logs(field, 1, -1) if family in _G3_VARIANTS else _primitive_logs(field)


def _field_rows(family: Family, field: FieldSpec, logs: list[int]):
    """Every admissible tuple of family over field, from its
    _admissible_logs, as one (T, 2n) int16 matrix of flattened rows
    j_1, k_1, ..., j_n, k_n in sweep order, and the function mapping a
    row index to its ConstructionId.

    Tuples run phi-major over the ascending primitive elements; the G3
    variants alternate for each phi, (ii) being (i) with k reversed.  int16 holds every coordinate the
    sweep guard admits."""
    # The axes are lists, so that witness reads Python ints.
    a = np.array(logs, dtype=np.int64)
    if family is Family.CUBE_G2X3:
        axes = (logs,) * 3
        j, k = _g2x3_jk(
            field, a[:, None, None, None], a[None, :, None, None], a[None, None, :, None]
        )
    elif family is Family.CUBE_W2W2G2:
        axes = (logs,) * 2
        j, k = _w2w2g2_jk(field, a[:, None, None], a[None, :, None])
    else:
        axes = (logs, _G3_VARIANTS[family])
        j, k = _g3_jk(field, a[:, None])
        k = np.stack([k[:, ::-1] if v is Family.CUBE_G3_II else k for v in axes[1]], axis=1)
        j = j[:, None]
    shape = tuple(map(len, axes))
    rows = np.empty(shape + (j.shape[-1], 2), dtype=np.int16)
    rows[..., 0] = j
    rows[..., 1] = k

    exp = field.tables()[0]

    def witness(t: int) -> ConstructionId:
        values = []
        for axis in reversed(axes):
            t, x = divmod(t, len(axis))
            values.append(axis[x])
        values.reverse()
        if family in _G3_VARIANTS:
            return ConstructionId(values[1], field, (exp[values[0]],))
        return ConstructionId(family, field, tuple(exp[t] for t in values))

    return rows.reshape(-1, 2 * j.shape[-1]), witness


def _check_sweep_order(max_order: int) -> None:
    if max_order > SWEEP_ORDER_GUARD:
        raise ValueError(f"max_order {max_order} exceeds the guard {SWEEP_ORDER_GUARD}")


def sweep(
    family: Family,
    max_order: int = SWEEP_ORDER_GUARD,
    *,
    fields: Mapping[int, FieldSpec] | None = None,
) -> SweepReport:
    """All inequivalent cubes of orders 2..max_order from one family.

    GF(q) is fields[q], or default_field(q) where fields has no q; a
    field builds its table on first use, so passing the same fields to
    several sweeps builds each table once.  Each field makes one row
    matrix of every admissible parameter tuple, walked in tuple order by
    first_of_each_class: the witness of a class is the first tuple that
    produced it.  A field that admits no tuple makes no matrix.
    """
    _check_sweep_order(max_order)
    if family in (Family.CUBE_G2X3, Family.CUBE_W2W2G2):
        shift = 2
    elif family in _G3_VARIANTS:
        shift = 3
    else:
        raise ValueError(f"sweep is defined for cube families, not {family.value}")
    classes: dict[int, dict[CostasCube, ConstructionId]] = {}
    for q in range(4, max_order + shift + 1):
        if q - shift < 2 or prime_power(q) is None:
            continue
        if family is Family.CUBE_W2W2G2 and not is_prime(q):
            continue
        field = fields[q] if fields and q in fields else default_field(q)
        if field.q != q:
            raise ValueError(f"fields[{q}] is GF({field.q}), not GF({q})")
        logs = _admissible_logs(family, field)
        if not logs:
            continue
        rows, witness = _field_rows(family, field, logs)
        for t, cube in first_of_each_class(rows):
            classes.setdefault(q - shift, {})[cube] = witness(t)
    return SweepReport(family, classes)


def catalog(order: int) -> dict[tuple[int, ...], set[str]]:
    """Canonical Costas arrays of one order, labelled by the array
    families able to produce them over every parameter choice.

    Each family's arrays over its one field, default_field(q), are one
    value matrix from its row formula, and every matrix is canonicalized
    in one least_image pass.  Orders out of reach of every family map to
    an empty dict.
    """
    blocks: list[tuple[str, np.ndarray]] = []
    p = order + 1
    if p > 2 and is_prime(p):
        field = field_new(p, 1)
        a = np.array(_primitive_logs(field), dtype=np.int64)
        blocks.append((Family.W1.value, _w1_values(field, a[:, None, None], np.arange(p)[:, None])))
    q = order + 2
    if q > 3 and prime_power(q) is not None:
        field = default_field(q)
        a = np.array(_primitive_logs(field), dtype=np.int64)
        blocks.append((Family.G2.value, _g2_values(field, a[:, None, None], a[:, None])))
        if field.m == 1:
            blocks.append((Family.W2.value, _w1_values(field, a[:, None], 0)[:, :-1] - 1))
    q = order + 3
    if q > 3 and prime_power(q) is not None:
        field = default_field(q)
        a = np.array(_primitive_logs(field, 1), dtype=np.int64)
        m = np.array(field.tables()[2])[a]
        blocks.append((Family.G3.value, _g2_values(field, a[:, None], m[:, None])[:, 1:] - 1))
    if not blocks:
        return {}
    values = [v.reshape(-1, order) for _, v in blocks]
    names = [label for (label, _), v in zip(blocks, values) for _ in range(len(v))]
    least = least_image(planar_images(np.concatenate(values)))
    labels: dict[tuple[int, ...], set[str]] = {}
    for key, label in zip(map(tuple, least.tolist()), names):
        labels.setdefault(key, set()).add(label)
    return labels


@dataclass(frozen=True)
class Table2Row:
    """Constructed cube classes of one order, per family, with the known
    total count of cube classes alongside (None outside 2..29)."""

    order: int
    g2x3: int
    w2w2g2: int
    g3: int
    g3_variant_i: int
    g3_variant_ii: int
    total_known: int | None


def table2(
    max_order: int = SWEEP_ORDER_GUARD,
    *,
    moduli: dict[int, tuple[int, ...]] | None = None,
) -> list[Table2Row]:
    """Constructed-class counts per order over all four cube families.

    Each GF(q) is default_field(q, moduli), made once per call and shared
    by the four sweeps, so each field's table is built once per call; no
    field is kept from one call to the next.  The two G3 variants are
    pooled into one column (their class sets can overlap) and also
    reported separately.
    """
    if max_order < 2:
        raise ValueError(f"max order {max_order} is below 2, the least order Table 2 lists")
    _check_sweep_order(max_order)
    # The G3 sweeps reach the farthest, to q = max_order + 3.
    fields = {q: default_field(q, moduli) for q in range(4, max_order + 4) if prime_power(q)}
    s_ggg = sweep(Family.CUBE_G2X3, max_order, fields=fields)
    s_www = sweep(Family.CUBE_W2W2G2, max_order, fields=fields)
    s_i = sweep(Family.CUBE_G3_I, max_order, fields=fields)
    s_ii = sweep(Family.CUBE_G3_II, max_order, fields=fields)
    rows = []
    for order in range(2, max_order + 1):
        pooled = set(s_i.classes.get(order, {})) | set(s_ii.classes.get(order, {}))
        rows.append(
            Table2Row(
                order=order,
                g2x3=s_ggg.count(order),
                w2w2g2=s_www.count(order),
                g3=len(pooled),
                g3_variant_i=s_i.count(order),
                g3_variant_ii=s_ii.count(order),
                total_known=CUBE_CLASS_COUNTS.get(order),
            )
        )
    return rows
