"""Finite-field arithmetic for GF(p) and GF(p^m).

Elements are plain integers in [0, q): the base-p digits of the encoding,
in ascending order, are the coefficients of the residue polynomial.  The
modulus is likewise an ascending coefficient list (c_0, ..., c_m), monic
after normalization, matching notation such as <1 + x^3 + x^4>.

Prime fields use the same code path with the implicit modulus x, so the
encoding of an element of GF(p) is simply its least residue.

Each field keeps one exp/log table, to its least primitive element g
(FieldSpec.tables).  It is the only source of discrete logarithms and
of primitivity: e = g^t is primitive iff gcd(t, q-1) = 1, and the log
of e to any other primitive base rho = g^b is log_g(e) * b^(-1) mod q-1.
"""

from __future__ import annotations

import math
from typing import Sequence

FieldElement = int

PRIMITIVE_ELEMENT_GUARD = 1 << 20
_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: multiplicity}."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m, or None if n is not a prime power."""
    factors = factorize(n)
    if len(factors) != 1:
        return None
    return next(iter(factors.items()))


def _poly_rem(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den, over GF(p)."""
    num = list(num)
    dn = len(den) - 1
    for top in range(len(num) - 1, dn - 1, -1):
        c = num[top]
        if c:
            for t in range(dn + 1):
                num[top - dn + t] = (num[top - dn + t] - c * den[t]) % p
    return num[:dn]


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for enc in range(p**d):
            den, e = [], enc
            for _ in range(d):
                e, r = divmod(e, p)
                den.append(r)
            den.append(1)
            if not any(_poly_rem(list(coeffs), den, p)):
                return False
    return True


class FieldSpec:
    """GF(p^m) with a fixed irreducible modulus; elements are int encodings."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.q = p**m
        if p == 2:
            # bit-packed modulus for the carry-less multiply fast path
            self._mod_int = sum(c << t for t, c in enumerate(modulus))
        else:
            # x^m == sum_t reduction[t] x^t
            self._reduction = tuple((-c) % p for c in modulus[:m])
        self._exp: list[int] | None = None
        self._log: list[int] | None = None

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m}, modulus={self.modulus})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    # -- encoding ------------------------------------------------------

    def digits(self, e: FieldElement) -> tuple[int, ...]:
        """Base-p digits of e, ascending, padded to length m."""
        out = []
        for _ in range(self.m):
            e, r = divmod(e, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> FieldElement:
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c % self.p
        return e

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: FieldElement) -> FieldElement:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            top = 1 << self.m
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self._mod_int
            return r
        p, m = self.p, self.m
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * m - 1)
        for s, ca in enumerate(da):
            if ca:
                for t, cb in enumerate(db):
                    prod[s + t] = (prod[s + t] + ca * cb) % p
        for topdeg in range(2 * m - 2, m - 1, -1):
            c = prod[topdeg]
            if c:
                prod[topdeg] = 0
                for t, r in enumerate(self._reduction):
                    prod[topdeg - m + t] = (prod[topdeg - m + t] + c * r) % p
        return self.encode(prod[:m])

    def tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) for the least primitive element g: exp[t] = g^t for
        t in [0, q-1) and log[exp[t]] = t (log[0] is unused).

        g is found as the least element whose power cycle has length q-1;
        the cycle it walks is exp itself.  Built once per field.
        """
        if self._exp is None:
            for g in self.nonzero_elements():
                exp = [1]
                acc = g
                while acc != 1:
                    exp.append(acc)
                    acc = self._mul_raw(acc, g)
                if len(exp) == self.q - 1:
                    break
            log = [0] * self.q
            for t, e in enumerate(exp):
                log[e] = t
            self._exp, self._log = exp, log
        return self._exp, self._log

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        if self.q > _TABLE_LIMIT:
            return self._mul_raw(a, b)
        exp, log = self.tables()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: FieldElement) -> FieldElement:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.q > _TABLE_LIMIT:
            return self._pow_raw(a, self.q - 2)
        exp, log = self.tables()
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]

    def _pow_raw(self, a: FieldElement, k: int) -> FieldElement:
        r = 1
        while k:
            if k & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return r

    def pow(self, a: FieldElement, k: int) -> FieldElement:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if k < 0:
            a = self.inv(a)
            k = -k
        k %= self.q - 1 or 1
        if self.m == 1:
            return pow(a, k, self.p) if k else 1
        return self._pow_raw(a, k)


def field_new(p: int, m: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Validated GF(p^m); the modulus is implicit (x) for prime fields.

    Raises ValueError for non-prime p, wrong modulus degree, or a
    reducible modulus.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        if m != 1:
            raise ValueError(f"GF({p}^{m}) needs an explicit degree-{m} modulus")
        modulus = (0, 1)
    coeffs = tuple(c % p for c in modulus)
    if len(coeffs) != m + 1 or coeffs[m] == 0:
        raise ValueError(f"modulus {tuple(modulus)!r} must have degree exactly {m}")
    if coeffs[m] != 1:
        scale = pow(coeffs[m], p - 2, p)
        coeffs = tuple(c * scale % p for c in coeffs)
    if not _is_irreducible(coeffs, p):
        raise ValueError(f"modulus {coeffs!r} is reducible over GF({p})")
    return FieldSpec(p, m, coeffs)


def is_primitive(field: FieldSpec, e: FieldElement) -> bool:
    """True iff e generates the multiplicative group (order exactly q-1),
    read off the field's discrete log: g^t generates iff gcd(t, q-1) = 1."""
    if not 0 < e < field.q:
        raise ValueError(f"{e} is not in the multiplicative group of GF({field.q})")
    return math.gcd(field.tables()[1][e], field.q - 1) == 1


def primitive_elements(field: FieldSpec) -> list[FieldElement]:
    """All primitive elements, ascending by encoding."""
    if field.q > PRIMITIVE_ELEMENT_GUARD:
        raise ValueError(f"q={field.q} exceeds the enumeration guard {PRIMITIVE_ELEMENT_GUARD}")
    return [e for e in field.nonzero_elements() if is_primitive(field, e)]


def g3_admissible(field: FieldSpec) -> list[FieldElement]:
    """Primitive phi for which 1 - phi is also primitive."""
    one = 1
    return [e for e in primitive_elements(field) if is_primitive(field, field.sub(one, e))]


def g3_cube_admissible(field: FieldSpec) -> list[FieldElement]:
    """Primitive phi for which both 1 - phi and 1 - phi^{-1} are primitive.

    May be empty (it is for GF(16)).
    """
    return [
        e
        for e in g3_admissible(field)
        if is_primitive(field, field.sub(1, field.inv(e)))
    ]


# -- text forms (CLI surface) ------------------------------------------


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p^m:c0,c1,...,cm" (e.g. "2^4:1,0,0,1,1") or the prime
    shorthand "13"."""
    text = text.strip()
    if ":" not in text and "^" not in text:
        return field_new(int(text), 1)
    head, _, tail = text.partition(":")
    if "^" not in head or not tail:
        raise ValueError(f"bad field spec {text!r}; expected p^m:c0,...,cm")
    p_str, _, m_str = head.partition("^")
    coeffs = tuple(int(c) for c in tail.split(","))
    return field_new(int(p_str), int(m_str), coeffs)


def format_field_spec(field: FieldSpec) -> str:
    if field.m == 1:
        return str(field.p)
    return f"{field.p}^{field.m}:" + ",".join(map(str, field.modulus))


def parse_element(field: FieldSpec, text: str) -> FieldElement:
    """Parse an element given as an integer encoding or a polynomial
    string such as "1+2x^2"; both forms yield the same encoding."""
    text = text.strip().replace(" ", "")
    if "x" not in text:
        e = int(text)
        if not 0 <= e < field.q:
            raise ValueError(f"encoding {e} out of range [0, {field.q})")
        return e
    coeffs = [0] * field.m
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "x" in term:
            c_str, _, rest = term.partition("x")
            c = int(c_str) if c_str else 1
            k = int(rest[1:]) if rest.startswith("^") else (1 if not rest else None)
            if k is None:
                raise ValueError(f"bad term {term!r}")
        else:
            c, k = int(term), 0
        if k >= field.m:
            raise ValueError(f"term {term!r} has degree >= field degree {field.m}")
        coeffs[k] = (coeffs[k] + (-c if neg else c)) % field.p
    return field.encode(coeffs)


def format_element(field: FieldSpec, e: FieldElement) -> str:
    if field.m == 1:
        return str(e)
    terms = []
    for k, c in enumerate(field.digits(e)):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            base = "x" if k == 1 else f"x^{k}"
            terms.append(base if c == 1 else f"{c}{base}")
    return "+".join(terms) if terms else "0"
