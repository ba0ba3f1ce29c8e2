"""Finite-field arithmetic for GF(p) and GF(p^m).

Elements are plain integers in [0, q): the base-p digits of the encoding,
in ascending order, are the coefficients of the residue polynomial.  The
modulus is likewise an ascending coefficient list (c_0, ..., c_m), monic
after normalization, matching notation such as <1 + x^3 + x^4>.

Each field keeps one table, to its least primitive element g
(FieldSpec.tables): exp, log and the Zech column Z[t] = log(1 - g^t).
The field has no other arithmetic: the constructions work on these logs,
and 1 - g^t is exp[Z[t]].  The table is walked with one multiply,
digit by digit, and carry-less for p = 2.  Prime fields use the same
code path with the implicit modulus x, so the encoding of an element of
GF(p) is simply its least residue.  The table is also the only source of primitivity:
e = g^t is primitive iff gcd(t, q-1) = 1, and the log of e to any other
primitive base rho = g^b is log_g(e) * b^(-1) mod q-1.  The admissible
parameter lists are _primitive_logs, one pass over log in element order:
1 - e and 1 - e^(-1) have the logs Z[t] and Z[-t].  The G3 lists are
empty for q <= 3, where no G3 construction exists.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

FieldElement = int

PRIMITIVE_ELEMENT_GUARD = 1 << 20


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


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


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m) with a fixed irreducible modulus; elements are int encodings."""

    p: int
    m: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.m

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

    # -- arithmetic ----------------------------------------------------

    def _mul_raw(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """Product of the digit polynomials, reduced by the modulus; only
        the table walk calls it.  Zero digits of a are skipped.  For p = 2
        the digits are bits and the product is carry-less: b times x^s
        for each bit s of a, reduced by the modulus whenever it reaches
        degree m."""
        if self.p == 2:
            r = 0
            while a:
                if a & 1:
                    r ^= b
                a >>= 1
                b <<= 1
                if b >> self.m:
                    b ^= self._modulus_bits
            return r
        prod = [0] * (2 * self.m - 1)
        db = self.digits(b)
        for s, ca in enumerate(self.digits(a)):
            if ca:
                for t, cb in enumerate(db):
                    prod[s + t] += ca * cb
        return self.encode(_poly_rem(prod, self.modulus, self.p))

    def tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) for the least primitive element g: exp[t] = g^t
        for t in [0, q-1), log[exp[t]] = t and zech[t] = log(1 - g^t)
        (log[0] and zech[0] are unused).

        g is the least element whose power cycle, exp itself, has length
        q-1.  1 - g^t = 1 + g^(t + log(-1)), and adding 1 changes digit 0
        only.  The tables are a cached property of the spec, built on the
        first call; q outside 2..PRIMITIVE_ELEMENT_GUARD raises ValueError
        before anything is built.  A FieldSpec built without field_new may
        not be a field: a walk that reaches q-1 elements without returning
        to 1 raises ValueError.
        """
        return self._tables

    @functools.cached_property
    def _modulus_bits(self) -> int:
        """The modulus as an integer, bit t its coefficient of x^t (p = 2)."""
        return self.encode(self.modulus)

    @functools.cached_property
    def _tables(self) -> tuple[list[int], list[int], list[int]]:
        q = self.q
        if not 2 <= q <= PRIMITIVE_ELEMENT_GUARD:
            raise ValueError(f"q={q} is outside the table range 2..{PRIMITIVE_ELEMENT_GUARD}")
        for g in range(1, q):
            exp = [1]
            acc = g
            while acc != 1:
                if len(exp) == q - 1:
                    raise ValueError(f"{self!r} is not a field: the powers of {g} never reach 1")
                exp.append(acc)
                acc = self._mul_raw(g, acc)  # small g has few nonzero digits
            if len(exp) == q - 1:
                break
        log = [0] * q
        for t, e in enumerate(exp):
            log[e] = t
        p, n = self.p, q - 1
        minus_one = log[p - 1]
        zech = [0] * n
        for t in range(1, n):
            e = exp[(t + minus_one) % n]
            zech[t] = log[e - e % p + (e + 1) % p]
        return exp, log, zech


def field_new(p: int, m: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Validated GF(p^m); the modulus is implicit (x) for prime fields.

    Raises ValueError for p^m above PRIMITIVE_ELEMENT_GUARD, checked
    first so that no primality or irreducibility test runs on a field
    too large to tabulate; then for non-prime p, wrong modulus degree, or
    a reducible modulus.
    """
    # p^m > 2^20 whenever p >= 2 and m >= 21, so m is capped there.
    if p ** min(m, PRIMITIVE_ELEMENT_GUARD.bit_length()) > PRIMITIVE_ELEMENT_GUARD:
        raise ValueError(f"q={p}^{m} exceeds the table guard {PRIMITIVE_ELEMENT_GUARD}")
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


def _primitive_logs(field: FieldSpec, *one_minus: int) -> list[int]:
    """t = log_g(e) of every primitive e, ascending by e, for which each
    1 - e^s, s in one_minus, is primitive too: log(1 - g^(s*t)) = Z[s*t].
    A condition on 1 - e^s is one of the G3 constructions, which need
    q > 3, so such a list is empty for q <= 3; above that, s*t is never
    0 mod q-1."""
    if one_minus and field.q <= 3:
        return []
    _, log, zech = field.tables()
    n = field.q - 1
    return [
        t
        for t in log[1:]
        if math.gcd(t, n) == 1 and all(math.gcd(zech[s * t % n], n) == 1 for s in one_minus)
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
