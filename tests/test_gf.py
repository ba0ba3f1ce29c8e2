import math

import pytest
from hypothesis import given, settings, strategies as st

from costas_cubes import gf
from costas_cubes.construct import default_field
from costas_cubes.gf import (
    FieldSpec,
    _primitive_logs,
    factorize,
    field_new,
    format_element,
    is_primitive,
    parse_element,
    parse_field_spec,
    prime_power,
)

from conftest import (
    EXTENSION_MODULI,
    admissible,
    field_add,
    field_inverses,
    field_mul,
    field_pow,
    field_sub,
    instantiated_fields,
)

GF13 = field_new(13, 1)
GF16 = field_new(2, 4, (1, 0, 0, 1, 1))
GF27 = field_new(3, 3, (1, 0, 2, 1))


def test_field_new_examples():
    assert GF16.q == 16
    assert GF27.q == 27
    with pytest.raises(ValueError, match="reducible"):
        field_new(2, 2, (1, 0, 1))  # (1+x)^2 over GF(2)
    with pytest.raises(ValueError, match="not prime"):
        field_new(6, 1)
    with pytest.raises(ValueError, match="degree"):
        field_new(2, 3, (1, 1, 1))
    with pytest.raises(ValueError, match="^extension degree must be >= 1$"):
        field_new(2, 0)
    with pytest.raises(ValueError, match=r"^GF\(3\^2\) needs an explicit degree-2 modulus$"):
        field_new(3, 2)


@pytest.mark.parametrize("p, m, modulus", [
    (2, 2, (1, 0, 1)),  # (1+x)^2: 1+x is nilpotent
    (2, 2, (0, 1, 1)),  # x(1+x)
    (3, 2, (2, 0, 1)),  # (x-1)(x+1)
    (4, 1, (0, 1)),  # the integers mod 4
])
def test_tables_of_a_non_field_raise(p, m, modulus):
    """FieldSpec does not validate; its table walk stops at q-1 elements
    instead of circling a zero divisor's powers for ever."""
    with pytest.raises(ValueError, match="not a field"):
        FieldSpec(p, m, modulus).tables()


@pytest.mark.parametrize("p, m, modulus", [(1, 1, (0, 1)), (0, 1, (0, 1)), (2, 0, (1,))])
def test_tables_refuse_an_order_below_two(p, m, modulus):
    """q = p^m < 2 has no multiplicative group; the walk is not started."""
    with pytest.raises(ValueError, match="outside the table range"):
        FieldSpec(p, m, modulus).tables()


def test_field_spec_is_a_frozen_value():
    """Equality, hash and repr read (p, m, modulus) only: a built table
    does not change them, and no attribute can be reassigned."""
    assert repr(field_new(2, 4, (1, 0, 0, 1, 1))) == "FieldSpec(p=2, m=4, modulus=(1, 0, 0, 1, 1))"
    fresh = FieldSpec(2, 4, (1, 0, 0, 1, 1))
    assert fresh == GF16 and hash(fresh) == hash(GF16)
    GF16.tables()
    assert fresh == GF16 and hash(fresh) == hash(GF16) and len({fresh, GF16}) == 1
    assert fresh != FieldSpec(2, 4, (1, 1, 0, 0, 1)) and fresh != (2, 4, (1, 0, 0, 1, 1))
    for name, value in (("p", 3), ("modulus", (1, 1, 0, 0, 1)), ("q", 8)):
        with pytest.raises(AttributeError):
            setattr(fresh, name, value)
    assert fresh.q == 16


@pytest.mark.parametrize("p, m, modulus", [
    (1000000000000000003, 1, None),
    (2, 41, (1, 0, 0, 1) + (0,) * 37 + (1,)),  # 1+x^3+x^41, irreducible
    (10**12, 1, None),  # not prime: the guard is reported first
])
def test_field_new_refuses_above_the_guard_before_any_test(monkeypatch, p, m, modulus):
    def never(*_):
        raise AssertionError("primality or irreducibility tested above the guard")

    monkeypatch.setattr(gf, "is_prime", never)
    monkeypatch.setattr(gf, "_is_irreducible", never)
    with pytest.raises(ValueError, match="exceeds the table guard"):
        field_new(p, m, modulus)


def test_field_new_normalizes_leading_coefficient():
    f = field_new(5, 2, (2, 2, 2))  # 2(1 + x + x^2)
    assert f.modulus == (1, 1, 1)


def test_arithmetic_examples():
    """An inverse negates the log, and 1 - e is read from the Zech column."""
    assert field_pow(GF13, 11, -1) == 6
    assert field_pow(GF16, 2, -1) == 12  # x * (x^2 + x^3) = 1 modulo 1 + x^3 + x^4
    for f, a, inverse in ((GF13, 11, 6), (GF16, 2, 12)):
        exp, log, _ = f.tables()
        assert exp[-log[a] % (f.q - 1)] == inverse
    for f in (GF13, GF16, GF27):
        exp, log, zech = f.tables()
        for e in range(2, f.q):
            assert exp[zech[log[e]]] == field_sub(f, 1, e), (f, e)


def _table_mul(field, a, b):
    """a * b read from the field's exp and log tables."""
    if a == 0 or b == 0:
        return 0
    exp, log, _ = field.tables()
    return exp[(log[a] + log[b]) % (field.q - 1)]


def test_mul_matches_naive_oracle():
    """The table product, and the Zech column itself, against the
    digit-level oracles, over every instantiated field with q <= 64."""
    for f in instantiated_fields():
        if f.q > 64:
            continue
        exp, log, zech = f.tables()
        for t in range(1, f.q - 1):
            assert zech[t] == log[field_sub(f, 1, exp[t])], (f, t)
        for a in range(f.q):
            for b in range(f.q):
                assert _table_mul(f, a, b) == field_mul(f, a, b), (f, a, b)


def test_field_axioms_exhaustive_small():
    """The table product and the digit-level sum make a field; both are
    tabulated once per field."""
    for f in instantiated_fields():
        if f.q > 64:
            continue
        elems = range(f.q)
        add = [[field_add(f, a, b) for b in elems] for a in elems]
        mul = [[_table_mul(f, a, b) for b in elems] for a in elems]
        for a in elems:
            for b in elems:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in elems:
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                    assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
        for a in range(1, f.q):
            assert mul[a][field_pow(f, a, -1)] == 1
            assert add[a][field_sub(f, 0, a)] == 0


GF2187 = field_new(*EXTENSION_MODULI[2187])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_field_axioms_random_large(data):
    f = GF2187
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    mul, add = _table_mul, field_add
    assert mul(f, a, add(f, b, c)) == add(f, mul(f, a, b), mul(f, a, c))
    assert mul(f, a, mul(f, b, c)) == mul(f, mul(f, a, b), c)
    assert mul(f, a, b) == field_mul(f, a, b)
    if a:
        assert mul(f, a, field_pow(f, a, -1)) == 1


def test_is_primitive_examples():
    assert is_primitive(GF16, 2)  # x
    for text in ("2+2x", "2+x", "x+x^2"):
        assert is_primitive(GF27, parse_element(GF27, text))
    for f in (GF13, GF16, GF27):
        assert not is_primitive(f, 1)
    with pytest.raises(ValueError):
        is_primitive(GF13, 0)


def test_primitive_elements_examples():
    assert admissible(field_new(5, 1)) == [2, 3]
    thirteens = admissible(GF13)
    assert 11 in thirteens and 6 in thirteens
    assert len(admissible(field_new(2, 2, (1, 1, 1)))) == 2


def test_primitive_element_count_is_totient():
    def totient(n):
        out = n
        for r in factorize(n):
            out -= out // r
        return out

    for f in instantiated_fields():
        if f.q <= 128:
            assert len(_primitive_logs(f)) == totient(f.q - 1)


def test_dlog_examples():
    exp, log, _ = GF13.tables()
    assert exp[:4] == [1, 2, 4, 8]  # g = 2, the least primitive element
    assert log[11] == 7 and log[1] == 0
    # the log to base phi = 11 is log_g / log_g(11) mod q-1
    assert log[11] * pow(log[11], -1, 12) % 12 == 1
    assert exp[log[11]] - 1 == 10  # matches the first W2(13, 11) value
    with pytest.raises(ValueError):
        is_primitive(GF13, 0)
    assert not is_primitive(GF13, 1)


def test_exp_log_round_trip():
    for f in (GF13, GF16, GF27, field_new(2, 1)):
        exp, log, _ = f.tables()
        g = exp[1 % (f.q - 1)]
        assert g == admissible(f)[0]
        assert sorted(exp) == list(range(1, f.q))
        for t in range(f.q - 1):
            assert log[exp[t]] == t
            assert exp[t] == field_pow(f, g, t)


def _digit_walk_tables(field):
    """Oracle: (exp, log, zech) by the walk tables() describes, with every
    product from the digit-level field_mul: g is the least element whose
    powers reach 1 only after q-1 steps, and zech[t] = log(1 - g^t)."""
    q = field.q
    for g in range(1, q):
        exp, acc = [1], g
        while acc != 1 and len(exp) < q - 1:
            exp.append(acc)
            acc = field_mul(field, g, acc)
        if acc == 1 and len(exp) == q - 1:
            break
    log = [0] * q
    for t, e in enumerate(exp):
        log[e] = t
    zech = [0] + [log[field_sub(field, 1, exp[t])] for t in range(1, q - 1)]
    return exp, log, zech


def _second_modulus(field):
    """The binary modulus of the field's degree with the largest encoding
    other than the field's own, or None (degree 2 has one)."""
    m = field.m
    for low in range((1 << m) - 1, -1, -1):
        coeffs = tuple((low >> t) & 1 for t in range(m)) + (1,)
        if coeffs != field.modulus and gf._is_irreducible(coeffs, 2):
            return coeffs
    return None


def test_binary_tables_match_the_digit_walk():
    """The carry-less walk of GF(2^m), m = 1..12, under the default modulus
    and a second irreducible one (GF(4) has no second), builds the tables
    of the digit-level walk; so do the sweep fields (q <= 32) of every
    characteristic."""
    fields = [default_field(q) for q in range(2, 33) if prime_power(q)]
    for m in range(1, 13):
        f = default_field(2**m)
        second = _second_modulus(f)
        fields += [f] if second is None else [f, field_new(2, m, second)]
    assert len({f for f in fields if f.p == 2}) == 23
    for f in fields:
        assert f.tables() == _digit_walk_tables(f), f


def _is_primitive_by_order(field, e):
    """Oracle: e has order q-1 iff e^((q-1)/r) != 1 for every prime r | q-1."""
    n = field.q - 1
    return all(field_pow(field, e, n // r) != 1 for r in factorize(n))


def test_is_primitive_matches_order_oracle():
    for f in instantiated_fields():
        if f.q > 1024:
            continue
        for e in range(1, f.q):
            assert is_primitive(f, e) == _is_primitive_by_order(f, e), (f, e)


def test_admissible_lists_match_elementwise_oracle():
    """The logs that _primitive_logs lists, read through exp, equal the
    element-wise filters through the order oracle and the digit-level
    difference and inverse, in order: every primitive phi, then those with
    1 - phi primitive (the G3 array), then those with 1 - phi^(-1)
    primitive too (both G3 cubes).  The G3 lists hold the parameters of
    constructions that need q > 3."""
    for f in instantiated_fields():
        if f.q > 1024:
            continue
        exp = f.tables()[0]
        primitive = {e for e in range(1, f.q) if _is_primitive_by_order(f, e)}
        want = sorted(primitive)
        assert [exp[t] for t in _primitive_logs(f)] == want, f
        inverse = field_inverses(f, want[0])
        want = [e for e in want if f.q > 3 and field_sub(f, 1, e) in primitive]
        assert [exp[t] for t in _primitive_logs(f, 1)] == want, f
        want = [e for e in want if field_sub(f, 1, inverse[e]) in primitive]
        assert [exp[t] for t in _primitive_logs(f, 1, -1)] == want, f


def test_g3_admissible_examples():
    assert parse_element(GF27, "2+2x") in admissible(GF27, 1)
    gf5 = field_new(5, 1)
    assert set(admissible(gf5, 1)) <= {2, 3}
    for f in (gf5, GF16, GF27):
        for e in admissible(f, 1):
            assert is_primitive(f, e) and is_primitive(f, field_sub(f, 1, e))


def test_g3_admissible_nonempty_for_every_field():
    for f in instantiated_fields():
        if 3 < f.q <= 256:
            assert _primitive_logs(f, 1), f"no admissible element found in GF({f.q})"


def test_g3_cube_admissible_examples():
    assert _primitive_logs(GF16, 1, -1) == []
    assert parse_element(GF27, "2+2x") in admissible(GF27, 1, -1)
    for f in (GF16, GF27, field_new(7, 1)):
        assert set(_primitive_logs(f, 1, -1)) <= set(_primitive_logs(f, 1))


def test_reciprocal_identity_and_power_coverage():
    # (1-y)^(-1) + (1-y^(-1))^(-1) = 1 for y outside {0, 1}, and the powers
    # phi^0..phi^(q-2) of a primitive phi cover every nonzero element.
    for f in instantiated_fields():
        if f.q < 4 or f.q > 1024:
            continue
        inverse = field_inverses(f, admissible(f)[0])
        assert sorted(inverse) == list(range(1, f.q))
        for y in range(2, f.q):
            one_minus = field_sub(f, 1, y), field_sub(f, 1, inverse[y])
            assert field_add(f, *(inverse[x] for x in one_minus)) == 1


def test_field_spec_string_round_trip():
    assert parse_field_spec("13") == GF13
    assert parse_field_spec("2^4:1,0,0,1,1") == GF16
    assert parse_field_spec("3^3:1,0,2,1") == GF27
    with pytest.raises(ValueError):
        parse_field_spec("2^4")


def test_element_text_forms():
    assert parse_element(GF27, "2+2x") == 8
    assert parse_element(GF27, "8") == 8
    assert parse_element(GF16, "x+x^2+x^3") == 14
    assert parse_element(GF13, "11") == 11
    assert format_element(GF27, 8) == "2+2x"
    assert format_element(GF16, 0) == "0"
    assert parse_element(GF27, format_element(GF27, 17)) == 17
    with pytest.raises(ValueError):
        parse_element(GF13, "15")
    with pytest.raises(ValueError):
        parse_element(GF16, "x^9")
    # Signed terms, and an empty term, which is skipped.
    gf9 = default_field(9)
    assert parse_element(gf9, "1-x") == 7
    assert parse_element(gf9, "-x") == 6
    assert parse_element(gf9, "x+") == 3
    with pytest.raises(ValueError, match="^bad term 'x1'$"):
        parse_element(gf9, "x1")


def test_prime_power_detection():
    assert prime_power(27) == (3, 3)
    assert prime_power(13) == (13, 1)
    assert prime_power(24) is None
    assert math.prod(r**e for r, e in factorize(360).items()) == 360
