"""Field arithmetic, default polynomials, digit utilities."""

import math
import random

import pytest

from cartperm.field import (
    GF, Field, FieldError, default_irreducible, leq_p, leq_p_values,
    multinomial_nonzero_mod_p, p_adic,
)

SMALL_FIELDS = [GF(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64)]


def test_default_irreducibles():
    assert default_irreducible(2, 1) == (0, 1)
    assert default_irreducible(2, 4) == (1, 1, 0, 0, 1)      # x^4+x+1
    assert default_irreducible(3, 2) == (1, 0, 1)            # x^2+1
    assert default_irreducible(2, 2) == (1, 1, 1)
    assert default_irreducible(2, 3) == (1, 1, 0, 1)


def test_field_make_errors():
    with pytest.raises(FieldError):
        Field(4, 1)
    with pytest.raises(FieldError):
        Field(2, 2, irreducible=(1, 0, 1))   # (x+1)^2
    with pytest.raises(FieldError):
        Field(2, 2, irreducible=(1, 1, 1, 1))
    with pytest.raises(FieldError):
        GF(12)


def test_basic_arithmetic_values():
    F3 = GF(3)
    assert F3(2) + F3(2) == F3(1)
    F16 = GF(16)
    a = F16(2)
    assert a ** 4 == a + 1
    F9 = GF(9)
    b = F9(3)
    assert b * b == F9(2)


def test_element_representation():
    F9 = GF(9)
    x = F9([2, 1])
    assert x.coeffs == (2, 1)
    assert x.ix == 5
    assert F9.one.coeffs == (1, 0)
    assert not F9.zero
    assert repr(F9(5)) == "2+a"


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=lambda F: f"GF{F.q}")
def test_field_axioms_exhaustive(F):
    els = F.elements()
    one, zero = F.one, F.zero
    for x in els:
        assert x + zero == x
        assert x * one == x
        assert x * zero == zero
        assert x + (-x) == zero
        if x:
            assert x * x.inverse() == one
            assert x ** (F.q - 1) == one
        for y in els:
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) - y == x
    # spot-check associativity/distributivity on random triples
    rng = random.Random(20240 + F.q)
    for _ in range(200):
        x, y, z = (F(rng.randrange(F.q)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=lambda F: f"GF{F.q}")
def test_frobenius_additive(F):
    if F.q <= 64:
        pairs = [(x, y) for x in F.elements() for y in F.elements()]
    else:
        rng = random.Random(777 + F.q)
        pairs = [(F(rng.randrange(F.q)), F(rng.randrange(F.q))) for _ in range(500)]
    for x, y in pairs:
        assert (x + y) ** F.p == x ** F.p + y ** F.p


def test_pow_and_inverse_errors():
    F = GF(8)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1
    assert F.zero ** 0 == F.one
    x = F(5)
    assert x ** -2 == (x.inverse()) ** 2


def test_primitive_element():
    assert GF(2).primitive_element() == GF(2).one
    F16 = GF(16)
    a = F16.primitive_element()
    assert a.ix == 2 and a.multiplicative_order() == 15
    F4 = GF(4)
    g = F4.primitive_element()
    assert g * g == g + 1
    # determinism and minimality of the index
    for F in SMALL_FIELDS:
        g = F.primitive_element()
        assert g.multiplicative_order() == F.q - 1
        for ix in range(1, g.ix):
            assert F(ix).multiplicative_order() != F.q - 1


def test_subfield_membership():
    F16 = GF(16)
    a = F16(2)
    assert F16.zero.in_subfield(1) and F16.zero.in_subfield(2)
    assert (a ** 5).in_subfield(2)
    assert not a.in_subfield(2)
    with pytest.raises(FieldError):
        a.in_subfield(3)
    # exactly p^d members
    for F in (GF(16), GF(64), GF(27)):
        for d in range(1, F.k + 1):
            if F.k % d:
                continue
            members = [x for x in F.elements() if x.in_subfield(d)]
            assert len(members) == F.p ** d


def test_p_adic():
    assert p_adic(0, 3) == ()
    assert p_adic(4, 3) == (1, 1)
    assert p_adic(5, 2) == (1, 0, 1)
    for p in (2, 3, 5):
        for n in range(200):
            digs = p_adic(n, p)
            assert all(0 <= d < p for d in digs)
            assert not digs or digs[-1] != 0
            assert sum(d * p ** i for i, d in enumerate(digs)) == n


def test_leq_p_against_binomials():
    assert leq_p(1, 4, 3)
    assert not leq_p(2, 4, 3)
    for p in (2, 3, 5, 7):
        for b in range(65):
            for a in range(b + 1):
                assert leq_p(a, b, p) == (math.comb(b, a) % p != 0)
            assert leq_p(b, b, p)


def test_leq_p_values():
    assert leq_p_values(4, 3) == [0, 1, 3, 4]
    assert leq_p_values(3, 3) == [0, 3]
    assert leq_p_values(0, 2) == [0]
    for p in (2, 3, 5):
        for v in range(40):
            assert leq_p_values(v, p) == [l for l in range(v + 1) if leq_p(l, v, p)]


def test_multinomial_nonzero():
    assert multinomial_nonzero_mod_p(4, (0, 1, 3), 3)
    assert not multinomial_nonzero_mod_p(4, (0, 2, 2), 3)
    assert multinomial_nonzero_mod_p(7, (7,), 5)
    with pytest.raises(ValueError):
        multinomial_nonzero_mod_p(4, (1, 1), 3)
    # oracle: direct multinomial coefficient
    for p in (2, 3, 5):
        for v in range(13):
            for k0 in range(v + 1):
                for k1 in range(v - k0 + 1):
                    k2 = v - k0 - k1
                    coef = math.factorial(v) // (
                        math.factorial(k0) * math.factorial(k1) * math.factorial(k2))
                    assert multinomial_nonzero_mod_p(v, (k0, k1, k2), p) == (coef % p != 0)


def test_json_round_trip():
    F = GF(9)
    assert Field.from_json(F.to_json()) == F
    x = F(7)
    assert F(x.to_json()) == x


def test_cross_field_mixing_rejected():
    with pytest.raises(FieldError):
        GF(4)(1) + GF(8)(1)


def test_np_tables_agree():
    np = pytest.importorskip("numpy")
    for F in (GF(4), GF(9), GF(16)):
        t = F.np_tables()
        for a in range(F.q):
            for b in range(F.q):
                assert int(t["mul"][a, b]) == F.mul_ix(a, b)
                assert int(t["add"][a, b]) == F.add_ix(a, b)
            assert int(t["neg"][a]) == F.neg_ix(a)
            if a:
                assert int(t["inv"][a]) == F.inv_ix(a)


def test_int_equality_agrees_with_hash():
    F = GF(4)
    x = F(3)
    assert x == 3 and 3 == x
    assert x != 7 and x != -1
    assert 3 in {x} and x in {3}
    assert {x: "a"}[3] == "a" and {3: "b"}[x] == "b"
    assert hash(x) == hash(3)
    assert F.zero == 0 and F.zero != 4
