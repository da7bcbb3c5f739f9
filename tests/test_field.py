"""Field arithmetic, default polynomials, digit utilities."""

import math
import random
import time
import tracemalloc

import pytest

from cartperm.field import (
    GF, Field, FieldError, TABLE_LIMIT, TRIAL_DIVISOR_LIMIT, default_irreducible,
    is_prime, leq_p, leq_p_values, multinomial_nonzero_mod_p, p_adic,
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
            assert F.subfield_elements(d) == members


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


# every prime power up to 64, three larger fields and three custom polynomials
TABLE_FIELDS = [GF(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                                37, 41, 43, 47, 49, 53, 59, 61, 64, 81, 125, 256)] \
    + [Field(2, 3, (1, 0, 1, 1)), Field(2, 4, (1, 0, 0, 1, 1)), Field(3, 2, (2, 2, 1))]


def test_np_tables_agree():
    # every table against a table-free reference: products by polynomial
    # multiplication and reduction, sums digit by digit on the coordinate
    # vectors, inverses by their products; every scalar method reads the same
    np = pytest.importorskip("numpy")
    for F in TABLE_FIELDS:
        q, t = F.q, F.np_tables()
        assert all(a.dtype == np.uint16 for a in (t.mul, t.add, t.neg, t.inv))
        assert t.mul.shape == t.add.shape == (q, q)
        assert t.neg.shape == t.inv.shape == (q,)
        pairs = [(a, b) for a in range(q) for b in range(q)]
        assert t.mul.ravel().tolist() == [F._mul_ix_slow(a, b) for a, b in pairs]
        digits = np.array([F(a).coeffs for a in range(q)])
        sums = (digits[:, None] + digits) % F.p @ F.p ** np.arange(F.k)
        assert np.array_equal(t.add, sums)
        assert np.array_equal(t.add[np.arange(q), t.neg], np.zeros(q))
        assert t.inv[0] == 0 and (t.mul[np.arange(1, q), t.inv[1:]] == 1).all()
        assert t.mul.ravel().tolist() == [F.mul_ix(a, b) for a, b in pairs]
        assert t.add.ravel().tolist() == [F.add_ix(a, b) for a, b in pairs]
        assert t.neg.tolist() == [F.neg_ix(a) for a in range(q)]
        assert t.inv[1:].tolist() == [F.inv_ix(a) for a in range(1, q)]


def test_tables_exist_once():
    # a fresh GF(1024), since GF caches its fields: the four uint16 arrays
    # hold 4 MiB, and the scalar arithmetic indexes views of those arrays,
    # not q x q lists of its own (20 MiB held with them)
    np = pytest.importorskip("numpy")
    F = Field(2, 10)
    tracemalloc.start()
    try:
        t = F.np_tables()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 6 << 20, held
    for view, table in ((F._mul, t.mul), (F._add, t.add), (F._neg, t.neg), (F._inv, t.inv)):
        assert np.shares_memory(np.asarray(view), table)
    assert F.mul_ix(3, 1000) == t.mul[3, 1000] and F.add_ix(3, 1000) == t.add[3, 1000]


def test_tables_take_o_of_q_table_free_products(monkeypatch):
    # the powers of the primitive element of smallest index, and of the
    # elements of smaller index, which return to 1 sooner; a full product
    # table would take q(q + 1)/2.  Fresh fields, since GF caches its fields.
    calls = []
    slow = Field._mul_ix_slow
    monkeypatch.setattr(Field, "_mul_ix_slow",
                        lambda F, a, b: calls.append(1) or slow(F, a, b))
    for p, k in ((3, 6), (2, 10), (2, 11), (5, 5)):
        calls.clear()
        F = Field(p, k)
        F.np_tables()
        assert 0 < len(calls) < 10 * F.q, (F, len(calls))


def test_int_equality_agrees_with_hash():
    F = GF(4)
    x = F(3)
    assert x == 3 and 3 == x
    assert x != 7 and x != -1
    assert 3 in {x} and x in {3}
    assert {x: "a"}[3] == "a" and {3: "b"}[x] == "b"
    assert hash(x) == hash(3)
    assert F.zero == 0 and F.zero != 4


def test_is_prime_is_exact():
    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        [n for n in range(2, 5000) if all(n % f for f in range(2, math.isqrt(n) + 1))]
    # the smallest strong pseudoprimes to the first 1, 2, 3, ..., 12 prime
    # bases (some serve several)
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(1000000000000000003) and is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


def test_gf_finds_the_prime_by_roots():
    for q in (2, 4, 8, 9, 25, 27, 49, 64, 125, 4096, 8192):
        F = GF(q)
        assert F.p ** F.k == q and is_prime(F.p)
    for q in (6, 12, 100, 2 ** 64 * 3):
        with pytest.raises(FieldError):
            GF(q)
    F = GF(1000000000000000003)
    assert (F.p, F.k) == (1000000000000000003, 1)


def test_np_tables_name_their_limit():
    F = GF(8192)
    with pytest.raises(FieldError, match=f"at most {TABLE_LIMIT} elements"):
        F.np_tables()


@pytest.mark.parametrize("F", SMALL_FIELDS + [Field(2, 3, (1, 0, 1, 1)), GF(8192)],
                         ids=lambda F: f"GF{F.q}-{''.join(map(str, F.irreducible))}")
def test_add_and_neg_are_digitwise(F):
    # coordinate vectors add digit by digit modulo p, whether add_ix reads
    # the tables (q <= TABLE_LIMIT) or loops over the digits
    def ix(digits):
        return sum(d * F.p ** t for t, d in enumerate(digits))

    els = F.elements() if F.q <= 256 else F.elements()[::97]
    for x in els:
        assert F.neg_ix(x.ix) == ix([-d % F.p for d in x.coeffs])
        for y in els:
            assert F.add_ix(x.ix, y.ix) == \
                ix([(d + e) % F.p for d, e in zip(x.coeffs, y.coeffs)])


def test_irreducibility_search_is_bounded():
    # p + p^2 + ... + p^(k // 2) monic trial divisors, at most the limit
    assert TRIAL_DIVISOR_LIMIT == 1 << 15
    assert len(default_irreducible(2, 29)) == 30        # 2^15 - 2 divisors
    for p, k in ((2, 30), (2, 64), (2, 10 ** 12), (2 ** 61 - 1, 3), (32771, 2)):
        t0 = time.perf_counter()
        with pytest.raises(FieldError, match="trial divisors"):
            default_irreducible(p, k)
        with pytest.raises(FieldError, match="trial divisors"):
            Field(p, k, [1] + [0] * (k - 1) + [1] if k < 100 else None)
        assert time.perf_counter() - t0 < 1.0
    with pytest.raises(FieldError, match="trial divisors"):
        GF((2 ** 61 - 1) ** 3)


def test_element_reflected_subtraction_division_and_repr():
    F = GF(5)
    e = F(3)
    # 2 - 3 = -1 = 4; 2^-1 = 3, so 3 / 2 = 3 * 3 = 9 = 4
    assert 2 - e == F(4)
    assert e / F(2) == F(4)
    # GF(9) = GF(3)[a]: an index holds its digits base 3, the constant
    # first, so 6 = 2a and 8 = 2 + 2a
    G = GF(9)
    assert repr(G(6)) == "2*a" and repr(G(8)) == "2+2*a" and repr(G(0)) == "0"


def test_inverse_past_the_table_limit_builds_no_tables():
    # GF(8192) = GF(2^13) is past TABLE_LIMIT: the inverse is a power,
    # a^(q - 2), by the table-free product
    F = GF(8192)
    assert F.q > TABLE_LIMIT
    for a in (1, 2, 4097, 8191):
        assert F.mul_ix(a, F.inv_ix(a)) == 1
    assert F._tables is None
