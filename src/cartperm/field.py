"""Exact arithmetic in GF(p^k), subfield tests, and base-p digit utilities.

Elements are coordinate vectors in the power basis 1, a, ..., a^(k-1) of a
root a of the chosen monic irreducible polynomial.  Internally every element
is identified with its index sum(c_i * p^i), which makes tables and numpy
kernels cheap; the index encoding is part of the public contract (canonical
element order).

A field of at most TABLE_LIMIT elements builds its lookup tables once, on
first use, as numpy arrays: products and inverses from the exponent and
logarithm tables of a primitive element (fewer than 10 q table-free
products; Lidl and Niederreiter, Finite Fields), sums and negations digit by
digit.  They exist once, in the Tables object of np_tables.  The scalar
index arithmetic indexes flat memoryviews of its arrays; the batched kernels
call its vectorized arithmetic, where a sum in characteristic 2 is the XOR
of the indices (which hold the GF(2) coordinates as bits), and elsewhere a
lookup on a uint16 flat index (uint32 past q = 256).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# fields up to this size get full q x q multiplication/addition tables
TABLE_LIMIT = 4096

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# most monic trial divisors an irreducibility test may try: under a second
# of trial division at the slowest measured rate, about 20 us per divisor
TRIAL_DIVISOR_LIMIT = 1 << 15


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2 to 41: exact for
    n < 3.3 * 10^24 (a strong probable-prime test beyond)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n (integer Newton iteration from above)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers over Z_p (coefficient lists, constant
# term first, no trailing zeros except [] for 0)

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j in range(dm):
                a[shift + j] = (a[shift + j] - c * m[j]) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(c, p):
    """Trial division by every monic polynomial of degree <= deg(c)/2."""
    k = len(c) - 1
    _check_trial_division(p, k)
    if k < 1 or c[0:1] == [] or c[-1] != 1:
        return False
    if k == 1:
        return True
    if c[0] == 0:
        return False  # divisible by x
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            div = list(low) + [1]
            if not _poly_mod(c, div, p):
                return False
    return True


def _check_trial_division(p, k):
    """Raise FieldError when testing a degree-k polynomial over Z_p for
    irreducibility would try more than TRIAL_DIVISOR_LIMIT monic divisors
    (p + p^2 + ... + p^(k // 2) of them)."""
    count, power = 0, 1
    for _ in range(k // 2):
        power *= p
        count += power
        if count > TRIAL_DIVISOR_LIMIT:
            raise FieldError(f"GF({p}^{k}) is too large: testing a degree-{k} "
                             f"polynomial for irreducibility would try more "
                             f"than {TRIAL_DIVISOR_LIMIT} trial divisors")


def default_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible of degree k over Z_p with the smallest base-p
    integer encoding of its coefficient vector (constant term least
    significant).  Deterministic; k=1 gives x."""
    if k == 1:
        return (0, 1)
    _check_trial_division(p, k)
    for enc in range(p ** k):
        c = list(_digits(enc, p, k)) + [1]
        if _poly_is_irreducible(c, p):
            return tuple(c)
    raise ArithmeticError(f"no irreducible of degree {k} over Z_{p}")  # unreachable


def _digitwise_tables(p, k):
    """The q x q addition table, the negation table and the q x k table of
    coordinate vectors (digits) of GF(p^k) on element indices: coordinate
    vectors add digit by digit modulo p."""
    ix = np.arange(p ** k, dtype=np.uint16)
    add = np.zeros((len(ix), len(ix)), dtype=np.uint16)
    neg = np.zeros_like(ix)
    digits = np.zeros((len(ix), k), dtype=np.uint16)
    for t in range(k):
        digits[:, t] = digit = ix // p ** t % p
        add += (digit[:, None] + digit) % p * p ** t
        neg += (p - digit) % p * p ** t
    return add, neg, digits


def _digits(n, p, width):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


# ---------------------------------------------------------------------------

class FieldError(ValueError):
    pass


class Tables:
    """The lookup tables of one field on element indices, as uint16 arrays:
    mul and add (q x q), neg and inv (q; inv[0] = 0), digits (q x k, each
    element's coefficient vector, constant term first), and the vectorized
    arithmetic over them; sums are XOR in characteristic 2."""

    def __init__(self, F, mul, add, neg, inv, digits):
        self.q, self.mul, self.add, self.neg, self.inv = F.q, mul, add, neg, inv
        self.digits = digits
        # flat indices x * q + y < q * q fit the uint16 of the elements up
        # to q = 256
        self.ix = np.uint16 if F.q <= 256 else np.uint32
        if F.p == 2:
            self.vadd = np.bitwise_xor

    def flat(self, x, y):
        """The flat table index x * q + y."""
        return x.astype(self.ix, copy=False) * self.q + y

    def vadd(self, x, y):
        # one flat index array: every sum has an operand of its full shape
        return self.add.take(self.flat(x, y))

    def vmul(self, x, y):
        # two broadcast index arrays: a product of a few maps by many points
        # would otherwise need a flat index array of its full shape
        return self.mul[x.astype(np.int64), y.astype(np.int64)]


class FieldElement:
    """Element of a Field; immutable, hashable, printable as a polynomial in a.
    An int compares equal to the element whose index it is."""

    __slots__ = ("field", "ix")

    def __init__(self, field, ix):
        self.field = field
        self.ix = ix

    @property
    def coeffs(self):
        return tuple(_digits(self.ix, self.field.p, self.field.k))

    def __bool__(self):
        return self.ix != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ix == other.ix and self.field == other.field
        if isinstance(other, int):
            return other == self.ix
        return NotImplemented

    def __hash__(self):
        return hash(self.ix)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add_ix(self.ix, o.ix))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_ix(self.ix, o.ix))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_ix(o.ix, self.ix))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_ix(self.ix))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_ix(self.ix, o.ix))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_ix(self.ix, self.field.inv_ix(o.ix)))

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_ix(self.ix, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_ix(self.ix))

    def multiplicative_order(self):
        if self.ix == 0:
            raise FieldError("0 has no multiplicative order")
        n, acc = 1, self.ix
        while acc != 1:
            acc = self.field.mul_ix(acc, self.ix)
            n += 1
        return n

    def in_subfield(self, d: int) -> bool:
        """True iff the element lies in the subfield F_{p^d}; requires d | k."""
        F = self.field
        if F.k % d != 0:
            raise FieldError(f"{d} does not divide extension degree {F.k}")
        return F.pow_ix(self.ix, F.p ** d) == self.ix

    def to_json(self):
        return list(self.coeffs)

    def __repr__(self):
        F = self.field
        if F.k == 1:
            return str(self.ix)
        names = {0: "1", 1: "a"}
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            v = names.get(i, f"a^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(v)
            else:
                parts.append(f"{c}*{v}")
        return "+".join(parts) if parts else "0"


class Field:
    """GF(p^k) under a fixed monic irreducible polynomial.

    Immutable after construction.  The lookup tables of a field of at most
    TABLE_LIMIT elements are built on first use (np_tables) and are
    behaviorally invisible.
    """

    def __init__(self, p: int, k: int = 1, irreducible=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 1:
            raise FieldError("extension degree must be >= 1")
        if irreducible is None:
            irreducible = default_irreducible(p, k)
        else:
            irreducible = tuple(c % p for c in irreducible)
            if len(irreducible) != k + 1 or irreducible[-1] != 1:
                raise FieldError("irreducible polynomial must be monic of degree k")
            if not _poly_is_irreducible(list(irreducible), p):
                raise FieldError(f"{list(irreducible)} is reducible over Z_{p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.irreducible = irreducible
        self._mul = None
        self._inv = None
        self._add = None
        self._neg = None
        self._tables = None

    # -- identity -----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.irreducible == other.irreducible)

    def __hash__(self):
        return hash((self.p, self.k, self.irreducible))

    def __repr__(self):
        return f"GF({self.q})"

    # -- element constructors -------------------------------------------------
    def __call__(self, x) -> FieldElement:
        """Make an element from an index (base-p encoding of the coordinate
        vector) or from a coordinate sequence."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldError("element of a different field")
            return x
        if isinstance(x, int):
            return FieldElement(self, x % self.q)
        coeffs = [c % self.p for c in x]
        if len(coeffs) > self.k:
            raise FieldError("coordinate vector too long")
        ix = 0
        for c in reversed(coeffs):
            ix = ix * self.p + c
        return FieldElement(self, ix)

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, 1)

    def elements(self):
        return [FieldElement(self, i) for i in range(self.q)]

    # -- index arithmetic -----------------------------------------------------
    # a field of at most TABLE_LIMIT elements indexes flat memoryviews of
    # its tables: for k > 1 every operation builds them on first use; for
    # k = 1 products and inverses are modular, and sums and negations read
    # the tables once something else has built them
    def add_ix(self, a: int, b: int) -> int:
        if self._add is None:
            if self.k == 1:
                return (a + b) % self.p
            if self.q > TABLE_LIMIT:
                p, out, mult = self.p, 0, 1
                for _ in range(self.k):
                    out += ((a + b) % p) * mult
                    a //= p
                    b //= p
                    mult *= p
                return out
            self._ensure_tables()
        return self._add[a * self.q + b]

    def neg_ix(self, a: int) -> int:
        if self._neg is None:
            if self.k == 1:
                return (-a) % self.p
            if self.q > TABLE_LIMIT:
                p, out, mult = self.p, 0, 1
                for _ in range(self.k):
                    out += ((-a) % p) * mult
                    a //= p
                    mult *= p
                return out
            self._ensure_tables()
        return self._neg[a]

    def sub_ix(self, a: int, b: int) -> int:
        return self.add_ix(a, self.neg_ix(b))

    def _mul_ix_slow(self, a, b):
        prod = _poly_mul(_digits(a, self.p, self.k), _digits(b, self.p, self.k), self.p)
        red = _poly_mod(prod, list(self.irreducible), self.p)
        ix = 0
        for c in reversed(red):
            ix = ix * self.p + c
        return ix

    def _ensure_tables(self):
        """The Tables of np_tables, and flat memoryviews of its arrays for
        the scalar arithmetic.  The powers of each element in index order,
        until they return to 1, find the primitive element g of smallest
        index with the table-free product (fewer than 10 q products for
        every q up to TABLE_LIMIT).  The exponent and logarithm tables of g
        give the products and inverses by one gather each; sums and
        negations are digitwise."""
        if self._tables is not None:
            return
        q = self.q
        if q > TABLE_LIMIT:
            raise FieldError(f"numpy tables are built only for fields of at "
                             f"most {TABLE_LIMIT} elements, not GF({q})")
        for g in range(1, q):
            exp = [1]           # the powers of g until they return to 1
            for _ in range(q - 2):
                exp.append(self._mul_ix_slow(exp[-1], g))
                if exp[-1] == 1:
                    break
            else:
                break
        exp = np.array(exp + exp, dtype=np.uint16)  # exp[i] = g^i, i < 2(q - 1)
        log = np.zeros(q, dtype=np.int32)
        log[exp[:q - 1]] = np.arange(q - 1)
        mul = exp[log[:, None] + log]
        mul[0] = mul[:, 0] = 0
        inv = exp[q - 1 - log]
        inv[0] = 0
        add, neg, digits = _digitwise_tables(self.p, self.k)
        self._tables = Tables(self, mul, add, neg, inv, digits)
        self._mul, self._add, self._neg, self._inv = (
            memoryview(t.ravel()) for t in (mul, add, neg, inv))

    def mul_ix(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self.q <= TABLE_LIMIT:
            self._ensure_tables()
            return self._mul[a * self.q + b]
        return self._mul_ix_slow(a, b)

    def inv_ix(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= TABLE_LIMIT:
            self._ensure_tables()
            return self._inv[a]
        return self.pow_ix(a, self.q - 2)

    def pow_ix(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_ix(a)
            e = -e
        out = 1
        while e:
            if e & 1:
                out = self.mul_ix(out, a)
            a = self.mul_ix(a, a)
            e >>= 1
        return out

    # -- structure ------------------------------------------------------------
    def primitive_element(self) -> FieldElement:
        """The element of smallest index whose multiplicative order is q-1."""
        target = self.q - 1
        factors = _prime_factors(target)
        for ix in range(1, self.q):
            if all(self.pow_ix(ix, target // r) != 1 for r in factors):
                return FieldElement(self, ix)
        raise ArithmeticError("no primitive element found")  # unreachable

    def subfield_elements(self, d: int):
        """All elements of the subfield F_{p^d}; requires d | k."""
        if self.k % d != 0:
            raise FieldError(f"{d} does not divide extension degree {self.k}")
        if d == self.k:     # the whole field, without q Frobenius powers
            return self.elements()
        return [x for x in self.elements() if x.in_subfield(d)]

    # -- numpy kernels ----------------------------------------------------------
    def np_tables(self) -> Tables:
        """The field's one Tables object, built on first use."""
        self._ensure_tables()
        return self._tables

    # -- serialization ------------------------------------------------------------
    def to_json(self):
        return {"p": self.p, "k": self.k, "irreducible": list(self.irreducible)}

    @staticmethod
    def from_json(obj) -> "Field":
        return Field(obj["p"], obj["k"], obj.get("irreducible"))


@lru_cache(maxsize=None)
def GF(q: int) -> Field:
    """Field of order q = p^k with the default irreducible polynomial."""
    if q < 2:
        raise FieldError("field order must be >= 2")
    for k in range(1, q.bit_length() + 1):
        p = _iroot(q, k)
        if p ** k == q and is_prime(p):
            return Field(p, k)
    raise FieldError(f"{q} is not a prime power")


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# base-p digit machinery

def p_adic(n: int, p: int) -> tuple:
    """Base-p digits of n, least significant first; () for 0."""
    if n < 0:
        raise ValueError("p_adic requires a nonnegative integer")
    out = []
    while n:
        out.append(n % p)
        n //= p
    return tuple(out)


def leq_p(a: int, b: int, p: int) -> bool:
    """Digitwise base-p comparison; equivalent to binomial(b, a) != 0 mod p."""
    while a or b:
        if a % p > b % p:
            return False
        a //= p
        b //= p
    return True


def leq_p_values(v: int, p: int):
    """All l with l digitwise <= v in base p, ascending."""
    digs = p_adic(v, p) or (0,)
    vals = [0]
    mult = 1
    for d in digs:
        vals = [x + c * mult for x in vals for c in range(d + 1)]
        mult *= p
    return sorted(vals)


def multinomial_nonzero_mod_p(v: int, parts, p: int) -> bool:
    """True iff the multinomial coefficient (v; parts) is nonzero mod p,
    decided by the chained digitwise test."""
    parts = list(parts)
    if sum(parts) != v or any(x < 0 for x in parts):
        raise ValueError("parts must be nonnegative and sum to v")
    rem = v
    for part in parts:
        if not leq_p(part, rem, p):
            return False
        rem -= part
    return True
