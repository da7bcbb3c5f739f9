"""Sparse multivariate polynomials over GF(q): arithmetic, affine
substitution, canonical reduction modulo a Cartesian vanishing ideal, and
evaluation.  This module is the package's only scalar polynomial engine: one
term reducer (``add_term``), one product (``mul_terms``) and one pullback
helper (``affine_pullback``) serve ``Polynomial``, ``substitute_affine``,
``reduce_mod_vanishing`` and ``affine.SpanChecker``, the scalar reference
and witness finder of the span route (batched in ``oracle``).

Term dicts map exponent tuples to nonzero coefficient indices.

Monomials are plain exponent tuples of length m.  Term iteration is in
graded lexicographic order (total degree first, ties broken with x1 biggest)
so printed output and JSON are stable.
"""

from __future__ import annotations

import itertools
import operator

from .field import Field, FieldElement, FieldError


def grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


def sorted_monomials(exps):
    return sorted(exps, key=grlex_key)


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients are stored."""

    __slots__ = ("field", "m", "_terms")

    def __init__(self, field: Field, m: int, terms=None):
        self.field = field
        self.m = m
        clean = {}
        for exp, c in (terms or {}).items():
            ix = c.ix if isinstance(c, FieldElement) else c % field.q
            if ix:
                exp = tuple(exp)
                if len(exp) != m or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp}")
                clean[exp] = ix
        self._terms = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, m):
        return cls(field, m)

    @classmethod
    def constant(cls, field, m, c):
        return cls(field, m, {(0,) * m: field(c)})

    @classmethod
    def variable(cls, field, m, i):
        """The polynomial x_{i+1}; i is a 0-based variable position."""
        exp = [0] * m
        exp[i] = 1
        return cls(field, m, {tuple(exp): 1})

    @classmethod
    def monomial(cls, field, exp, coeff=1):
        return cls(field, len(exp), {tuple(exp): field(coeff)})

    # -- inspection ---------------------------------------------------------
    def support(self):
        return sorted_monomials(self._terms)

    def coeff(self, exp) -> FieldElement:
        return FieldElement(self.field, self._terms.get(tuple(exp), 0))

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.m == other.m and self._terms == other._terms)

    def __len__(self):
        return len(self._terms)

    # -- ring operations ------------------------------------------------------
    def _check(self, other):
        if self.field != other.field or self.m != other.m:
            raise FieldError("polynomials from different ambients")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            add_term(out, e, c, self.field)
        return self._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return self._raw({e: F.neg_ix(c) for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self._raw(mul_terms(self.field, self._terms, other._terms))

    __rmul__ = __mul__

    def scale(self, c):
        F = self.field
        cix = F(c).ix
        if cix == 0:
            return Polynomial.zero(F, self.m)
        return self._raw({e: F.mul_ix(v, cix) for e, v in self._terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.field, self.m, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _raw(self, terms):
        p = Polynomial.__new__(Polynomial)
        p.field = self.field
        p.m = self.m
        p._terms = terms
        return p

    # -- serialization ------------------------------------------------------------
    def to_json(self):
        return [{"exp": list(e), "coeff": list(FieldElement(self.field, c).coeffs)}
                for e, c in ((e, self._terms[e]) for e in self.support())]

    @classmethod
    def from_json(cls, field, m, obj):
        return cls(field, m, {tuple(t["exp"]): field(t["coeff"]) for t in obj})

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in self.support():
            c = FieldElement(self.field, self._terms[e])
            factors = [f"x{i + 1}" + (f"^{d}" if d > 1 else "")
                       for i, d in enumerate(e) if d]
            if not factors:
                parts.append(repr(c))
            elif c == self.field.one:
                parts.append("*".join(factors))
            else:
                parts.append(f"({c!r})*" + "*".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the engine: term reducer, product, affine pullback

def add_term(out, e, c, F: Field, S=None):
    """Add c * x^e into the term dict out, reduced modulo the vanishing
    ideal of the Cartesian set S when S is given."""
    if S is not None:
        for j, n in enumerate(S.sizes):
            if e[j] >= n:
                # x_j^e[j] is a combination of lower powers; add each piece
                for d, rc in enumerate(S.power_reduction(j, e[j])):
                    if rc:
                        add_term(out, e[:j] + (d,) + e[j + 1:], F.mul_ix(c, rc), F, S)
                return
    v = F.add_ix(out.get(e, 0), c)
    if v:
        out[e] = v
    else:
        out.pop(e, None)


def mul_terms(F: Field, f, g, S=None):
    """Product of two term dicts, each term reduced as it lands when S is
    given."""
    out = {}
    mul = F.mul_ix
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            add_term(out, tuple(map(operator.add, e1, e2)), mul(c1, c2), F, S)
    return out


def affine_pullback(F: Field, A, b, S=None):
    """The map u -> term dict of x^u pulled back through x -> Ax + b (A as
    rows of element indices, b as element indices): products of powers of
    the linear forms of Ax + b, whose powers are memoized.  Every product is
    reduced modulo the vanishing ideal of S when S is given."""
    m = len(A)
    one = (0,) * m
    forms = []
    for i in range(m):
        form = {one[:j] + (1,) + one[j + 1:]: A[i][j] for j in range(m) if A[i][j]}
        if b[i]:
            form[one] = b[i]
        forms.append(form)
    pows = [{0: {one: 1}, 1: form} for form in forms]

    def form_pow(i, d):
        memo = pows[i]
        if d not in memo:
            half = form_pow(i, d // 2)
            sq = mul_terms(F, half, half, S)
            memo[d] = sq if d % 2 == 0 else mul_terms(F, sq, forms[i], S)
        return memo[d]

    def pull(u):
        prod = {one: 1}
        for i, d in enumerate(u):
            if d:
                prod = mul_terms(F, prod, form_pow(i, d), S)
                if not prod:
                    break
        return prod

    return pull


def substitute_affine(f: Polynomial, A, b) -> Polynomial:
    """Replace each x_i in f by the i-th entry of Ax+b, fully expanded.

    A is an m x m matrix and b a length-m vector over the same field, given
    as elements or element indices; no reduction modulo any vanishing ideal
    happens here.
    """
    F, m = f.field, f.m
    A = [[F(x).ix for x in row] for row in A]
    b = [F(x).ix for x in b]
    if len(A) != m or any(len(r) != m for r in A) or len(b) != m:
        raise ValueError("dimension mismatch in affine substitution")
    pull = affine_pullback(F, A, b)
    out = {}
    for e, c in f._terms.items():
        for e2, c2 in pull(e).items():
            add_term(out, e2, F.mul_ix(c, c2), F)
    return f._raw(out)


def reduce_mod_vanishing(f: Polynomial, S) -> Polynomial:
    """Canonical representative of f modulo the vanishing ideal of the
    Cartesian set S: every exponent ends up below the component size and
    evaluations on S are unchanged."""
    F, m = f.field, f.m
    if S.field != F or S.m != m:
        raise FieldError("set and polynomial ambients differ")
    out = {}
    for e, c in f._terms.items():
        add_term(out, e, c, F, S)
    return f._raw(out)


def evaluate_on_set(f: Polynomial, S) -> tuple:
    """Codeword of f on S: evaluations at the canonically ordered points.
    Works from per-component power tables and never reduces f, so it is
    independent of the product and the term reducer."""
    F, m = f.field, f.m
    if S.field != F or S.m != m:
        raise FieldError("set and polynomial ambients differ")
    # pows[j][d][t] = (t-th element of the j-th component)^d
    pows = []
    for j, comp in enumerate(S.components):
        col = [[1] * comp.n]
        for _ in range(max((e[j] for e in f._terms), default=0)):
            col.append([F.mul_ix(x, a.ix) for x, a in zip(col[-1], comp.elements)])
        pows.append(col)
    word = []
    for pt in itertools.product(*[range(n) for n in S.sizes]):
        acc = 0
        for e, c in f._terms.items():
            v = c
            for j, d in enumerate(e):
                if d:
                    v = F.mul_ix(v, pows[j][d][pt[j]])
                    if not v:
                        break
            acc = F.add_ix(acc, v)
        word.append(FieldElement(F, acc))
    return tuple(word)
