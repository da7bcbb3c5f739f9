"""Generator matrices of monomial Cartesian codes, row reduction over GF(q),
and code-level equality via reduced row echelon forms."""

from __future__ import annotations

from .field import Field, FieldElement
from .poly import Polynomial, evaluate_on_set, sorted_monomials


def rref_ix(rows, F: Field):
    """Reduced row echelon form with leading ones, over element indices.

    Returns (rows, rank, pivots) where rows is a tuple of row tuples with
    zero rows dropped.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv_ix(rows[r][c])
        if inv != 1:
            rows[r] = [F.mul_ix(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = F.neg_ix(rows[i][c])
                ri, rr = rows[i], rows[r]
                rows[i] = [F.add_ix(ri[j], F.mul_ix(f, rr[j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), r, tuple(pivots)


def rank_ix(rows, F: Field) -> int:
    return rref_ix(rows, F)[1]


def row_space_contains(rref, pivots, vec, F: Field) -> bool:
    """Membership of vec in the row space described by an rref and its pivots."""
    vec = list(vec)
    for row, c in zip(rref, pivots):
        f = vec[c]
        if f:
            nf = F.neg_ix(f)
            vec = [F.add_ix(v, F.mul_ix(nf, r)) for v, r in zip(vec, row)]
    return not any(vec)


class GeneratorMatrix:
    """Evaluation vectors of a monomial set on a Cartesian set, one row per
    monomial in graded-lex order."""

    def __init__(self, field, monomials, rows, cartesian=None):
        self.field = field
        self.monomials = tuple(monomials)
        self.rows = tuple(tuple(r) for r in rows)
        self.cartesian = cartesian
        self._rref = None

    @property
    def n(self):
        return len(self.rows[0]) if self.rows else 0

    def rref(self):
        if self._rref is None:
            self._rref = rref_ix(self.rows, self.field)
        return self._rref

    def dimension(self) -> int:
        return self.rref()[1]

    def contains_word(self, vec) -> bool:
        rows, _, pivots = self.rref()
        vec = [x.ix if isinstance(x, FieldElement) else self.field(x).ix for x in vec]
        return row_space_contains(rows, pivots, vec, self.field)

    def permute_columns(self, pi) -> "GeneratorMatrix":
        """Column action of a coordinate permutation: new column t is the old
        column pi[t]."""
        return GeneratorMatrix(self.field, self.monomials,
                               [tuple(row[pi[t]] for t in range(len(row)))
                                for row in self.rows],
                               self.cartesian)

    def to_json(self):
        F = self.field
        return [[list(FieldElement(F, x).coeffs) for x in row] for row in self.rows]

    def to_text(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def __repr__(self):
        return f"GeneratorMatrix({len(self.rows)} x {self.n} over GF({self.field.q}))"


def exponent_set(L, S) -> frozenset:
    """The members of L, a MonomialSet or any iterable of exponent vectors
    read once, as a frozenset of tuples; the first, in L's order, of the wrong
    arity or outside the exponent box of S (e_j < n_j) is a ValueError."""
    members = tuple(map(tuple, getattr(L, "monomials", L)))
    for e in members:
        if len(e) != S.m:
            raise ValueError(f"monomial {e} has wrong arity")
        if any(e[j] >= S.sizes[j] for j in range(S.m)):
            raise ValueError(f"monomial {e} outside the exponent box of the set")
    return frozenset(members)


def build_code(L, S) -> GeneratorMatrix:
    """Generator matrix of the monomial Cartesian code of L on S."""
    F = S.field
    exps = sorted_monomials(exponent_set(L, S))
    rows = [tuple(x.ix for x in evaluate_on_set(Polynomial.monomial(F, e), S))
            for e in exps]
    return GeneratorMatrix(F, exps, rows, S)


def codes_equal(c1: GeneratorMatrix, c2: GeneratorMatrix) -> bool:
    return c1.rref()[0] == c2.rref()[0]
