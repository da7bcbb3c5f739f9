"""Affine transformations T(x) = Ax + b: action on points and polynomials,
induced coordinate permutations, and the two-part membership test for the
affine permutation group of a monomial Cartesian code (point set preserved,
monomial span preserved)."""

from __future__ import annotations

from .codes import exponent_set, rank_ix, rref_ix
from .field import Field, FieldElement, FieldError
from .poly import Polynomial, affine_pullback, grlex_key, substitute_affine


class AffineTransformation:
    """Pair (A, b) over a field; not necessarily invertible.

    A map may also hold its row: the bytes of its [A | b] in the layout of
    oracle.AffineMaps.ab (oracle._rows).  Iterating or indexing an AffineMaps
    hands each map its row through of_ix; oracle._as_array, the packing of
    object lists, stores one on every other map the first time it packs it.
    __init__, compose and invert build none."""

    __slots__ = ("field", "m", "A", "b", "row")

    def __init__(self, field: Field, A, b=None):
        self.field = field
        q = field.q
        # an int entry is an index, reduced as field(x) would reduce it
        rows = [tuple(x % q if isinstance(x, int) else field(x).ix for x in row)
                for row in A]
        self.m = len(rows)
        if any(len(r) != self.m for r in rows):
            raise ValueError("matrix must be square")
        self.A = tuple(rows)
        if b is None:
            b = [0] * self.m
        self.b = tuple(x % q if isinstance(x, int) else field(x).ix for x in b)
        if len(self.b) != self.m:
            raise ValueError("offset length mismatch")

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls, field, m):
        return cls(field, [[1 if i == j else 0 for j in range(m)] for i in range(m)])

    @classmethod
    def of_ix(cls, field, A, b, row):
        """The map of a tuple of row tuples A and a tuple b of element
        indices, with its row (the bytes of [A | b]), all taken as they are:
        no entry is reduced or checked."""
        T = object.__new__(cls)
        T.field, T.m, T.A, T.b, T.row = field, len(A), A, b, row
        return T

    @classmethod
    def translation(cls, field, b):
        b = list(b)
        m = len(b)
        T = cls.identity(field, m)
        return cls(field, T.A, b)

    # -- views ----------------------------------------------------------------
    def is_translation(self):
        return all(self.A[i][j] == (1 if i == j else 0)
                   for i in range(self.m) for j in range(self.m))

    def __eq__(self, other):
        return (isinstance(other, AffineTransformation) and self.field == other.field
                and self.A == other.A and self.b == other.b)

    def __hash__(self):
        return hash((self.A, self.b))

    def __repr__(self):
        return f"Affine(A={[list(r) for r in self.A]}, b={list(self.b)})"

    # -- group structure ---------------------------------------------------------
    def is_invertible(self):
        return rank_ix([list(r) for r in self.A], self.field) == self.m

    def apply_point(self, P):
        F = self.field
        pix = [x.ix if isinstance(x, FieldElement) else F(x).ix for x in P]
        if len(pix) != self.m:
            raise ValueError("point dimension mismatch")
        out = []
        for i in range(self.m):
            acc = self.b[i]
            row = self.A[i]
            for j in range(self.m):
                if row[j] and pix[j]:
                    acc = F.add_ix(acc, F.mul_ix(row[j], pix[j]))
            out.append(FieldElement(F, acc))
        return tuple(out)

    def compose(self, other: "AffineTransformation") -> "AffineTransformation":
        """self after other: x -> self(other(x))."""
        if self.field != other.field or self.m != other.m:
            raise FieldError("transformations over different ambients")
        F, m = self.field, self.m
        A = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                acc = 0
                for t in range(m):
                    acc = F.add_ix(acc, F.mul_ix(self.A[i][t], other.A[t][j]))
                A[i][j] = acc
        b = []
        for i in range(m):
            acc = self.b[i]
            for t in range(m):
                acc = F.add_ix(acc, F.mul_ix(self.A[i][t], other.b[t]))
            b.append(acc)
        return AffineTransformation(F, A, b)

    def invert(self) -> "AffineTransformation":
        """Inverse map; requires an invertible matrix part."""
        F, m = self.field, self.m
        aug = [list(self.A[i]) + [1 if j == i else 0 for j in range(m)]
               for i in range(m)]
        rows, rank, pivots = rref_ix(aug, F)
        if rank < m or pivots[:m] != tuple(range(m)):
            raise FieldError("singular transformation")
        Ainv = [list(rows[i][m:]) for i in range(m)]
        binv = []
        for i in range(m):
            acc = 0
            for t in range(m):
                acc = F.add_ix(acc, F.mul_ix(Ainv[i][t], self.b[t]))
            binv.append(F.neg_ix(acc))
        return AffineTransformation(F, Ainv, binv)

    def of_poly(self, f: Polynomial) -> Polynomial:
        return substitute_affine(f, self.A, self.b)

    # -- serialization -------------------------------------------------------------
    def to_json(self):
        F = self.field
        return {"A": [[list(FieldElement(F, x).coeffs) for x in row] for row in self.A],
                "b": [list(FieldElement(F, x).coeffs) for x in self.b]}

    @staticmethod
    def from_json(field, obj) -> "AffineTransformation":
        return AffineTransformation(field,
                                    [[field(x) for x in row] for row in obj["A"]],
                                    [field(x) for x in obj["b"]])


# ---------------------------------------------------------------------------

def point_walk(T: AffineTransformation, S):
    """Image index of each point of S under T, in point order, and the first
    point whose image leaves S or repeats an earlier image (None when T
    permutes S).  A map over another ambient escapes at the first point."""
    if not _same_ambient(T, S):
        return (), S.points()[0]
    images = []
    seen = set()
    for P in S.points():
        img = T.apply_point(P)
        if not S.contains_point(img):
            return tuple(images), P
        ix = S.point_index(img)
        if ix in seen:
            return tuple(images), P
        seen.add(ix)
        images.append(ix)
    return tuple(images), None


def _same_ambient(T: AffineTransformation, S) -> bool:
    """Whether T acts on the space of S: the same field and dimension."""
    return T.field == S.field and T.m == S.m


def stabilizes_set(T: AffineTransformation, S) -> bool:
    """Whether the image multiset of the points equals the point set."""
    return point_walk(T, S)[1] is None


def induced_permutation(T: AffineTransformation, S):
    """Index permutation pi with point[pi[t]] = T(point[t]); requires a
    stabilizing T.  Composition: pi of (T1 after T2) = pi_T1 compose pi_T2."""
    images, escape = point_walk(T, S)
    if escape is not None:
        raise ValueError("transformation does not stabilize the point set")
    return images


def permute_word(word, pi):
    """Coordinate action of a permutation on a codeword: entry t becomes the
    old entry pi[t]."""
    return tuple(word[pi[t]] for t in range(len(word)))


class SpanChecker:
    """Scalar tester for the span condition of one (monomial set, point set)
    pair: the reduced pullback of every member must be supported inside the
    set.  It finds the witness of membership_report and is the reference of
    the batched span route in oracle."""

    def __init__(self, L, S):
        self.S = S
        self.allowed = exponent_set(L, S)
        self.members = sorted(self.allowed, key=lambda e: (sum(e), e))

    def witness_ix(self, A, b):
        """First (member, monomial) pair, members in (degree, exponent) order,
        whose reduced pullback under x -> Ax + b has that monomial (the first
        in grlex order) outside the set; None when the span is preserved.
        A: rows of element indices, b: element indices."""
        pull = affine_pullback(self.S.field, A, b, self.S)
        for u in self.members:
            bad = [e for e in pull(u) if e not in self.allowed]
            if bad:
                return u, min(bad, key=grlex_key)
        return None

    def check_ix(self, A, b) -> bool:
        """A: rows of element indices, b: element indices."""
        return self.witness_ix(A, b) is None

    def check(self, T: AffineTransformation) -> bool:
        """False for a map over another field or dimension, as for
        stabilizes_set."""
        return _same_ambient(T, self.S) and self.check_ix(T.A, T.b)


def stabilizes_monomial_span(T: AffineTransformation, L, S) -> bool:
    """Condition on the monomial side: for every member u, the support of the
    reduced substitution of u under T stays inside the set."""
    return SpanChecker(L, S).check(T)


def is_affine_permutation(T: AffineTransformation, L, S) -> bool:
    """Both membership conditions; L is read and checked whatever T is."""
    span = SpanChecker(L, S)
    return stabilizes_set(T, S) and span.check(T)


def membership_report(T: AffineTransformation, L, S) -> dict:
    """Both membership conditions for one transformation, with the first
    offending point or (member, monomial) pair as a witness.  A map over
    another field or dimension keeps neither, with its escape point."""
    escape = point_walk(T, S)[1]
    span = SpanChecker(L, S)
    foreign = not _same_ambient(T, S)
    bad = None if foreign else span.witness_ix(T.A, T.b)
    report = {"T": T.to_json(), "stabilizes_set": escape is None,
              "stabilizes_span": not foreign and bad is None, "witness": None}
    if escape is not None:
        report["witness"] = {"point": [x.to_json() for x in escape]}
    elif bad is not None:
        report["witness"] = {"member": list(bad[0]), "monomial": list(bad[1])}
    return report
