"""Cartesian evaluation sets: component classification, canonical point
enumeration, vanishing polynomials, and subgroup-specific computations
(stabilizer subfield, transporter spaces)."""

from __future__ import annotations

import itertools

from .codes import rref_ix
from .field import GF, Field, FieldElement, FieldError

FULL = "full"
MULT = "mult"
ADD = "add"
EXPLICIT = "explicit"


class SetComponent:
    """One factor A_i of a Cartesian set, with canonically ordered elements.

    kind is one of "full", "mult" (multiplicative subgroup, listed as powers
    of the canonical generator), "add" (additive subgroup, listed in base-p
    counting order over the reduced-echelon basis), or "explicit".
    """

    __slots__ = ("field", "kind", "elements", "order", "basis")

    def __init__(self, field, kind, elements, order=None, basis=None):
        self.field = field
        self.kind = kind
        self.elements = tuple(elements)
        self.order = order          # subgroup order for "mult"
        self.basis = basis          # tuple of FieldElements for "add"

    @property
    def n(self):
        return len(self.elements)

    def element_set(self):
        return frozenset(x.ix for x in self.elements)

    def __eq__(self, other):
        return (isinstance(other, SetComponent) and self.field == other.field
                and self.kind == other.kind and self.elements == other.elements)

    def __hash__(self):
        return hash((self.field, self.kind, tuple(x.ix for x in self.elements)))

    def __repr__(self):
        if self.kind == FULL:
            return f"Full(GF({self.field.q}))"
        if self.kind == MULT:
            return f"MultSubgroup(order={self.order})"
        if self.kind == ADD:
            return f"AddSubgroup(rank={len(self.basis)})"
        return f"Explicit({list(self.elements)!r})"

    def to_json(self):
        if self.kind == FULL:
            return {"kind": "full"}
        if self.kind == MULT:
            return {"kind": "mult", "order": self.order}
        if self.kind == ADD:
            return {"kind": "add", "basis": [list(b.coeffs) for b in self.basis]}
        return {"kind": "explicit", "elements": [list(x.coeffs) for x in self.elements]}


def full_component(F: Field) -> SetComponent:
    return SetComponent(F, FULL, [FieldElement(F, i) for i in range(F.q)])


def mult_component(F: Field, order: int) -> SetComponent:
    """The unique multiplicative subgroup of the given order, listed as
    1, g, g^2, ... for g the canonical generator."""
    if order < 1 or (F.q - 1) % order != 0:
        raise FieldError(f"no multiplicative subgroup of order {order} in GF({F.q})")
    beta = F.primitive_element()
    g = beta ** ((F.q - 1) // order)
    els, x = [], F.one
    for _ in range(order):
        els.append(x)
        x = x * g
    return SetComponent(F, MULT, els, order=order)


def torus_component(F: Field) -> SetComponent:
    return mult_component(F, F.q - 1)


def additive_component(F: Field, basis) -> SetComponent:
    """Additive subgroup spanned by the given elements; the stored basis is
    the reduced echelon basis and elements follow base-p counting over it."""
    rref, _, _ = rref_ix([F(b).coeffs for b in basis], GF(F.p))
    bas = [F(r) for r in rref]
    # base-p counting order, first basis vector least significant
    els = []
    for t in range(F.p ** len(bas)):
        acc, tt = F.zero, t
        for b in bas:
            acc = acc + b * (tt % F.p)
            tt //= F.p
        els.append(acc)
    return SetComponent(F, ADD, els, basis=tuple(bas))


def explicit_component(F: Field, elems) -> SetComponent:
    els, seen = [], set()
    for x in elems:
        x = F(x)
        if x.ix not in seen:
            seen.add(x.ix)
            els.append(x)
    if not els:
        raise FieldError("empty component")
    return SetComponent(F, EXPLICIT, els)


def classify_subset(F: Field, elems) -> SetComponent:
    """Detect full field / multiplicative subgroup / additive subgroup by
    closure testing; fall back to an explicit component in the given order.
    Ties resolve full > mult > add > explicit."""
    comp = explicit_component(F, elems)
    ixs = comp.element_set()
    if len(ixs) == F.q:
        return full_component(F)
    if 0 not in ixs and 1 in ixs:
        if all(F.mul_ix(a, b) in ixs for a in ixs for b in ixs):
            return mult_component(F, len(ixs))
    if 0 in ixs:
        if all(F.add_ix(a, b) in ixs for a in ixs for b in ixs):
            got = additive_component(F, comp.elements)
            if got.element_set() == ixs:
                return got
    return comp


def component_from_json(F: Field, obj) -> SetComponent:
    kind = obj["kind"]
    if kind == "full":
        return full_component(F)
    if kind == "mult":
        return mult_component(F, obj["order"])
    if kind == "add":
        return additive_component(F, [F(b) for b in obj["basis"]])
    if kind == "explicit":
        return explicit_component(F, [F(x) for x in obj["elements"]])
    raise ValueError(f"unknown component kind {kind!r}")


class CartesianSet:
    """Product of SetComponents with a fixed point order: row-major over the
    canonical component orders, last coordinate varying fastest."""

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("need at least one component")
        F = components[0].field
        if any(c.field != F for c in components):
            raise FieldError("components over different fields")
        self.field = F
        self.components = tuple(components)
        self.m = len(components)
        self.sizes = tuple(c.n for c in components)
        self.n = 1
        for s in self.sizes:
            self.n *= s
        self._points = None
        self._points_ix = None
        self._index = None
        self._vanishing = [None] * self.m
        self._powred = [None] * self.m

    def points(self):
        if self._points is None:
            self._points = tuple(itertools.product(*[c.elements for c in self.components]))
        return self._points

    def points_ix(self):
        if self._points_ix is None:
            self._points_ix = tuple(tuple(x.ix for x in P) for P in self.points())
        return self._points_ix

    def point_index(self, P):
        if self._index is None:
            self._index = {pt: i for i, pt in enumerate(self.points_ix())}
        key = tuple(x.ix if isinstance(x, FieldElement) else self.field(x).ix for x in P)
        return self._index[key]

    def contains_point(self, P):
        if self._index is None:
            self.point_index(self.points_ix()[0])
        key = tuple(x.ix if isinstance(x, FieldElement) else self.field(x).ix for x in P)
        return key in self._index

    def vanishing_coeffs(self, j):
        """Coefficient indices (constant first, monic) of prod(x - a) over
        the j-th component's elements."""
        if self._vanishing[j] is None:
            F = self.field
            coeffs = [1]
            for a in self.components[j].elements:
                na = F.neg_ix(a.ix)
                nxt = [0] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i + 1] = F.add_ix(nxt[i + 1], c)
                    nxt[i] = F.add_ix(nxt[i], F.mul_ix(c, na))
                coeffs = nxt
            self._vanishing[j] = tuple(coeffs)
        return self._vanishing[j]

    def power_reduction(self, j, e):
        """x_j^e reduced modulo the j-th vanishing polynomial, as a coefficient
        index vector of length n_j (constant term first)."""
        nj = self.sizes[j]
        if self._powred[j] is None:
            self._powred[j] = [tuple(1 if d == i else 0 for d in range(nj))
                               for i in range(nj)]
        table = self._powred[j]
        if e < len(table):
            return table[e]
        F = self.field
        g = self.vanishing_coeffs(j)
        while len(table) <= e:
            prev = table[-1]
            top = prev[-1]
            shifted = [0] + list(prev[:-1])
            if top:
                for i in range(nj):
                    shifted[i] = F.sub_ix(shifted[i], F.mul_ix(top, g[i]))
            # monic: x * x^(n-1) = x^n = x^n - g(x) has degree < n
            table.append(tuple(shifted))
        return table[e]

    def __eq__(self, other):
        return isinstance(other, CartesianSet) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "CartesianSet(" + " x ".join(repr(c) for c in self.components) + ")"

    def to_json(self):
        return {"components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(F, obj) -> "CartesianSet":
        return CartesianSet([component_from_json(F, c) for c in obj["components"]])


# ---------------------------------------------------------------------------
# subgroup computations

def stabilizer_subfield(G: SetComponent) -> int:
    """Degree d of the largest subfield F_{p^d} with c*G = G for all c in it.
    G must be an additive subgroup (or the full field)."""
    if G.kind not in (ADD, FULL):
        raise FieldError("stabilizer subfield needs an additive subgroup")
    F = G.field
    gset = G.element_set()
    divisors = sorted((d for d in range(1, F.k + 1) if F.k % d == 0), reverse=True)
    beta = F.primitive_element()
    for d in divisors:
        c = beta ** ((F.q - 1) // (F.p ** d - 1))
        if all(F.mul_ix(c.ix, g) in gset for g in gset):
            return d
    return 1  # scaling by the prime field always preserves an additive group


def transporter_space(G_row: SetComponent, G_col: SetComponent) -> frozenset:
    """All a with a*G_col inside G_row, as a frozenset of FieldElements.
    Constrains the (row, col) matrix entry for heterogeneous additive
    products; always an additive subgroup."""
    if G_row.field != G_col.field:
        raise FieldError("components over different fields")
    F = G_row.field
    rset = G_row.element_set()
    col = [g.ix for g in G_col.elements]
    out = [FieldElement(F, a) for a in range(F.q)
           if all(F.mul_ix(a, g) in rset for g in col)]
    return frozenset(out)


def sum_of_elements(G: SetComponent) -> FieldElement:
    F = G.field
    acc = 0
    for x in G.elements:
        acc = F.add_ix(acc, x.ix)
    return FieldElement(F, acc)
