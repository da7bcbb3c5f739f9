"""Structural families of affine transformations attached to a Cartesian set
and (for the claimed subgroup families) a monomial set: lower-triangular
maps, stable-pattern maps, and the characterized stabilizer families for
multiplicative and additive subgroup products.

Every family exposes a deterministic lazy enumerator with an explicit budget
(exceeding it raises, never truncates silently), a structural membership
predicate, and a count formula where one exists.
"""

from __future__ import annotations

import itertools
import math

from .affine import AffineTransformation
from .codes import rank_ix
from .field import Field, FieldElement, FieldError
from .monomials import MonomialSet, has_borel_property, stable_pattern
from .points import ADD, FULL, MULT, CartesianSet, stabilizer_subfield, transporter_space


class BudgetExceeded(RuntimeError):
    pass


def gl_count(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def lta_count(F: Field, m: int) -> int:
    return _lower_triangular_count(F.q, m) * F.q ** m


def _lower_triangular_count(v: int, s: int) -> int:
    return (v - 1) ** s * v ** (s * (s - 1) // 2)


def _lower_triangular(values, s):
    """Invertible lower-triangular s x s matrices with entries from the
    ascending index list values (which holds 0), in row-major counting
    order over the entries."""
    diag = [x for x in values if x]
    positions = [diag if i == j else values if j < i else [0]
                 for i in range(s) for j in range(s)]
    for ent in itertools.product(*positions):
        yield [list(ent[i * s:(i + 1) * s]) for i in range(s)]


def _guard(count, budget):
    if budget is not None and count is not None and count > budget:
        raise BudgetExceeded(f"family of size {count} exceeds budget {budget}")


def enumerate_LTA(F: Field, m: int, budget=None):
    """All T = Ax+b with A lower triangular and invertible."""
    _guard(lta_count(F, m), budget)
    for A in _lower_triangular(range(F.q), m):
        for b in itertools.product(range(F.q), repeat=m):
            yield AffineTransformation(F, A, list(b))


def is_lower_triangular_invertible(T: AffineTransformation) -> bool:
    return (all(T.A[i][j] == 0 for i in range(T.m) for j in range(T.m) if j > i)
            and all(T.A[i][i] != 0 for i in range(T.m)))


def enumerate_ML_invertible(L: MonomialSet, p: int, F: Field, budget=None):
    """All T = Ax+b with A invertible and supported on the stable pattern of
    the monomial set."""
    if F.p != p:
        raise FieldError("pattern prime differs from the field characteristic")
    pattern = stable_pattern(L, p)
    m = L.m
    value_lists = [range(F.q) if pattern.allows(i, j) else range(1)
                   for i in range(m) for j in range(m)]
    shifts = F.q ** m
    yielded = 0
    for ent in itertools.product(*value_lists):
        A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
        T0 = AffineTransformation(F, A)
        if not T0.is_invertible():
            continue
        yielded += shifts
        if budget is not None and yielded > budget:
            raise BudgetExceeded(f"stable-pattern family exceeds budget {budget}")
        for b in itertools.product(range(F.q), repeat=m):
            yield AffineTransformation(F, A, list(b))


# ---------------------------------------------------------------------------
# characterized stabilizer families

class MultProductFamily:
    """Stabilizers of a product of nontrivial multiplicative subgroups:
    b = 0 and A a group-preserving permutation times a diagonal with entries
    in the matching subgroup."""

    kind = "mult-product"

    def __init__(self, S: CartesianSet):
        if any(c.kind != MULT or c.n < 2 for c in S.components):
            raise FieldError("every component must be a nontrivial multiplicative subgroup")
        self.S = S
        self.F = S.field
        self.m = S.m
        self._classes = {}
        for i, c in enumerate(S.components):
            self._classes.setdefault(c.element_set(), []).append(i)

    def _sigmas(self):
        """All position permutations preserving the component labeling, as
        tuples sigma with sigma[i] = the column of row i's nonzero entry."""
        groups = sorted(self._classes.values())
        out = []
        for perms in itertools.product(*[itertools.permutations(g) for g in groups]):
            sigma = [None] * self.m
            for g, perm in zip(groups, perms):
                for src, dst in zip(g, perm):
                    sigma[src] = dst
            out.append(tuple(sigma))
        return sorted(out)

    def count(self) -> int:
        perms = 1
        for g in self._classes.values():
            perms *= math.factorial(len(g))
        sizes = 1
        for c in self.S.components:
            sizes *= c.n
        return perms * sizes

    def members(self, budget=None):
        _guard(self.count(), budget)
        F, m = self.F, self.m
        comps = self.S.components
        for sigma in self._sigmas():
            col_values = [[x.ix for x in comps[j].elements] for j in range(m)]
            for diag in itertools.product(*[col_values[sigma[i]] for i in range(m)]):
                A = [[diag[i] if j == sigma[i] else 0 for j in range(m)]
                     for i in range(m)]
                yield AffineTransformation(F, A)

    def contains(self, T: AffineTransformation) -> bool:
        if any(T.b):
            return False
        sigma = []
        for i in range(self.m):
            nz = [j for j in range(self.m) if T.A[i][j]]
            if len(nz) != 1:
                return False
            j = nz[0]
            ci, cj = self.S.components[i], self.S.components[j]
            if ci.element_set() != cj.element_set():
                return False
            if T.A[i][j] not in ci.element_set():
                return False
            sigma.append(j)
        return len(set(sigma)) == self.m


class MixedGeneralFamily:
    """Stabilizers of F_q^m0 x G_1^m1 x ... x G_l^ml for pairwise distinct
    nontrivial multiplicative subgroups: block upper strip over an invertible
    full block, permutation-diagonal blocks with entries in the matching
    subgroup, offset supported on the full block."""

    kind = "mixed-general"
    describe_params = ("m0",)

    def __init__(self, S: CartesianSet):
        kinds = [c.kind for c in S.components]
        m0 = 0
        while m0 < len(kinds) and kinds[m0] == FULL:
            m0 += 1
        blocks = []
        i = m0
        while i < len(kinds):
            c = S.components[i]
            if c.kind != MULT or c.n < 2:
                raise FieldError("tail components must be nontrivial multiplicative subgroups")
            j = i
            while j < len(kinds) and S.components[j] == c:
                j += 1
            blocks.append((i, j))
            i = j
        sets = [S.components[a].element_set() for a, _ in blocks]
        if len(set(sets)) != len(sets):
            raise FieldError("repeated subgroups must be merged into one block")
        self.S = S
        self.F = S.field
        self.m = S.m
        self.m0 = m0
        self.blocks = blocks

    def count(self) -> int:
        q, m0 = self.F.q, self.m0
        out = gl_count(q, m0) * q ** (m0 * (self.m - m0)) * q ** m0
        for a, b in self.blocks:
            w = b - a
            out *= math.factorial(w) * self.S.components[a].n ** w
        return out

    def members(self, budget=None):
        _guard(self.count(), budget)
        F, m, m0 = self.F, self.m, self.m0
        sub = MultProductFamily(CartesianSet(self.S.components[m0:])) if m0 < m else None
        top_lists = [range(F.q)] * (m0 * m)
        for ent in itertools.product(*top_lists) if m0 else [()]:
            top = [list(ent[i * m:(i + 1) * m]) for i in range(m0)]
            if m0 and rank_ix([row[:m0] for row in top], F) < m0:
                continue
            tails = sub.members() if sub else iter([None])
            for tail in tails:
                A = [row[:] for row in top]
                for r in range(m - m0):
                    A.append([0] * m0 + list(tail.A[r]))
                for btop in itertools.product(range(F.q), repeat=m0):
                    yield AffineTransformation(F, A, list(btop) + [0] * (m - m0))

    def contains(self, T: AffineTransformation) -> bool:
        F, m, m0 = self.F, self.m, self.m0
        if any(T.b[m0:]):
            return False
        if m0 and rank_ix([T.A[i][:m0] for i in range(m0)], F) < m0:
            return False
        for i in range(m0, m):
            if any(T.A[i][j] for j in range(m0)):
                return False
        if m0 == m:
            return True
        sub = MultProductFamily(CartesianSet(self.S.components[m0:]))
        tail = AffineTransformation(F, [[T.A[i][j] for j in range(m0, m)]
                                        for i in range(m0, m)])
        # rows of the tail blocks must not reach across distinct blocks,
        # which the sub-family predicate enforces via the labeling constraint
        return sub.contains(tail)


class MixedFullTorusFamily(MixedGeneralFamily):
    """Stabilizers of F_q^s x (F_q^*)^(m-s): the mixed family whose tail is
    one block of full tori."""

    kind = "mixed-full-torus"
    describe_params = ("s",)

    def __init__(self, S: CartesianSet):
        super().__init__(S)
        if any(c.n != S.field.q - 1 for c in S.components[self.m0:]):
            raise FieldError("expected full-field components then torus components")
        self.s = self.m0


class AdditivePowerFamily:
    """Stabilizers of G^m for an additive subgroup G: A invertible with
    entries in the stabilizer subfield, offset inside the point set."""

    kind = "additive-power"
    describe_params = ("subfield_degree",)

    def __init__(self, S: CartesianSet):
        comps = S.components
        if any(c.kind not in (ADD, FULL) for c in comps):
            raise FieldError("components must be additive subgroups")
        if any(c.elements != comps[0].elements for c in comps):
            raise FieldError("components must all equal the same subgroup")
        self.S = S
        self.F = S.field
        self.m = S.m
        self.subfield_degree = stabilizer_subfield(comps[0])
        self.subfield = sorted(x.ix for x in S.field.subfield_elements(self.subfield_degree))

    def count(self) -> int:
        qp = self.F.p ** self.subfield_degree
        return gl_count(qp, self.m) * self.S.components[0].n ** self.m

    def members(self, budget=None):
        _guard(self.count(), budget)
        F, m = self.F, self.m
        shifts = [[x.ix for x in c.elements] for c in self.S.components]
        for ent in itertools.product(self.subfield, repeat=m * m):
            A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
            if rank_ix(A, F) < m:
                continue
            for b in itertools.product(*shifts):
                yield AffineTransformation(F, A, list(b))

    def contains(self, T: AffineTransformation) -> bool:
        d = self.subfield_degree
        gset = self.S.components[0].element_set()
        if any(x not in gset for x in T.b):
            return False
        ok = all(T.field(x).in_subfield(d) for row in T.A for x in row)
        return ok and T.is_invertible()


class AdditiveHeteroPattern:
    """Entry constraints for stabilizers of a product of additive subgroups:
    entry (i, j) must carry the j-th group into the i-th, the offset must lie
    in the point set.  Necessary only; candidates still need the point-set
    check."""

    kind = "additive-hetero"
    necessary_only = True

    def __init__(self, S: CartesianSet):
        if any(c.kind not in (ADD, FULL) for c in S.components):
            raise FieldError("components must be additive subgroups")
        self.S = S
        self.F = S.field
        self.m = S.m
        self.table = [[transporter_space(S.components[i], S.components[j])
                       for j in range(S.m)] for i in range(S.m)]

    def candidate_count(self) -> int:
        out = 1
        for row in self.table:
            for H in row:
                out *= len(H)
        for c in self.S.components:
            out *= c.n
        return out

    def satisfies_pattern(self, T: AffineTransformation) -> bool:
        F = self.F
        for i in range(self.m):
            if T.b[i] not in self.S.components[i].element_set():
                return False
            for j in range(self.m):
                if FieldElement(F, T.A[i][j]) not in self.table[i][j]:
                    return False
        return True

    def candidates(self, budget=None):
        _guard(self.candidate_count(), budget)
        F, m = self.F, self.m
        entry_lists = [sorted(x.ix for x in self.table[i][j])
                       for i in range(m) for j in range(m)]
        shifts = [[x.ix for x in c.elements] for c in self.S.components]
        for ent in itertools.product(*entry_lists):
            A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
            for b in itertools.product(*shifts):
                yield AffineTransformation(F, A, list(b))

    def table_json(self):
        return [[sorted(list(x.coeffs) for x in H) for H in row] for row in self.table]


class BorelClaimedFamily:
    """The claimed (sufficient, not exhaustive) subgroup of affine
    permutations for a Borel-closed decreasing monomial set on one of the
    three structured point sets: full x torus, full x distinct subgroup
    powers, or an additive subgroup power."""

    kind = "borel-claimed"
    describe_params = ("split", "shape", "subfield_degree")

    def __init__(self, S: CartesianSet, L: MonomialSet):
        if not has_borel_property(L):
            raise ValueError("monomial set lacks the Borel property")
        self.S = S
        self.L = L
        self.F = S.field
        self.m = S.m
        self.shape = set_shape(S)
        if self.shape is None:
            raise FieldError("point set does not match a claimed-subgroup shape")
        if self.shape == "additive-power":
            self.subfield_degree = stabilizer_subfield(S.components[0])
        else:
            self.split = [c.kind for c in S.components].count(FULL)
            if self.shape == "full-subgroups":
                MixedGeneralFamily(S)  # validates distinct nontrivial blocks

    def count(self) -> int:
        if self.shape == "additive-power":
            return (_lower_triangular_count(self.F.p ** self.subfield_degree, self.m)
                    * self.S.components[0].n ** self.m)
        s = self.split
        return _lower_triangular_count(self.F.q, s) * self.F.q ** s

    def members(self, budget=None):
        """Lower-triangular maps over the stabilizer subfield with offsets in
        the set, or lower-triangular on the full block, identity on the rest
        and offsets on the full block."""
        _guard(self.count(), budget)
        F, m = self.F, self.m
        if self.shape == "additive-power":
            values = sorted(x.ix for x in F.subfield_elements(self.subfield_degree))
            s = m
            shifts = [[x.ix for x in c.elements] for c in self.S.components]
        else:
            values = range(F.q)
            s = self.split
            shifts = [range(F.q)] * s + [[0]] * (m - s)
        for top in _lower_triangular(values, s):
            A = [row + [0] * (m - s) for row in top]
            A += [[int(i == j) for j in range(m)] for i in range(s, m)]
            for b in itertools.product(*shifts):
                yield AffineTransformation(F, A, list(b))

    def contains(self, T: AffineTransformation) -> bool:
        m = self.m
        if self.shape == "additive-power":
            d = self.subfield_degree
            gset = self.S.components[0].element_set()
            return (is_lower_triangular_invertible(T)
                    and all(T.field(x).in_subfield(d) for row in T.A for x in row)
                    and all(x in gset for x in T.b))
        s = self.split
        if any(T.b[s:]):
            return False
        for i in range(m):
            for j in range(m):
                want_free = (i < s and j <= i)
                if not want_free:
                    expect = 1 if (i == j and i >= s) else 0
                    if T.A[i][j] != expect:
                        return False
        return all(T.A[i][i] for i in range(s))


def describe(family) -> dict:
    """Family descriptor: kind, binding parameters, and the count formula."""
    params = {}
    S = getattr(family, "S", None)
    if S is not None:
        params["set"] = S.to_json()
        params["field"] = S.field.to_json()
    for name in getattr(family, "describe_params", ()):
        if hasattr(family, name):
            params[name] = getattr(family, name)
    L = getattr(family, "L", None)
    if L is not None:
        params["monomials"] = L.to_json()
    return {"kind": family.kind, "params": params, "count": family.count()}


def set_shape(S: CartesianSet):
    """The structured point-set shape of S, if any: "additive-power" (one
    additive subgroup, or the full field, in every coordinate), else
    full-field coordinates followed by multiplicative subgroups, which is
    "full-torus" when every subgroup is the full torus and "full-subgroups"
    otherwise."""
    comps = S.components
    if all(c.kind in (ADD, FULL) and c.elements == comps[0].elements for c in comps):
        return "additive-power"
    kinds = [c.kind for c in comps]
    if kinds != [FULL] * kinds.count(FULL) + [MULT] * kinds.count(MULT):
        return None
    if all(c.n == S.field.q - 1 for c in comps if c.kind == MULT):
        return "full-torus"
    return "full-subgroups"
