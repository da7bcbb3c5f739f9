"""Structural families of affine transformations attached to a Cartesian set
and (for the claimed subgroup families) a monomial set: lower-triangular
maps, stable-pattern maps, and the characterized stabilizer families for
multiplicative and additive subgroup products.

Every family builds its members as one AffineMaps, an (N, m, m + 1) uint16
array of augmented matrices [A | b] in a fixed order: the candidate linear
parts are listed (and, where the family needs it, masked by the batched
AffineMaps.invertible, for q <= 4096), then the offsets and tail blocks are
broadcast across them, with no object per member.  An explicit budget raises
before the array is built, never truncates silently.  Every family also has
a structural membership predicate and a count formula where one exists.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .affine import AffineTransformation
from .field import Field, FieldError
from .monomials import MonomialSet, has_borel_property, is_decreasing, stable_pattern
from .oracle import AffineMaps, BudgetExceeded
from .points import ADD, FULL, MULT, CartesianSet, stabilizer_subfield, transporter_space


def gl_count(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def lta_count(F: Field, m: int) -> int:
    return _lower_triangular_count(F.q, m) * F.q ** m


def _lower_triangular_count(v: int, s: int) -> int:
    return (v - 1) ** s * v ** (s * (s - 1) // 2)


def _grid(lists):
    """The tuples of itertools.product(*lists), in its order, as the rows of
    a uint16 array."""
    out = np.zeros((1, 0), np.uint16)
    for x in lists:
        x = np.asarray(list(x), np.uint16)
        out = np.column_stack([np.repeat(out, len(x), axis=0), np.tile(x, len(out))])
    return out


def _lower_triangular(values, s):
    """Invertible lower-triangular s x s matrices with entries from the
    ascending index list values (which holds 0), in row-major counting
    order over the entries, as an (N, s, s) array."""
    diag = [x for x in values if x]
    ent = _grid([diag if i == j else values if j < i else [0]
                 for i in range(s) for j in range(s)])
    return ent.reshape(len(ent), s, s)


def _kept(F, lists, k, width):
    """The tuples of itertools.product(*lists), in its order, as an
    (N, k, width) array, kept where the first k columns are invertible
    (AffineMaps.invertible)."""
    ent = _grid(lists)
    ent = ent.reshape(len(ent), k, width)
    return ent[_maps(F, ent[..., :k], np.zeros((1, k), np.uint16)).invertible()]


def _maps(F, A, b):
    """Every linear part of the (N, m, m) array A with every offset of the
    (K, m) array b, A outermost, as one AffineMaps."""
    n, m = A.shape[:2]
    ab = np.empty((n, len(b), m, m + 1), np.uint16)
    ab[..., :m] = A[:, None]
    ab[..., m] = b
    return AffineMaps(F, ab.reshape(n * len(b), m, m + 1))


def _guard(count, budget, lower=False):
    """Raise when a family's size, or a lower bound on it, exceeds the budget."""
    if budget is not None and count is not None and count > budget:
        raise BudgetExceeded(f"family of {'at least ' * lower}{count} maps exceeds budget {budget}")


def enumerate_LTA(F: Field, m: int, budget=None) -> AffineMaps:
    """All T = Ax+b with A lower triangular and invertible, the offset
    counting fastest."""
    _guard(lta_count(F, m), budget)
    return _maps(F, _lower_triangular(range(F.q), m), _grid([range(F.q)] * m))


def is_lower_triangular_invertible(T: AffineTransformation) -> bool:
    return (all(T.A[i][j] == 0 for i in range(T.m) for j in range(T.m) if j > i)
            and all(T.A[i][i] != 0 for i in range(T.m)))


def enumerate_ML_invertible(L: MonomialSet, p: int, F: Field, budget=None) -> AffineMaps:
    """All T = Ax+b with A invertible and supported on the stable pattern of
    the monomial set."""
    if F.p != p:
        raise FieldError("pattern prime differs from the field characteristic")
    pattern = stable_pattern(L, p)
    m = L.m
    value_lists = [range(F.q) if pattern.allows(i, j) else range(1)
                   for i in range(m) for j in range(m)]
    # The determinant on the pattern is a nonzero multilinear polynomial of
    # degree m in its a free entries (the pattern holds the identity), so at
    # least (q-1)^m q^(a-m) of the q^a candidates are invertible, each with
    # q^m offsets: the family has at least as many maps as candidates.
    _guard(math.prod(map(len, value_lists)), budget, lower=True)
    A = _kept(F, value_lists, m, m)
    _guard(len(A) * F.q ** m, budget)
    return _maps(F, A, _grid([range(F.q)] * m))


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

    def members(self, budget=None) -> AffineMaps:
        """Sigma outermost, then the entries of row i from component sigma[i]
        in its element order, the last row fastest; b = 0."""
        _guard(self.count(), budget)
        m, comps = self.m, self.S.components
        blocks = []
        for sigma in self._sigmas():
            diag = _grid([[x.ix for x in comps[j].elements] for j in sigma])
            A = np.zeros((len(diag), m, m), np.uint16)
            A[:, range(m), sigma] = diag
            blocks.append(A)
        return _maps(self.F, np.concatenate(blocks), np.zeros((1, m), np.uint16))

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

    def members(self, budget=None) -> AffineMaps:
        """The top rows (their full block invertible) outermost, then the
        tail of the multiplicative sub-family, then the offset on the full
        block."""
        _guard(self.count(), budget)
        F, m, m0 = self.F, self.m, self.m0
        top = _kept(F, [range(F.q)] * (m0 * m), m0, m)
        tail = (MultProductFamily(CartesianSet(self.S.components[m0:])).members().ab[:, :, :-1]
                if m0 < m else np.zeros((1, 0, 0), np.uint16))
        A = np.zeros((len(top), len(tail), m, m), np.uint16)
        A[:, :, :m0] = top[:, None]
        A[:, :, m0:, m0:] = tail
        return _maps(F, A.reshape(-1, m, m), _grid([range(F.q)] * m0 + [[0]] * (m - m0)))

    def contains(self, T: AffineTransformation) -> bool:
        F, m, m0 = self.F, self.m, self.m0
        if any(T.b[m0:]):
            return False
        if m0 and not AffineTransformation(F, [r[:m0] for r in T.A[:m0]]).is_invertible():
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

    def members(self, budget=None) -> AffineMaps:
        """The invertible A over the subfield outermost, then the offsets in
        the components' element order."""
        _guard(self.count(), budget)
        A = _kept(self.F, [self.subfield] * self.m ** 2, self.m, self.m)
        return _maps(self.F, A, _grid([[x.ix for x in c.elements] for c in self.S.components]))

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

    def __init__(self, S: CartesianSet, budget=None):
        """The budget caps the field products the table costs: entry (i, j)
        tests q candidates against the n_j points of component j."""
        if any(c.kind not in (ADD, FULL) for c in S.components):
            raise FieldError("components must be additive subgroups")
        size = S.m * S.field.q * sum(S.sizes)
        if budget is not None and size > budget:
            raise BudgetExceeded(f"transporter table of {size} field products "
                                 f"exceeds budget {budget}")
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

    def candidates(self, budget=None) -> AffineMaps:
        _guard(self.candidate_count(), budget)
        m = self.m
        A = _grid([sorted(x.ix for x in H) for row in self.table for H in row])
        return _maps(self.F, A.reshape(-1, m, m),
                     _grid([[x.ix for x in c.elements] for c in self.S.components]))

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
        if not is_decreasing(L):
            raise ValueError("monomial set is not decreasing")
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

    def members(self, budget=None) -> AffineMaps:
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
        top = _lower_triangular(values, s)
        A = np.zeros((len(top), m, m), np.uint16)
        A[:, :s, :s] = top
        A[:, range(s, m), range(s, m)] = 1
        return _maps(F, A, _grid(shifts))

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
