"""Structural families of affine transformations attached to a Cartesian set
and (for the claimed subgroup families) a monomial set: lower-triangular
maps, stable-pattern maps, and the characterized stabilizer families for
multiplicative and additive subgroup products.

The stabilizers of F_q^m0 x G_1^m1 x ... x G_l^ml (G_k multiplicative
subgroups) have one characterization, and one implementation,
MixedGeneralFamily: an invertible full block with its upper strip, then on
each class of equal subgroups a permutation of its positions times a
diagonal with entries in the subgroup.  The multiplicative product (no full
component, equal subgroups anywhere) and the full-torus product (one block
of full tori) subclass it only for their kind, reported parameters and
validation.  The claimed Borel subgroup and the lower-triangular maps are
one block shape, built by one builder: an invertible lower-triangular
block over given entry values, the identity elsewhere, and an offset list
per coordinate.

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
from .oracle import AffineMaps, check_budget
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


def _triangular(F, m, s, values, offsets):
    """The maps T = Ax+b whose A is an invertible lower-triangular s x s
    block with entries from the ascending index list values (which holds
    0), then the identity on the other m - s coordinates, and whose b is a
    tuple of itertools.product(*offsets): the block's entries in row-major
    counting order, the offset fastest."""
    diag = [x for x in values if x]
    ent = _grid([diag if i == j else values if j < i else [0]
                 for i in range(s) for j in range(s)])
    A = np.zeros((len(ent), m, m), np.uint16)
    A[:, :s, :s] = ent.reshape(len(ent), s, s)
    A[:, range(s, m), range(s, m)] = 1
    return _maps(F, A, _grid(offsets))


def _kept(F, lists, k, width):
    """The tuples of itertools.product(*lists), in its order, as an
    (N, k, width) array, kept where the first k columns are invertible
    (AffineMaps.invertible; every tuple when k = 0, so no field tables are
    needed)."""
    ent = _grid(lists)
    ent = ent.reshape(len(ent), k, width)
    return ent[_maps(F, ent[..., :k], np.zeros((1, k), np.uint16)).invertible()] if k else ent


def _maps(F, A, b):
    """Every linear part of the (N, m, m) array A with every offset of the
    (K, m) array b, A outermost, as one AffineMaps."""
    n, m = A.shape[:2]
    ab = np.empty((n, len(b), m, m + 1), np.uint16)
    ab[..., :m] = A[:, None]
    ab[..., m] = b
    return AffineMaps(F, ab.reshape(n * len(b), m, m + 1))


def enumerate_LTA(F: Field, m: int, budget=None) -> AffineMaps:
    """All T = Ax+b with A lower triangular and invertible, the offset
    counting fastest."""
    check_budget(lta_count(F, m), budget, "family of {} maps")
    return _triangular(F, m, m, range(F.q), [range(F.q)] * m)


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
    check_budget(math.prod(map(len, value_lists)), budget, "family of at least {} maps")
    A = _kept(F, value_lists, m, m)
    check_budget(len(A) * F.q ** m, budget, "family of {} maps")
    return _maps(F, A, _grid([range(F.q)] * m))


# ---------------------------------------------------------------------------
# characterized stabilizer families

def _subgroup_classes(S: CartesianSet):
    """The number m0 of leading full-field components of S, and the classes
    of equal subgroups among the other components: ascending position lists,
    ordered by their first position.  FieldError unless every other
    component is a nontrivial multiplicative subgroup."""
    comps = S.components
    m0 = 0
    while m0 < len(comps) and comps[m0].kind == FULL:
        m0 += 1
    classes = {}
    for i, c in enumerate(comps[m0:], m0):
        if c.kind != MULT or c.n < 2:
            raise FieldError("tail components must be nontrivial multiplicative subgroups")
        classes.setdefault(c.element_set(), []).append(i)
    return m0, list(classes.values())


def _blocks(S: CartesianSet):
    """_subgroup_classes(S), each class a block: a run of adjacent positions."""
    m0, classes = _subgroup_classes(S)
    if any(g[-1] - g[0] >= len(g) for g in classes):
        raise FieldError("repeated subgroups must be merged into one block")
    return m0, classes


class MixedGeneralFamily:
    """Stabilizers of F_q^m0 x G_1^m1 x ... x G_l^ml for pairwise distinct
    nontrivial multiplicative subgroups, each power one block of adjacent
    positions: block upper strip over an invertible full block,
    permutation-diagonal blocks with entries in the matching subgroup, offset
    supported on the full block.

    The multiplicative product (m0 = 0, equal subgroups anywhere) and the
    full-torus product (one block of full tori) are the subclasses below:
    they differ only in kind, reported parameters and validation, and keep
    their own class so that reports name their kind."""

    kind = "mixed-general"
    describe_params = ("m0",)
    _validate = staticmethod(_blocks)

    def __init__(self, S: CartesianSet):
        self.m0, self._classes = self._validate(S)
        self.S = S
        self.F = S.field
        self.m = S.m

    def _sigmas(self):
        """All permutations of the tail positions within their classes, as
        lists sigma, ascending, with sigma[i - m0] = the column of row i's
        nonzero entry."""
        out = []
        for perms in itertools.product(*map(itertools.permutations, self._classes)):
            dst = dict(zip(itertools.chain(*self._classes), itertools.chain(*perms)))
            out.append([dst[i] for i in range(self.m0, self.m)])
        return sorted(out)

    def count(self) -> int:
        q, m, m0 = self.F.q, self.m, self.m0
        out = gl_count(q, m0) * q ** (m0 * (m - m0 + 1))   # strip and offset
        for g in self._classes:
            out *= math.factorial(len(g)) * self.S.components[g[0]].n ** len(g)
        return out

    def members(self, budget=None) -> AffineMaps:
        """The top rows (their full block invertible) outermost, then sigma,
        then the entries of tail row i from component sigma[i - m0] in its
        element order, the last row fastest, then the offset on the full
        block."""
        check_budget(self.count(), budget, "family of {} maps")
        F, m, m0, comps = self.F, self.m, self.m0, self.S.components
        top = _kept(F, [range(F.q)] * (m0 * m), m0, m)
        tails = []
        for sigma in self._sigmas():
            diag = _grid([[x.ix for x in comps[j].elements] for j in sigma])
            rows = np.zeros((len(diag), m - m0, m), np.uint16)
            rows[:, range(m - m0), sigma] = diag
            tails.append(rows)
        tail = np.concatenate(tails)
        A = np.empty((len(top), len(tail), m, m), np.uint16)
        A[:, :, :m0] = top[:, None]
        A[:, :, m0:] = tail
        return _maps(F, A.reshape(-1, m, m), _grid([range(F.q)] * m0 + [[0]] * (m - m0)))

    def contains(self, T: AffineTransformation) -> bool:
        F, m, m0, comps = self.F, self.m, self.m0, self.S.components
        if any(T.b[m0:]):
            return False
        if m0 and not AffineTransformation(F, [r[:m0] for r in T.A[:m0]]).is_invertible():
            return False
        # each tail row has one nonzero entry, in the subgroup, in a column
        # of its own class (a full column's element set holds 0, no
        # subgroup's does)
        cols = []
        for i in range(m0, m):
            nz = [j for j in range(m) if T.A[i][j]]
            gset = comps[i].element_set()
            if len(nz) != 1 or comps[nz[0]].element_set() != gset or T.A[i][nz[0]] not in gset:
                return False
            cols.append(nz[0])
        return len(set(cols)) == m - m0


class MultProductFamily(MixedGeneralFamily):
    """Stabilizers of a product of nontrivial multiplicative subgroups: the
    mixed family with m0 = 0, so b = 0 and A a group-preserving permutation
    times a diagonal with entries in the matching subgroup.  Equal subgroups
    may sit in non-adjacent positions."""

    kind = "mult-product"
    describe_params = ()

    @staticmethod
    def _validate(S: CartesianSet):
        if any(c.kind != MULT or c.n < 2 for c in S.components):
            raise FieldError("every component must be a nontrivial multiplicative subgroup")
        return _subgroup_classes(S)


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
        check_budget(self.count(), budget, "family of {} maps")
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
        check_budget(S.m * S.field.q * sum(S.sizes), budget,
                     "transporter table of {} field products")
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
        check_budget(self.candidate_count(), budget, "family of {} maps")
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
    powers, or an additive subgroup power.  Each is one block description,
    read by count, members and contains alike: the maps of _triangular for
    a block size s, its entry values and an offset list per coordinate.  On
    an additive power s = m, the values are the stabilizer subfield and the
    offsets each component's elements; otherwise s is the split, the number
    of full coordinates, the values are all of GF(q), and the offsets are
    GF(q) on the full coordinates and 0 elsewhere."""

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
            self._s = S.m
            self._values = sorted(x.ix for x in S.field.subfield_elements(self.subfield_degree))
            self._offsets = [[x.ix for x in c.elements] for c in S.components]
        else:
            self._s = self.split = [c.kind for c in S.components].count(FULL)
            if self.shape == "full-subgroups":
                _blocks(S)  # validates distinct nontrivial subgroup blocks
            self._values = range(S.field.q)
            self._offsets = [range(S.field.q)] * self.split + [[0]] * (S.m - self.split)

    def count(self) -> int:
        return (_lower_triangular_count(len(self._values), self._s)
                * math.prod(map(len, self._offsets)))

    def members(self, budget=None) -> AffineMaps:
        """The maps of the block description, in the order of _triangular."""
        check_budget(self.count(), budget, "family of {} maps")
        return _triangular(self.F, self.m, self._s, self._values, self._offsets)

    def contains(self, T: AffineTransformation) -> bool:
        s = self._s
        return (is_lower_triangular_invertible(T)
                and all(T.A[i][j] in self._values for i in range(s) for j in range(i + 1))
                and all(T.A[i][j] == (i == j) for i in range(s, self.m) for j in range(i + 1))
                and all(x in offsets for x, offsets in zip(T.b, self._offsets)))


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
