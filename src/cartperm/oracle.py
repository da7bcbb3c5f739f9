"""Brute-force ground truth: exhaustive enumeration of affine maps, the
point-set stabilizer scan, the exact affine permutation group of a code, and
the independent code-level permutation check.

Maps have one representation from the scan to the report: AffineMaps, a
sequence over one (N, m, m + 1) uint16 array of augmented matrices [A | b]
in the scan's base-q counter order.  Every kernel and report reads the
array; AffineTransformation objects are built on demand, for the members,
witnesses and counterexamples a report names.  The families of
cartperm.families build their members as AffineMaps too, so _as_array takes
their array as it is.  Only object lists (or streams) from other callers are
packed, by one join of the objects' rows: each object holds the bytes of its
[A | b] in the layout of the array (_rows), handed to it by the AffineMaps it
was read from, or stored on it the first time _as_array packs it from its
entries.  So a list is read entry by entry at most once, however often it is
passed.  The packing checks every map's dimension and field against the
caller's (ValueError).  The batched layers share the vectorized field
arithmetic on element indices of Field.np_tables (cartperm.field.Tables).

The scan is row-factored: T(S) = S for a Cartesian S forces each row of T to
map S onto its component, so the q^(m+1) candidate rows are filtered once,
without walking the points: a row x -> a.x + c maps S onto the sumset
c + a_1 A_1 + ... + a_m A_m, built for every linear part a as a q-cell mask,
and one base point s_0 of it leaves the candidates c = t - s_0, t in A_i
(_surviving_rows).  A product of surviving rows maps S onto S exactly when A
is invertible, which the batched Gauss-Jordan elimination of [A | I | b]
(_invert) tests.  Whether A is invertible depends only on the linear parts
of its rows, so the search eliminates one product per pair of distinct
linear parts (of the first m - 1 rows, and of the last row) and builds only
the invertible products.  AffineMaps.invertible, the invertibility test of
every map array (the families' candidate linear parts too), runs it once per
distinct A.  The group-axioms check decides a set with the identity and
invertible linear parts by the generator walk of the two-route check
(_cosets, below): g compositions per generator, at most log2 g + 1 rounds,
exact for every g.  Only for a non-group are inverses and products looked
up among the members' sorted keys ([A | b] packed into a uint64 where it
fits, its bytes otherwise: _row_keys), and at most _PAIR_LIMIT pairs
composed in itertools.product order to name its first failing pair.

The span route is one batched kernel (_span_scan): reduced pullbacks as
coefficient arrays over the box basis of F[x]/I(S), built by shift-and-reduce
(_Forms, shared with reduced_pullbacks) along the chains of parents of the
members of L, top degree first (_walk), so a map leaves at the members a
decreasing L most often fails before the low-degree pullbacks are built for
it.  affine.SpanChecker is its scalar reference and the witness finder of
membership_report.  The kernel reduces its input once, at its entry, by
two lemmas, and walks one map per coset of a known subgroup, as in Leon's
backtrack search (1991).  Offsets: when 1 is in L and the checked members C
together with 1 are closed under division (a decreasing L, or the members
of one in x_1 .. x_j), the verdict of x -> Ax + b on C does not depend on b:
x^v(Ax + b) = sum over u <= v of c_u(b) x^u(Ax), every u <= v is in C or
is 1, the identity with -b gives the converse, and reduction modulo I(S) is
linear.  So the maps are replaced by their distinct linear parts, with
b = 0.  Row scaling: x^v(diag(lambda) y) = lambda^v x^v(y), so T and
diag(lambda) T have proportional reduced pullbacks for every invertible
diagonal lambda, whether or not it keeps S, and keep the same spans.  So
the kernel then walks the distinct monic maps only (_scaling_classes;
_monic divides each row by its first nonzero entry) and hands each map its
class's verdict, and reduced_pullbacks builds its forms once per class by
the same reduction and scales them by lambda^u.  The code route,
SpanChecker and reduced_pullbacks use no offset lemma, so the two-route
check and the scalar tests test it.  A check of all of L goes through
_span_ok.  Each fact of a stabilizer list is cached for the last inputs it
read, one functools.lru_cache(maxsize=1) per fact: the span verdicts by
(list, tables, members of L, S), the checked point images of the code route
by (list, tables, S) (_stabilizer_images), the distinct linear parts by
(list, q) (_list_linear_parts), and the basis of the translations that keep
S with their images by (tables, S) alone (_translation_images), a fact of S
and not of the list.  A list enters a key as an _ArrayKey, which holds the
caller's array, not a copy of its bytes; every cached array is read-only.
So oracle_affine_perm_group and two_route_agreement over one stabilizer list
run the span kernel once, later draws of L on that list reuse its images,
its linear parts and the translations, and a caller that replaces _span_ok
still sees its replacement.  AffineMaps.invertible and iteration read no
cache, so the group-axioms check of another array between two calls on a
list evicts nothing.

The code group never needs the stabilizer list: the pullback of x^u reads
only the rows i with u_i > 0, so a row-prefix search (_group_search) filters
each coordinate's surviving rows by the members in that variable alone, then
grows products of rows one coordinate at a time and checks each mixed
member as soon as its last row is chosen; a failing prefix is never
extended.  Its checks call the span kernel directly, in chunks large
enough that many candidates share a class, which the kernel walks once: a
step with a new mixed member checks every member in the variables chosen so
far, a set closed under division when L is, so the candidates' offsets and
row scalings both collapse at the kernel's entry.  With no member to check,
the same search lists the stabilizers (oracle_stabilizers).  A stabilizer list
supplied by the caller is filtered by _span_ok instead.  The code route
stays independent of both: a permuted generator matrix must have a zero
residue against the row-reduced one.  Its generator matrix is built in batch
from per-component power tables (_generator_rows), the rows codes.build_code
builds one point at a time, and reduced by the scalar GeneratorMatrix.rref.

The two routes are compared on generators and coset representatives
(two_route_agreement): point images come from per-coordinate position
tables (_Images), the maps are joined into cosets of the span route's group
by right multiplication with its generators (_cosets), and the code route
runs on the generators and one map per coset.  Two stabilizers with one
linear part differ by a translation that keeps S, so when the span verdicts
are constant on each linear part and the code route accepts a basis of
those translations (_translations), the walk joins the distinct linear
parts (_linear_parts) instead of the maps.  Only when that does not certify
agreement does it run on every map, to name the disagreements.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections.abc import Sequence
from itertools import chain

import numpy as np

from .affine import AffineTransformation, induced_permutation, stabilizes_set
from .codes import GeneratorMatrix, build_code, codes_equal, exponent_set
from .field import Field
from .monomials import MonomialSet, divisor_closed
from .points import CartesianSet
from .poly import sorted_monomials

_CHUNK_CELLS = 4_000_000
# the elimination and composition batches stay small: the broadcast int64
# indices of their products would otherwise raise the peak memory of a run
_PAIR_CELLS = 1 << 16
# the span route's chunks: its sums and scalings index the tables in uint16
# (uint32 above q = 256), so a larger chunk costs little memory
_SPAN_CELLS = 1 << 20
# the ordered pairs group_axioms_report counts and, for a non-group, composes
_PAIR_LIMIT = 2_000_000


class BudgetExceeded(RuntimeError):
    """An enumeration or scan larger than its budget, raised before it runs."""


def check_budget(size, budget, what):
    """Raise BudgetExceeded when size exceeds a budget that is not None,
    naming the work as what.format(size): the one budget check, run before
    the work it guards."""
    if budget is not None and size > budget:
        raise BudgetExceeded(f"{what.format(size)} exceeds budget {budget}")


def affine_space_size(F: Field, m: int) -> int:
    return F.q ** (m * m + m)


def _chunks(total, cells, limit=_CHUNK_CELLS):
    """Index ranges covering range(total), each about limit / cells long."""
    step = max(1, limit // max(1, cells))
    for lo in range(0, total, step):
        yield np.arange(lo, min(lo + step, total))


class AffineMaps(Sequence):
    """Affine maps held as one (N, m, m + 1) uint16 array ab of augmented
    matrices [A | b]: indexing and iteration build each AffineTransformation
    on demand, and a slice is again an AffineMaps."""

    def __init__(self, field: Field, ab):
        self.field, self.ab = field, ab

    @classmethod
    def packed(cls, field: Field, maps, m=0):
        """maps as an AffineMaps, packed once (_as_array) unless it is one;
        maps of another dimension than m or over another field are a
        ValueError."""
        ab = _as_array(maps, m, field)
        return maps if isinstance(maps, AffineMaps) else cls(field, ab)

    def __len__(self):
        return len(self.ab)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AffineMaps(self.field, self.ab[i])
        x = self.ab[i]
        m = len(x)
        return AffineTransformation.of_ix(self.field, tuple(map(tuple, x[:, :m].tolist())),
                                          tuple(x[:, m].tolist()), _rows(x[None])[0])

    def __iter__(self):
        """Each map as an AffineTransformation holding its row (_rows), so
        a list of them packs again by joining the rows.  The maps share one
        A tuple per distinct linear part (_linear_parts) and one b tuple per
        distinct offset, built from entries that are field indices already:
        no entry is normalised again."""
        F, q, m = self.field, self.field.q, self.ab.shape[1]
        linear, _, of_A = _linear_parts(self.ab, q)
        As = [tuple(map(tuple, A)) for A in linear[:, :, :m].tolist()]
        first, of_b = _distinct(_row_keys(self.ab[:, None, :, m], q))
        bs = list(map(tuple, self.ab[first, :, m].tolist()))
        for a, b, row in zip(of_A.tolist(), of_b.tolist(), _rows(self.ab)):
            yield AffineTransformation.of_ix(F, As[a], bs[b], row)

    def to_json(self):
        """[T.to_json() for T in self], read from the array: the coefficient
        vectors of every entry in one gather (Tables.digits) and one tolist,
        so each entry holds lists of its own."""
        m = self.ab.shape[1]
        return [{"A": [row[:m] for row in x], "b": [row[m] for row in x]}
                for x in self.field.np_tables().digits[self.ab].tolist()]

    def invertible(self):
        """Whether each map's linear part A is invertible: one batched
        Gauss-Jordan elimination (_invert) per distinct A.  It reads no
        cache, so checking another array evicts nothing."""
        kern = self.field.np_tables()
        linear, _, inverse = _linear_parts(self.ab, kern.q)
        return _invertible(kern, linear)[inverse]

    def holds(self, transforms):
        """Whether each of the given maps is one of these maps."""
        q, m = self.field.q, self.ab.shape[1]
        return _contains(_key_set(self.ab, q), _row_keys(_as_array(transforms, m, self.field), q))


# the layout of a map's row: the entries of its [A | b] as in AffineMaps.ab,
# each row of A followed by its b entry, in this dtype
_ROW = np.dtype(np.uint16)


def _rows(ab):
    """The row of each map of an (N, m, m + 1) array [A | b], as bytes."""
    flat = np.ascontiguousarray(ab, dtype=_ROW).reshape(len(ab), ab.shape[1] * ab.shape[2])
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel().tolist()


def _as_array(maps, m=0, field=None):
    """The [A | b] array of an AffineMaps, or of AffineTransformation objects
    packed by one join of their rows (_rows) into a fresh, writable array.
    When some object has no row (built by __init__, compose or invert), the
    list is packed from the entries of its objects instead, and each object
    stores its row: a list of objects is read entry by entry once.

    m and field are the caller's dimension and field, each the first map's
    when not given; m is the dimension of an empty list.  A map of another
    dimension, or over a field that is not equal to the caller's, is a
    ValueError; a field that is the caller's object is not compared."""
    if isinstance(maps, AffineMaps):
        ab, m = maps.ab, m or (maps.ab.shape[1] if maps.ab.ndim == 3 else 0)
        if ab.shape[1:] != (m, m + 1):
            raise ValueError(f"an array of shape {ab.shape} where (N, {m}, {m + 1}) is expected")
        if field is not None:
            _check_field(maps.field, field)
        return ab
    ts = list(maps)
    if ts:
        m, field = m or ts[0].m, ts[0].field if field is None else field
    try:
        # one pass over the maps that are plainly the caller's; any other
        # map, or one without a row, sends the list through the check
        rows = [T.row for T in ts if T.field is field and T.m == m]
    except AttributeError:
        rows = None
    if rows is None or len(rows) < len(ts):
        _check_maps(ts, m, field)
        try:
            rows = [T.row for T in ts]
        except AttributeError:
            A = np.fromiter(chain.from_iterable(chain.from_iterable(T.A for T in ts)), _ROW)
            b = np.fromiter(chain.from_iterable(T.b for T in ts), _ROW)
            ab = np.concatenate([A.reshape(len(ts), m, m), b.reshape(len(ts), m, 1)], axis=2)
            for T, row in zip(ts, _rows(ab)):
                T.row = row
            return ab
    return np.frombuffer(bytearray().join(rows), _ROW).reshape(len(ts), m, m + 1)


def _check_maps(ts, m, field):
    """A ValueError unless each object has dimension m and a field equal to
    field; == runs once per distinct field object that is not field itself."""
    odd = [T for T in ts if T.field is not field or T.m != m]
    for T in odd:
        if T.m != m:
            raise ValueError(f"a map of dimension {T.m} where {m} is expected")
    for F in {id(T.field): T.field for T in odd}.values():
        _check_field(F, field)


def _check_field(F, field):
    if F is not field and F != field:
        raise ValueError(f"a map over {F!r} where one over {field!r} is expected")


def _row_keys(ab, q):
    """One key per map of an (N, r, c) array of element indices of GF(q):
    its r * c entries packed into a uint64, bit_length(q - 1) bits each, when
    they fit (m = 3 up to q = 32); otherwise its flattened entries viewed as
    np.void, whose generic compare is slower but never overflows.  A map with
    no entries (r or c zero) gets the key 0."""
    cells, bits = ab.shape[1] * ab.shape[2], max(1, (q - 1).bit_length())
    if cells * bits <= 64:
        weights = np.uint64(1) << np.arange(0, cells * bits, bits, dtype=np.uint64)
        # chunks bound the uint64 copy of the entries, and a strided ab is
        # copied chunk by chunk, never whole
        step = _PAIR_CELLS // max(1, cells) + 1
        return np.concatenate([x.astype(np.uint64).reshape(len(x), cells) @ weights
                               for x in (ab[lo:lo + step] for lo in range(0, len(ab), step))]
                              + [np.empty(0, np.uint64)])
    flat = np.ascontiguousarray(ab).reshape(len(ab), cells)
    return flat.view(np.dtype((np.void, flat.itemsize * cells))).ravel()


def _starts(ordered):
    """Whether each entry of a sorted array differs from the one before."""
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return new


def _key_set(ab, q):
    """The distinct row keys, sorted (np.unique would import numpy.ma)."""
    keys = np.sort(_row_keys(ab, q))
    return keys[_starts(keys)]


def _distinct(keys):
    """The index of the first occurrence of each distinct key, in key order,
    and for each key the position of its own among them."""
    order = np.argsort(keys, kind="stable")
    new = _starts(keys[order])
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new)
    inverse -= 1
    return order[new], inverse


def _linear_parts(ab, q):
    """The distinct linear parts of an (N, m, m + 1) array [A | b], as a
    fresh array of [A | 0] in key order, the first map with each, and each
    map's index among them."""
    m = ab.shape[1]
    first, inverse = _distinct(_row_keys(ab[:, :, :m], q))
    linear = ab[first]
    linear[:, :, m] = 0
    return linear, first, inverse


def _monic(kern, ab):
    """Each row of an (N, m, c) array [A | b] divided by its first nonzero
    entry, and that entry (N, m): the monic representative M of the map's
    class T = diag(lead) M under row scaling.  A zero row stays as it is,
    with lead 0, since Tables.inv[0] = 0."""
    lead = np.take_along_axis(ab, (ab != 0).argmax(axis=2)[:, :, None], axis=2)
    return kern.mul.take(kern.flat(kern.inv[lead], ab)), lead[:, :, 0]


def _scaling_classes(kern, ab):
    """The classes under row scaling of the maps of an (N, m, c) array
    [A | b]: their distinct monic representatives (_monic), in key order,
    the class of each map among them, and each map's leads, so that map t
    is diag(lead[t]) reps[of_class[t]]."""
    monic, lead = _monic(kern, ab)
    first, of_class = _distinct(_row_keys(monic, kern.q))
    return monic[first], of_class, lead


def _invertible(kern, ab):
    """Whether the A of each map of an (N, m, m + 1) array [A | b] is
    invertible, by _invert in batches of at most _PAIR_CELLS cells."""
    m = ab.shape[1]
    return np.concatenate([_invert(kern, ab[k])[1]
                           for k in _chunks(len(ab), m * (2 * m + 1), _PAIR_CELLS)]
                          + [np.zeros(0, dtype=bool)])


def _lookup(sorted_keys, keys):
    """The position of each key in the sorted key array, and whether it
    occurs there at all."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    # searchsorted walks sorted queries about twice as fast
    order = np.argsort(keys)
    pos = np.empty(len(keys), dtype=np.int64)
    pos[order] = np.minimum(np.searchsorted(sorted_keys, keys[order]), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def _contains(sorted_keys, keys):
    """Whether each key occurs in the sorted key array."""
    return _lookup(sorted_keys, keys)[1]


def _right_products(kern, xs, ss):
    """x after s for every x of xs and every s of ss, (N, m, m + 1) arrays
    [A | b], x-major: entry (i, j) of [A_x A_s | A_x b_s + b_x] sums over t
    the columns s[t, j] of the multiplication table read at A_x[i, t].
    Whole table columns are read, not one cell per pair.  The generator
    walk (_cosets) and the pair scan of group_axioms_report use it."""
    m = xs.shape[1]
    out = kern.mul[:, ss[:, 0]].take(xs[:, :, 0], axis=0)     # [x, row, s, col]
    for t in range(1, m):
        out = kern.vadd(out, kern.mul[:, ss[:, t]].take(xs[:, :, t], axis=0))
    out[..., m] = kern.vadd(out[..., m], xs[:, :, m, None])
    return out.transpose(0, 2, 1, 3).reshape(-1, m, m + 1)


def _invert(kern, ab):
    """[A^-1 | -A^-1 b] and the mask of invertible A for an (N, m, m + 1)
    array [A | b], by one batched Gauss-Jordan elimination of [A | I | b]:
    A is invertible exactly when the left block ends as I."""
    n, m = len(ab), ab.shape[1]
    eye = np.broadcast_to(np.eye(m, dtype=np.uint16), (n, m, m))
    aug = np.concatenate([ab[:, :, :m], eye, ab[:, :, m:]], axis=2)
    t = np.arange(n)
    for c in range(m):
        # swap in the first nonzero pivot at or below the diagonal
        r = c + (aug[:, c:, c] != 0).argmax(axis=1)
        pivot_row = aug[t, r]
        aug[t, r] = aug[:, c]
        aug[:, c] = kern.vmul(kern.inv[pivot_row[:, c]][:, None], pivot_row)
        factor = kern.neg[aug[:, :, c]]
        factor[:, c] = 0
        aug = kern.vadd(aug, kern.vmul(factor[:, :, None], aug[:, None, c]))
    ok = (aug[:, np.arange(m), np.arange(m)] == 1).all(axis=1)
    return np.concatenate([aug[:, :, m:2 * m], kern.neg[aug[:, :, 2 * m:]]], axis=2), ok


def _walk(monomials):
    """The nodes that build the pullbacks of the monomials, each v with its
    parent v - e_i and the first coordinate i of v with a nonzero exponent
    (None and None for v = 1).  The monomials are taken in decreasing
    (degree, exponent) order, each after the chain of parents it still
    needs, so a parent comes before its child and no other divisor of the
    monomials is a node."""
    built, walk = set(), []
    for u in sorted(set(monomials), key=lambda e: (-sum(e), e)):
        chain, v = [], u
        while v is not None and v not in built:
            built.add(v)
            i = next((i for i, e in enumerate(v) if e), None)
            parent = None if i is None else v[:i] + (v[i] - 1,) + v[i + 1:]
            chain.append((v, parent, i))
            v = parent
        walk.extend(reversed(chain))
    return walk


class _Forms:
    """Reduced pullbacks modulo I(S) as (N, n) coefficient arrays over the
    box basis of F[x]/I(S), one row per map of an (N, m, m + 1) array
    [A | b], multiplied by the maps' linear forms l_i = sum_j A_ij x_j + b_i:
    x_j shifts along axis j and folds the top slice back through
    x_j^n_j = -sum_d g_d x_j^d, g the vanishing polynomial of the j-th
    component."""

    def __init__(self, kern, S):
        self.kern, self.n = kern, S.n
        # x_j^n_j = sum of c x_j^d over the pairs (d, c) of folds[j]
        self.folds = [[(d, kern.neg[g]) for d, g in enumerate(S.vanishing_coeffs(j)[:-1]) if g]
                      for j in range(S.m)]
        self.views = [(math.prod(S.sizes[:j]), n, math.prod(S.sizes[j + 1:]))
                      for j, n in enumerate(S.sizes)]

    def one(self, count):
        P = np.zeros((count, self.n), dtype=np.uint16)
        P[:, 0] = 1
        return P

    def _scale(self, c, P):
        # c[t] * P[t], one element index c[t] per map, by flat index: the
        # chunks keep the index array small
        return self.kern.mul.take(self.kern.flat(c[:, None], P))

    def _times_x(self, P, j):
        before, n, after = self.views[j]
        P = P.reshape(len(P), before, n, after)
        out = np.zeros_like(P)
        out[:, :, 1:] = P[:, :, :-1]
        for d, c in self.folds[j]:
            out[:, :, d] = self.kern.vadd(out[:, :, d], self.kern.mul[c][P[:, :, -1]])
        return out.reshape(len(P), self.n)

    def times_form(self, P, ab, i):
        """P[t] times l_i of map t, reduced; a term whose coefficient is zero
        for every map is skipped."""
        m = ab.shape[1]
        out = self._scale(ab[:, i, m], P) if ab[:, i, m].any() else np.zeros_like(P)
        for j in range(m):
            if ab[:, i, j].any():
                out = self.kern.vadd(out, self._scale(ab[:, i, j], self._times_x(P, j)))
        return out


def reduced_pullbacks(S: CartesianSet, maps, monomials):
    """The reduced pullbacks modulo I(S) of the monomials under each map, as
    one (N, len(monomials), n_1, ..., n_m) array of coefficients (element
    indices) over the box basis: entry [t, k, e] is the coefficient of x^e in
    the pullback of monomials[k] under map t.  One batch, for few maps;
    monomials may be any iterable, read once, and none gives an
    (N, 0, n_1, ..., n_m) array.

    The forms run once per class under row scaling, on its monic map M
    (_scaling_classes, the span kernel's reduction): a map
    T = diag(lambda) M has the pullback lambda^u times that of M, since
    x^u(diag(lambda) y) = lambda^u x^u(y), so each map's pullbacks are its
    class's, scaled by one gather."""
    monomials = list(monomials)
    ab = _as_array(maps, S.m, S.field)
    kern = S.field.np_tables()
    reps, of_class, lead = _scaling_classes(kern, ab)
    forms = _Forms(kern, S)
    pulled = {}
    for v, parent, i in _walk(monomials):
        pulled[v] = (forms.one(len(reps)) if i is None
                     else forms.times_form(pulled[parent], reps, i))
    # P[:, k] the pullbacks of u = monomials[k] under the classes, and
    # scale[t, k] = lambda^u of map t (0^0 = 1)
    P = np.empty((len(reps), len(monomials), S.n), dtype=np.uint16)
    scale = np.ones((len(ab), len(monomials)), dtype=np.uint16)
    for k, u in enumerate(monomials):
        P[:, k] = pulled[u]
        for i, d in enumerate(u):
            for _ in range(d):
                scale[:, k] = kern.mul[scale[:, k], lead[:, i]]
    return kern.mul.take(kern.flat(scale[:, :, None], P[of_class])).reshape(
        len(ab), len(monomials), *S.sizes)


def keeps_span(L, S: CartesianSet, maps):
    """Whether each map keeps the span of L, by the batched span route."""
    return _span_ok(S.field.np_tables(), exponent_set(L, S), S, _as_array(maps, S.m, S.field))


class _ArrayKey:
    """A map array as a cache key: hashed once by its dtype, shape and
    bytes, and equal to the key of the same array or of an equal one.  It
    holds the caller's array, not a copy of its bytes."""

    def __init__(self, ab):
        self.ab = ab
        self._hash = hash((ab.dtype.str, ab.shape, zlib.crc32(np.ascontiguousarray(ab))))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.ab is other.ab or (self.ab.dtype == other.ab.dtype
                                       and np.array_equal(self.ab, other.ab))


def _read_only(*arrays):
    """The arrays, each set read-only."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=1)
def _span_verdicts(key, kern, members, S):
    """_span_scan of the maps of key.ab, read-only, for the last inputs."""
    return _read_only(_span_scan(kern, members, S, key.ab))[0]


def _span_ok(kern, members, S, ab):
    """Whether each map of an (N, m, m + 1) array [A | b] keeps the span of
    the members of L (codes.exponent_set), by the batched kernel _span_scan,
    cached for the last list, tables, members and S (_span_verdicts).  It
    returns a fresh mask, which a caller may change."""
    return _span_verdicts(_ArrayKey(ab), kern, members, S).copy()


@functools.lru_cache(maxsize=1)
def _list_linear_parts(key, q):
    """_linear_parts of key.ab, read-only, for the last list and q."""
    return _read_only(*_linear_parts(key.ab, q))


def _span_scan(kern, members, S, ab, check=None):
    """Whether each map x -> Ax + b of an (N, m, m + 1) array [A | b] keeps
    the span of the members of L (codes.exponent_set): the reduced pullback
    modulo I(S) of every member, or of every member of the subset check, is
    supported on L.

    The input is first reduced, once, by the two lemmas of the module
    docstring.  Offsets: when 1 is in L, some map has an offset and the
    checked members together with 1 are divisor-closed, the verdict of
    x -> Ax + b is that of x -> Ax, so the maps are replaced by their
    distinct linear parts (_linear_parts, with b = 0).  Row scaling: scaling
    row i by lambda_i scales the pullback of x^v by lambda^v, which leaves
    its support as it is, so the kernel walks the distinct monic maps only
    (_scaling_classes).  Each map is handed the verdict of its class.

    The pullbacks of a chunk of those maps are coefficient arrays (_Forms),
    built along _walk, p_v = p_(v - e_i) * l_i: the checked members in
    decreasing degree, each after the chain of parents it still needs.  A
    map leaves its chunk at the first checked node with a coefficient
    outside L, and every held array is compacted to the maps that stay; a
    decreasing L loses maps at its high-degree members, so they leave
    before the pullbacks of the other chains are built for them.  A node's
    array is freed once its last child is built."""
    check = members if check is None else frozenset(check)
    walk = _walk(check)
    # the walk position of each node's last child
    last = {parent: k for k, (_, parent, _) in enumerate(walk)}
    inside = np.zeros(S.sizes, dtype=bool)
    for u in members:
        inside[u] = True
    outside = np.flatnonzero(~inside)
    forms = _Forms(kern, S)

    def scan(sub):
        # the indices of the maps of the chunk that keep the span
        live = np.arange(len(sub))
        pulled = {}
        for k, (v, parent, i) in enumerate(walk):
            if i is None:
                P = forms.one(len(sub))
            else:
                P = forms.times_form(pulled[parent], sub, i)
                if last[parent] == k:
                    del pulled[parent]
            if v in last:
                pulled[v] = P
            if v in check:
                keep = ~(P[:, outside] != 0).any(axis=1)
                if not keep.all():
                    if not keep.any():
                        return live[:0]
                    live, sub = live[keep], sub[keep]
                    pulled = {w: Q[keep] for w, Q in pulled.items()}
        return live

    m, of_A = ab.shape[1], slice(None)
    if (0,) * m in members and ab[:, :, m].any() and divisor_closed({(0,) * m, *check}):
        ab, _, of_A = _linear_parts(ab, kern.q)
    reps, of_class, _ = _scaling_classes(kern, ab)
    ok = np.zeros(len(reps), dtype=bool)
    for k in _chunks(len(reps), S.n * max(1, len(walk)), _SPAN_CELLS):
        ok[k[scan(reps[k])]] = True
    return ok[of_class[of_A]]


def oracle_stabilizers(S: CartesianSet, budget=None, jobs=1) -> AffineMaps:
    """All invertible affine maps carrying the point set onto itself, in
    base-q counter order: the row-prefix search (_group_search) with no
    member to check, whose budget caps the rows and then each step.  jobs
    is accepted and ignored.  A singular A is never a stabilizer, even
    where it permutes S (a component with one point)."""
    return AffineMaps(S.field, _group_search((), S, budget))


def _surviving_rows(kern, S):
    """Per coordinate i, the rows [a | c] (an (R_i, m + 1) uint16 array) whose
    image x -> a.x + c of S is exactly A_i.

    That image is the sumset c + I_a, I_a = a_1 A_1 + ... + a_m A_m, so no
    step walks the n points.  The sumsets are q-cell masks built prefix by
    prefix: I + a_j A_j is the union of I translated by each a_j x, x in A_j,
    and a translation by y is a gather through z -> z - y.  Row i keeps the
    translations c = t - s_0 (s_0 the first point of I_a, t in A_i) that carry
    I_a onto A_i; only sumsets of size |A_i| are tried.  Each chunk of masks
    and each gather holds about _CHUNK_CELLS cells, or one mask past that."""
    q, m = kern.q, S.m
    comps = [np.array(sorted(c.element_set()), dtype=np.uint16) for c in S.components]
    want = np.zeros((m, q), dtype=bool)
    for i, A in enumerate(comps):
        want[i, A] = True
    sub = kern.add[:, kern.neg].T       # sub[y, z] = z - y
    rows = [[] for _ in range(m)]

    def match(lin, masks):
        sizes, s0 = masks.sum(axis=1), masks.argmax(axis=1)
        for i, A in enumerate(comps):
            keep = np.flatnonzero(sizes == len(A))
            for k in _chunks(len(keep) * len(A), q, _CHUNK_CELLS):
                r, t = np.divmod(k, len(A))
                r = keep[r]
                c = sub[s0[r], A[t]]
                hit = (masks[r[:, None], sub[c]] == want[i]).all(axis=1)
                rows[i].append(np.concatenate([lin[r[hit]], c[hit, None]], axis=1))

    def grow(lin, masks):
        # lin[k] holds a_1 .. a_j and masks[k] the mask of its sumset
        j = lin.shape[1]
        if j == m:
            return match(lin, masks)
        for k in _chunks(len(lin) * q, q, _CHUNK_CELLS):
            p, a = np.divmod(k, q)
            out = np.zeros((len(k), q), dtype=bool)
            for x in comps[j]:
                out |= masks[p[:, None], sub[kern.mul[a, x]]]
            grow(np.concatenate([lin[p], a[:, None].astype(np.uint16)], axis=1), out)

    grow(np.empty((1, 0), dtype=np.uint16), np.arange(q)[None] == 0)
    return [np.concatenate(r + [np.empty((0, m + 1), dtype=np.uint16)]) for r in rows]


def _counter_order(ab):
    """The maps of an (N, m, m + 1) array sorted into base-q counter order:
    the counter digits, least significant first, are [A | b] in column-major
    order."""
    m = ab.shape[1]
    return ab[np.lexsort([ab[:, i, j] for j in range(m + 1) for i in range(m)])]


def _group_search(L, S, budget=None):
    """The stabilizers that keep the span of L, in counter order, found by a
    row-prefix search that never lists the stabilizers.

    The pullback of x^u reads only the rows i with u_i > 0.  So each
    coordinate's surviving rows are first filtered by the members in x_j
    alone (identity rows elsewhere).  Before that batched check, a row drops
    when it uses a variable x_k whose power x_k^e is not in L for a member
    x_j^e, e < n_k: the reduced pullback (a.x + c)^e has the coefficient
    a_k^e at x_k^e, since every other term of degree e that reduces keeps a
    variable besides x_k.  Prefixes of rows then grow one coordinate at a
    time; a coordinate j that is the last variable of some mixed member
    checks the prefixes (below).  At the last coordinate only the
    invertible products are built: the prefixes are grouped by the linear
    parts of their first m - 1 rows and the rows by their linear part
    (_distinct of _row_keys), one product per pair of groups is eliminated
    (_invert, in batches of at most _PAIR_CELLS cells), and a product is
    built, in the order of the candidates, when its pair is invertible.  With no members
    (oracle_stabilizers) the steps build every invertible product of
    surviving rows.  The budget caps the row pass and then each step's
    candidates, prefixes times rows, before they are built.

    The checks call _span_scan, not the cache of _span_ok, in chunks of
    _SPAN_CELLS cells: the candidates of a chunk share a prefix, so many of
    them differ by offsets and row scalings only, and the kernel walks one
    per class.  So a step with a new mixed member checks every member in
    x_1 .. x_(j+1), not only the new ones: for a decreasing L that set and
    1 are closed under division, which lets the kernel drop the offsets."""
    F, m, q = S.field, S.m, S.field.q
    check_budget(q ** (m + 1), budget, "stabilizer row pass of {} candidates")
    members = exponent_set(L, S)
    kern = F.np_tables()
    rows = _surviving_rows(kern, S)
    alone, mixed = [[] for _ in range(m)], [[] for _ in range(m)]
    for u in members:
        support = [j for j, e in enumerate(u) if e]
        if support:
            (alone if len(support) == 1 else mixed)[support[-1]].append(u)
    eye = np.eye(m, m + 1, dtype=np.uint16)
    prefix = eye[None]
    # the cells of one candidate in the elimination
    cells = m * (2 * m + 1)
    for j, r in enumerate(rows):
        if alone[j]:
            banned = [k for k, n in enumerate(S.sizes) if any(
                u[j] < n and tuple(u[j] * (i == k) for i in range(m)) not in members
                for u in alone[j])]
            r = r[(r[:, banned] == 0).all(axis=1)]
            ab = np.repeat(eye[None], len(r), axis=0)
            ab[:, j] = r
            r = r[_span_scan(kern, members, S, ab, check=alone[j])]
        total = len(prefix) * len(r)
        check_budget(total, budget, f"row-prefix step {j + 1} (coordinate x{j + 1}) "
                                    "of {} candidates")
        upto = [u for u in members if not any(u[j + 1:])]

        # extend, pairs and grow run within their own step: the step's prefix
        # is freed once the next one is built
        def extend(p, t):
            ab = prefix[p]
            ab[:, j] = r[t]
            return ab

        if j == m - 1:
            # ok[h, t]: whether the products of prefix head h (the linear
            # parts of its first m - 1 rows) and last linear part t are invertible
            (heads, head), (lasts, last) = (_distinct(_row_keys(x, q))
                                            for x in (prefix[:, :j, :m], r[:, None, :m]))

            def pairs(k):
                h, t = np.divmod(k, len(lasts))
                return _invert(kern, extend(heads[h], lasts[t]))[1]

            pair_count = len(heads) * len(lasts)
            ok = np.concatenate([pairs(k) for k in _chunks(pair_count, cells, _PAIR_CELLS)]
                                + [np.zeros(0, dtype=bool)]).reshape(len(heads), len(lasts))

        def grow(k):
            # a function call, so each chunk's temporaries are freed before
            # the next chunk is built; a singular product is never built
            p, t = np.divmod(k, len(r))
            if j == m - 1:
                keep = ok[head[p], last[t]]
                p, t = p[keep], t[keep]
            ab = extend(p, t)
            return ab[_span_scan(kern, members, S, ab, check=upto)] if mixed[j] else ab

        prefix = np.concatenate([grow(k) for k in _chunks(total, cells, _SPAN_CELLS)]
                                + [np.empty((0, m, m + 1), dtype=np.uint16)])
    return _counter_order(prefix)


def oracle_affine_perm_group(L: MonomialSet, S: CartesianSet, budget=None,
                             stabilizers=None) -> AffineMaps:
    """Exact affine permutation group of the code of L on S: the point-set
    stabilizers that keep the reduced span inside L.  Without stabilizers it
    is found by the row-prefix search (_group_search), in counter order; a
    supplied list of stabilizers is filtered by the span route, in its own
    order."""
    if stabilizers is None:
        return AffineMaps(S.field, _group_search(L, S, budget))
    ab = _as_array(stabilizers, S.m, S.field)
    return AffineMaps(S.field, ab[_span_ok(S.field.np_tables(), exponent_set(L, S), S, ab)])


def group_axioms_report(F: Field, transforms):
    """Identity membership, closure under inverse, and closure under
    composition, batched on the field tables.

    With the identity a member and every A invertible (AffineMaps.invertible),
    the generator walk (_cosets, every member accepted) decides closure
    under composition exactly.  When it finds every product the members
    form a group, which holds every inverse: min(g * g, _PAIR_LIMIT) pairs
    count as checked (exhaustive when that is all g * g), none is composed
    and nothing is looked up.  Otherwise the inverses are looked up and that
    many ordered pairs composed in itertools.product order, pair i * g + j
    being member i after member j.  The witness is the first member whose
    inverse is missing, overwritten by the first failing pair, else by the
    walk's first miss; without the walk the scanned pairs alone decide."""
    ab = _as_array(transforms, field=F)
    maps = AffineMaps(F, ab)
    g, m = ab.shape[:2]
    total = min(g * g, _PAIR_LIMIT)
    report = {
        "size": g,
        "has_identity": bool((ab == np.eye(m, m + 1, dtype=np.uint16)).all(axis=(1, 2)).any()),
        "closed_under_inverse": True,
        "closed_under_composition": True,
        "composition_pairs_checked": 0,
        "exhaustive": g * g <= _PAIR_LIMIT,
        "witness": None,
    }
    if g == 0:
        return report
    kern = F.np_tables()
    miss = None
    if report["has_identity"] and maps.invertible().all():
        miss = _cosets(kern, ab, np.ones(g, dtype=bool))[1]
        if miss is None:
            report["composition_pairs_checked"] = total
            return report
    members = _key_set(ab, F.q)
    for k in _chunks(g, m * (2 * m + 1), _PAIR_CELLS):
        inv, ok = _invert(kern, ab[k])
        bad = np.flatnonzero(~(ok & _contains(members, _row_keys(inv, F.q))))
        if len(bad):
            report["closed_under_inverse"] = False
            report["witness"] = maps[k[bad[0]]].to_json()
            break
    # whole rows of pairs per batch when a row fits in the batch, else one
    # row in blocks of columns: either way the pairs come in product order
    cells = m * m * (m + 1)
    for rows in _chunks(-(-total // g), cells * g, _PAIR_CELLS):
        for cols in _chunks(g, cells * len(rows), _PAIR_CELLS):
            first = int(rows[0] * g + cols[0])
            if first >= total:
                break
            prods = _right_products(kern, ab[rows], ab[cols])[:total - first]
            bad = np.flatnonzero(~_contains(members, _row_keys(prods, F.q)))
            if len(bad):
                pair = first + int(bad[0])
                report["composition_pairs_checked"] = pair + 1
                report["closed_under_composition"] = False
                report["witness"] = {"left": maps[pair // g].to_json(),
                                     "right": maps[pair % g].to_json()}
                return report
    report["composition_pairs_checked"] = total
    if miss is not None:
        # no scanned pair fails; the walk's miss does
        report["closed_under_composition"] = False
        report["witness"] = {"left": maps[miss[0]].to_json(), "right": maps[miss[1]].to_json()}
    return report


# ---------------------------------------------------------------------------
# code-level route

def code_permutation_check(T: AffineTransformation, L, S, code=None) -> bool:
    """Semantic ground truth: the induced coordinate permutation maps the
    code of L on S to itself (row spaces compared in echelon form)."""
    if not stabilizes_set(T, S):
        raise ValueError("transformation does not stabilize the point set")
    if code is None:
        code = build_code(L, S)
    pi = induced_permutation(T, S)
    return codes_equal(code, code.permute_columns(pi))


class _Images:
    """The point images of the maps of an (N, m, m + 1) array [A | b] on S,
    by per-coordinate position tables.  Row i of a map sends the point x to
    a_i.x + b_i; its position in the element order of the i-th component is
    -1 when it lies outside, an int16 since the tables exist only for
    q <= TABLE_LIMIT.  The image of x is then the point index
    sum_i pos_i * stride_i, in the itertools.product order of S.points_ix().
    Each distinct row of a coordinate is evaluated once, over the box.  The
    tables and row indices are read-only, as the caches hold them."""

    def __init__(self, kern, S, ab):
        self.rows, self.tables = [], []
        for i, comp in enumerate(S.components):
            first, inverse = _distinct(_row_keys(ab[:, i:i + 1], kern.q))
            pos = np.full(kern.q, -1, dtype=np.int16)
            pos[[x.ix for x in comp.elements]] = np.arange(comp.n)
            table = np.concatenate(
                [pos[self._values(kern, S, ab[first[k], i])] for k in _chunks(len(first), S.n)]
                + [np.empty((0, S.n), dtype=pos.dtype)])
            self.rows.append(inverse)
            self.tables.append((table, math.prod(S.sizes[i + 1:])))
            _read_only(inverse, table)

    @staticmethod
    def _values(kern, S, rows):
        # a.x + c at every point x of S, for (R, m + 1) rows [a | c]: one
        # broadcast axis per coordinate, flattened into point order
        m, cells = S.m, (len(rows),) + (1,) * S.m
        acc = rows[:, m].reshape(cells)
        for j, comp in enumerate(S.components):
            axis = np.array([x.ix for x in comp.elements], dtype=np.uint16).reshape(
                (1,) + tuple(comp.n if k == j else 1 for k in range(m)))
            acc = kern.vadd(acc, kern.vmul(rows[:, j].reshape(cells), axis))
        return acc.reshape(len(rows), S.n)

    def inside(self):
        """Whether each map sends S into S: every row stays in its component."""
        ok = True
        for inverse, (table, _) in zip(self.rows, self.tables):
            ok = ok & (table >= 0).all(axis=1)[inverse]
        return ok

    def __call__(self, t):
        """The (len(t), n) image indices of the maps t, which send S into S."""
        return sum(table[inverse[t]].astype(np.int64) * stride
                   for inverse, (table, stride) in zip(self.rows, self.tables))


@functools.lru_cache(maxsize=1)
def _stabilizer_images(key, kern, S):
    """The _Images of the maps of key.ab, for the last list, tables and S,
    each map checked to permute S (ValueError otherwise).  A map that sends
    S into S permutes it when A is invertible, which is decided once per
    linear part (_list_linear_parts); a singular one (possible only on a
    one-point component) must have distinct image indices."""
    images = _Images(kern, S, key.ab)
    ok = images.inside()
    linear, _, of_A = _list_linear_parts(key, kern.q)
    singular = np.flatnonzero(ok & ~_invertible(kern, linear)[of_A])
    for k in _chunks(len(singular), S.n):
        pi = np.sort(images(singular[k]), axis=1)
        ok[singular[k]] = (pi == np.arange(S.n)).all(axis=1)
    if not ok.all():
        raise ValueError("transform stream contains a non-stabilizer")
    return images


def _generator_rows(kern, members, S):
    """The generator matrix of the code of L on S, given by its members
    (codes.exponent_set), as codes.build_code builds it (one row per member
    in graded-lex order, the points in the order of S.points_ix()), as a
    (len(members), n) array: per component, the powers of its elements up
    to the highest exponent of L there, then one product gather per
    coordinate for all members at once, broadcast over the box."""
    exps = np.array(sorted_monomials(members), dtype=np.int64).reshape(-1, S.m)
    rows = np.ones((len(exps),) + (1,) * S.m, dtype=np.uint16)
    for j, comp in enumerate(S.components):
        elements = np.array([x.ix for x in comp.elements], dtype=np.uint16)
        # powers[d, t] = (t-th element)^d
        powers = [np.ones(comp.n, dtype=np.uint16)]
        for _ in range(int(exps[:, j].max(initial=0))):
            powers.append(kern.mul[powers[-1], elements])
        shape = (len(exps),) + tuple(comp.n if k == j else 1 for k in range(S.m))
        rows = kern.vmul(rows, np.stack(powers)[exps[:, j]].reshape(shape))
    return rows.reshape(len(exps), S.n)


class _CodeRoute:
    """The code-level check: a map's induced permutation pi keeps the code of
    L exactly when every permuted generator row G[:, pi] has a zero residue
    against the row-reduced generator matrix.  G is built in batch
    (_generator_rows) and reduced by the scalar GeneratorMatrix.rref."""

    def __init__(self, kern, members, S):
        self.kern = kern
        self.G = _generator_rows(kern, members, S)
        rref_rows, _, self.pivots = GeneratorMatrix(S.field, (), self.G.tolist()).rref()
        R = np.array(rref_rows, dtype=np.uint16).reshape(-1, S.n)
        # a word w lies in the code exactly when w = sum_r w[c_r] R[r] over the
        # pivot columns c_r, i.e. when its residue w - sum_r w[c_r] R[r] is zero;
        # that residue vanishes at the pivot columns, so only the free ones are
        # kept.  minus[r, c] = -c R[r] on the free columns.
        self.free = [c for c in range(S.n) if c not in self.pivots]
        self.minus = kern.vmul(kern.neg[:, None], R[:, None, self.free])
        self.cells = max(1, len(self.G)) * S.n

    def accepts(self, images, t):
        """Whether the code route accepts each of the maps t of images."""
        ok = np.ones(len(t), dtype=bool)
        for k in _chunks(len(t), self.cells):
            pi = images(t[k])
            # only the permuted columns the residue reads: (rows, maps, free)
            residue = self.G[:, pi[:, self.free]]
            for r, c in enumerate(self.pivots):
                residue = self.kern.vadd(residue, self.minus[r][self.G[:, pi[:, c]]])
            ok[k] = ~residue.any(axis=(0, 2))
        return ok


def _components(label, u, v):
    """The least node of each node's connected component, in the graph on
    range(len(label)) with the edges (u[k], v[k]) added to the components
    that label already gives by their least nodes (np.arange for none).
    Each pass hooks every root under the least root it meets across an edge,
    then compresses the paths fully, so the labels are roots again; no pass
    loops over components."""
    while True:
        ru, rv = label[u], label[v]
        if (ru == rv).all():
            return label
        low = np.minimum(ru, rv)
        np.minimum.at(label, ru, low)
        np.minimum.at(label, rv, low)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def _cosets(kern, ab, span_ok):
    """Generators of the maps the span route accepts, a component label per
    map, and the first miss: the components of the graph on the maps of ab
    that joins each map x to x after s for every generator s, and equal maps
    to each other; a label is the first map of its component, in input
    order.  A miss is a pair (x, s) of indices, a map and a generator, with
    x after s not among the maps; the first is taken in generator order,
    then in input order, and is None when every product is found.

    The generators are picked in rounds, with no loop per coset: the first
    accepted map outside the identity's component becomes one, every map is
    multiplied by it, and the components are updated, until that component
    holds every accepted map.  When the accepted maps H form a group and ab
    is a union of left cosets gH, the components are those cosets; otherwise
    a coset may split into several components, and never two cosets share
    one.  The identity's component is then the subgroup generated so far,
    so each round at least doubles it; a round that does not ends the walk,
    which on a set that is no group could otherwise take a round per map.

    With every map accepted and invertible, the identity among them, the
    maps are closed under composition exactly when there is no miss
    (group_axioms_report).  With none, right multiplication by a generator
    maps the finite set into itself, so onto it, and the set is closed
    under the generators' inverses too; every map is in the identity's
    component, so in the group <X> of the generators X; and the set holds
    the identity, so all of <X> (Seress 2003; Butler 1991).  So a round
    without a miss doubles the component, and a walk ended early has one.

    Returns ((generators, labels, the identity's index), miss), the first
    None when a round does not double; (None, None) when the identity is not
    an accepted map."""
    q, m, n = kern.q, ab.shape[1], len(ab)
    identity = np.flatnonzero((ab == np.eye(m, m + 1, dtype=np.uint16)).all(axis=(1, 2)))
    if not (len(identity) and span_ok[identity[0]]):
        return None, None
    anchor = identity[0]
    keys = _row_keys(ab, q)
    first, inverse = _distinct(keys)
    # each map's first equal map; the rounds hold neither array
    keys, twin = keys[first], first[inverse]
    del inverse
    # the labels of the components so far are a valid start for the next
    # round, which then needs only the new generator's edges
    label = _components(np.arange(n), np.arange(n), twin)
    # each accepted map at its first occurrence
    accepted = span_ok & (twin == np.arange(n))
    del twin
    gens, reached, miss = [], 1, None
    while True:
        left = np.flatnonzero(span_ok & (label != label[anchor]))
        if not len(left):
            return (np.array(gens, dtype=np.int64), label, anchor), miss
        s = int(left[0])
        gens.append(s)
        u, v = [], []
        for k in _chunks(n, m * m * (m + 1), _PAIR_CELLS):
            pos, hit = _lookup(keys, _row_keys(_right_products(kern, ab[k], ab[s:s + 1]), q))
            if miss is None and not hit.all():
                miss = (int(k[hit.argmin()]), s)
            u.append(k[hit])
            v.append(first[pos[hit]])
        label = _components(label, np.concatenate(u), np.concatenate(v))
        grown = np.count_nonzero(accepted & (label == label[anchor]))
        if grown < 2 * reached:
            return None, miss
        reached = grown


def _translations(kern, S):
    """An F_p-basis of the translations that keep S, T_S = the product over
    i of {t : A_i + t = A_i}, as maps [I | t e_i]: each factor is an
    additive subgroup of GF(q), so an F_p-subspace, and a greedy pass over
    its elements keeps each one outside the span of those kept before, at
    most k of them for q = p^k."""
    q, m, p = kern.q, S.m, S.field.p
    maps = []
    for i, comp in enumerate(S.components):
        elements = np.array(sorted(comp.element_set()))
        inside = np.zeros(q, dtype=bool)
        inside[elements] = True
        spanned = np.arange(q) == 0
        for t in np.flatnonzero(inside[kern.add[:, elements]].all(axis=1)):
            if not spanned[t]:
                shift = np.eye(m, m + 1, dtype=np.uint16)
                shift[i, m] = t
                maps.append(shift)
                # the span grows by the multiples c t, c in F_p: each a
                # translation by t more, a gather through z -> z - t
                shifted, back = spanned, kern.add[kern.neg[t]]
                for _ in range(p - 1):
                    shifted = shifted[back]
                    spanned = spanned | shifted
    return np.array(maps, dtype=np.uint16).reshape(-1, m, m + 1)


@functools.lru_cache(maxsize=1)
def _translation_images(kern, S):
    """_translations of S, read-only, with their _Images, for the last
    tables and S: a fact of S, so a change of list keeps it."""
    shifts = _read_only(_translations(kern, S))[0]
    return shifts, _Images(kern, S, shifts)


def _routes_certified(kern, code, S, images, key, span_ok):
    """Whether the code route accepts exactly the maps the span route
    accepts, decided on generators and coset representatives (_cosets).

    The induced permutations compose as the maps do, and the code route
    accepts a group of permutations.  So when it accepts the generators, it
    accepts every map of the identity's component, whose permutation is a
    product of theirs and their inverses: there must be no rejected map in
    that component, and then every accepted map is there.  Any other
    component is r times such products, r its first map, so the code route
    rejects all of it when it rejects r (Seress 2003; Butler 1991).

    The walk runs over the distinct linear parts (_linear_parts, each with
    b = 0) instead of the maps when some linear part has several maps, the
    span verdicts are constant on each linear part, and the code route
    accepts an F_p-basis of the translations T_S that keep S (_translations).
    Two stabilizers with one A differ by a translation of T_S, which the
    code route's group then holds, so its verdict is a function of A too;
    (A, b) -> A is a homomorphism, so the argument above holds for the linear
    parts, with the code route run on the first listed map of each
    generator and representative.  The check reads the span verdicts only,
    so the two routes stay independent.  The linear parts of the list key.ab
    and the basis of T_S with its images are cached (_list_linear_parts,
    _translation_images), so the draws of L over one list compute them once."""
    ab = key.ab
    linear, first, of_map = _list_linear_parts(key, kern.q)
    linear_ok = np.zeros(len(linear), dtype=bool)
    linear_ok[of_map[span_ok]] = True
    on_linear = len(linear) < len(ab) and np.array_equal(linear_ok[of_map], span_ok)
    if on_linear:
        shifts, shift_images = _translation_images(kern, S)
        on_linear = code.accepts(shift_images, np.arange(len(shifts))).all()
    if on_linear:
        ab, span_ok = linear, linear_ok
    else:
        first = np.arange(len(ab))
    found = _cosets(kern, ab, span_ok)[0]
    if found is None:
        return False
    gens, label, anchor = found
    inner = label == label[anchor]
    if (inner & ~span_ok).any():
        return False
    reps = np.flatnonzero((label == np.arange(len(ab))) & ~inner)
    code_ok = code.accepts(images, first[np.concatenate([gens, reps])])
    return bool(code_ok[:len(gens)].all() and not code_ok[len(gens):].any())


def two_route_agreement(L, S, transforms):
    """Compare the monomial-span condition with the code-level permutation
    check on each given stabilizer of S (an AffineMaps, or a list of maps
    packed once; any other map is a ValueError); returns (agree,
    disagreements), the maps on which the routes differ, in input order.

    Both routes decide membership in a group, so the code route runs only
    on the generators of the span route's group and on one representative
    of each of its other cosets (_routes_certified: Seress 2003; Butler
    1991).  When the span verdicts are constant on each linear part and the
    code route accepts a basis of the translations that keep S, its
    verdicts are too, since two stabilizers with one A differ by such a
    translation; then the generators and cosets are taken of the distinct
    linear parts, not of the maps.  Only when that fails to certify does it
    run on every map, to name the disagreements.  The list's facts that do
    not depend on L are cached, so later calls on it rebuild only the rest."""
    F = S.field
    ab = _as_array(transforms, S.m, F)
    kern = F.np_tables()
    # one read of L and one key of the list, handed to each route
    members, key = exponent_set(L, S), _ArrayKey(ab)
    code = _CodeRoute(kern, members, S)
    span_ok = _span_ok(kern, members, S, ab)
    images = _stabilizer_images(key, kern, S)
    if _routes_certified(kern, code, S, images, key, span_ok):
        return True, []
    code_ok = code.accepts(images, np.arange(len(ab)))
    disagreements = [{"T": AffineMaps(F, ab)[t].to_json(), "span_route": bool(span_ok[t]),
                      "code_route": bool(code_ok[t])}
                     for t in np.flatnonzero(span_ok != code_ok)]
    return (not disagreements, disagreements)


# ---------------------------------------------------------------------------
# verification reports

class VerificationReport:
    """Outcome of comparing a structural family against the oracle."""

    def __init__(self, configuration, relation, oracle_count, family_count,
                 counterexamples=(), extra=None):
        self.configuration = configuration
        self.relation = relation          # "equal" | "family-subset" | "violation"
        self.oracle_count = oracle_count
        self.family_count = family_count
        self.counterexamples = list(counterexamples)
        self.extra = extra or {}

    @property
    def ok(self):
        return self.relation != "violation"

    def to_json(self):
        return {
            "configuration": self.configuration,
            "relation": self.relation,
            "oracle_count": self.oracle_count,
            "family_count": self.family_count,
            "counterexamples": self.counterexamples,
            **self.extra,
        }

    def __repr__(self):
        return (f"VerificationReport({self.configuration!r}, {self.relation}, "
                f"oracle={self.oracle_count}, family={self.family_count})")


def verify_characterization(family, S, budget=None, label="",
                            stabilizers=None) -> VerificationReport:
    """Exact set equality between a characterized stabilizer family and the
    exhaustive point-set stabilizers (scanned here unless supplied)."""
    oracle = AffineMaps.packed(
        S.field, oracle_stabilizers(S, budget) if stabilizers is None else stabilizers, S.m)
    fam = AffineMaps.packed(S.field, family.members(budget), S.m)
    q = S.field.q
    okeys, fkeys = _key_set(oracle.ab, q), _key_set(fam.ab, q)
    counterexamples = []
    for maps, others, reason in ((oracle, fkeys, "oracle-only"), (fam, okeys, "family-only")):
        # the first map, in its own order, that the other side lacks
        miss = np.flatnonzero(~_contains(others, _row_keys(maps.ab, q)))
        if len(miss):
            counterexamples.append({"T": maps[miss[0]].to_json(), "reason": reason})
    relation = "equal" if not counterexamples else "violation"
    return VerificationReport(label or family.kind, relation, len(okeys), len(fkeys),
                              counterexamples, {"count_formula": family.count()})


def verify_containment(members, L, S, budget=None, label="",
                       stabilizers=None) -> VerificationReport:
    """Every emitted transformation must lie in the oracle's affine
    permutation group of the code of L on S."""
    group = oracle_affine_perm_group(L, S, budget, stabilizers=stabilizers)
    q = S.field.q
    gkeys = _key_set(group.ab, q)
    emitted = AffineMaps.packed(S.field, members, S.m)
    counterexamples = [{"T": emitted[t].to_json(), "reason": "not-in-oracle-group"}
                       for t in np.flatnonzero(~_contains(gkeys, _row_keys(emitted.ab, q)))]
    # equal when the distinct members (all in the group) are as many as it
    relation = "violation" if counterexamples else (
        "equal" if len(_key_set(emitted.ab, q)) == len(gkeys) else "family-subset")
    return VerificationReport(label, relation, len(gkeys), len(emitted), counterexamples)
