"""Brute-force ground truth: exhaustive enumeration of affine maps, the
point-set stabilizer scan, the exact affine permutation group of a code, and
the independent code-level permutation check.

There is one stabilizer scan, row-factored: T(S) = S for a Cartesian S forces
each row of T to map S onto its component, so the q^(m+1) candidate rows are
filtered once; a product of surviving rows maps S into S, and onto S exactly
when A is invertible.  Scans run on numpy index arrays with field lookup
tables and report in base-q counter order, so the first counterexample is
reproducible.

One batched Gauss-Jordan elimination (_invert) on (N, m, m + 1) arrays
[A | b] tests A for invertibility and inverts the map, for the scan and the
group-axioms check.  That check keys the members by the bytes of each row,
looks every inverse and product up among the sorted keys, and visits the
pairs in the order of the pair-by-pair reference in tests/test_axioms.py.
"""

from __future__ import annotations

import math

import numpy as np

from .affine import AffineTransformation, SpanChecker, induced_permutation, stabilizes_set
from .codes import build_code, codes_equal
from .families import BudgetExceeded
from .field import Field
from .monomials import MonomialSet
from .points import CartesianSet

_CHUNK_CELLS = 4_000_000
# the elimination and composition batches stay small: their int64 index
# temporaries would otherwise raise the peak memory of a run
_PAIR_CELLS = 1 << 16


def affine_space_size(F: Field, m: int) -> int:
    return F.q ** (m * m + m)


def enumerate_all_affine(F: Field, m: int, budget=None, invertible_only=False):
    """Every pair (A, b) exactly once, in base-q counter order."""
    total = affine_space_size(F, m)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"affine space of size {total} exceeds budget {budget}")
    q = F.q
    for counter in range(total):
        c = counter
        ent = []
        for _ in range(m * m + m):
            ent.append(c % q)
            c //= q
        A = [[ent[col * m + row] for col in range(m)] for row in range(m)]
        T = AffineTransformation(F, A, ent[m * m:])
        if invertible_only and not T.is_invertible():
            continue
        yield T


class _Kernel:
    """Vectorized arithmetic over one field's lookup tables."""

    def __init__(self, F: Field):
        t = F.np_tables()
        self.q = F.q
        self.mul = t["mul"]
        self.add = t["add"]
        self.neg = t["neg"]
        self.inv = t["inv"]

    def vadd(self, x, y):
        return self.add[x.astype(np.int64), y.astype(np.int64)]

    def vmul(self, x, y):
        return self.mul[x.astype(np.int64), y.astype(np.int64)]


def _batch_images(kern, A, b, pts):
    """img[t, pt, i] for a chunk of maps: row i of A[t] applied to each point
    plus b[t, i]."""
    prods = kern.vmul(A[:, None, :, :], pts[None, :, None, :])
    acc = prods[..., 0]
    for j in range(1, pts.shape[1]):
        acc = kern.vadd(acc, prods[..., j])
    return kern.vadd(acc, b[:, None, :])


def _encode(codes, q):
    m = codes.shape[-1]
    weights = (q ** np.arange(m)).astype(np.int64)
    return (codes.astype(np.int64) * weights).sum(axis=-1)


def _chunks(total, cells, limit=_CHUNK_CELLS):
    """Index ranges covering range(total), each about limit / cells long."""
    step = max(1, limit // max(1, cells))
    for lo in range(0, total, step):
        yield np.arange(lo, min(lo + step, total))


def _pack(transforms, m):
    """The maps as an (N, m, m + 1) uint16 array of augmented matrices [A | b]."""
    return np.array([[row + (c,) for row, c in zip(T.A, T.b)] for T in transforms],
                    dtype=np.uint16).reshape(-1, m, m + 1)


def _row_keys(ab):
    """One byte key per map of an (N, m, m + 1) array: its flattened entries
    viewed as np.void, so that no integer key can overflow."""
    flat = np.ascontiguousarray(ab).reshape(len(ab), ab.shape[1] * ab.shape[2])
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


def _contains(sorted_keys, keys):
    """Whether each key occurs in the sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _compose(kern, left, right):
    """left after right, pair by pair, for (N, m, m + 1) arrays [A | b]:
    [A_l A_r | A_l b_r + b_l] by table lookups."""
    m = left.shape[1]
    prods = kern.vmul(left[:, :, :m, None], right[:, None, :, :])   # [n, row, t, col]
    out = prods[:, :, 0]
    for t in range(1, m):
        out = kern.vadd(out, prods[:, :, t])
    out[:, :, m] = kern.vadd(out[:, :, m], left[:, :, m])
    return out


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


def _check_budget(size, budget, phase):
    if budget is not None and size > budget:
        raise BudgetExceeded(f"{phase} of {size} candidates exceeds budget {budget}")


def oracle_stabilizers(S: CartesianSet, budget=None, jobs=1):
    """All invertible affine maps carrying the point set onto itself, in
    base-q counter order; the budget caps the candidate rows and then the
    product of the surviving rows.  jobs is accepted and ignored.

    A product of surviving rows maps S into S, and onto S exactly when A is
    invertible, so only invertibility is tested; a singular A is never a
    stabilizer, even where it permutes S (a component with one point)."""
    F, m, q = S.field, S.m, S.field.q
    _check_budget(q ** (m + 1), budget, "stabilizer row pass")
    kern = _Kernel(F)
    rows = _surviving_rows(kern, S)
    total = math.prod(len(r) for r in rows)
    _check_budget(total, budget, "stabilizer product scan")

    def scan(k):
        # a function call, so each chunk's temporaries are freed before the
        # next chunk is built; ab[t] is the augmented matrix [A | b]
        ab = np.empty((len(k), m, m + 1), dtype=np.uint16)
        for i, r in enumerate(rows):
            k, pick = np.divmod(k, len(r))
            ab[:, i] = r[pick]
        return ab[_invert(kern, ab)[1]]

    ab = np.concatenate([scan(k) for k in _chunks(total, m * (2 * m + 1), _PAIR_CELLS)]
                        + [np.empty((0, m, m + 1), dtype=np.uint16)])
    # counter digits, least significant first: [A | b] in column-major order
    keys = [ab[:, i, j] for j in range(m + 1) for i in range(m)]
    return [AffineTransformation(F, [r[:m] for r in M], [r[m] for r in M])
            for M in ab[np.lexsort(keys)].tolist()]


def _surviving_rows(kern, S):
    """Per coordinate i, the rows [a | c] (an (R_i, m + 1) index array) whose
    image x -> a.x + c of S is exactly A_i."""
    q, m = kern.q, S.m
    pts = np.array(S.points_ix(), dtype=np.uint16)
    want = np.zeros((m, q), dtype=bool)
    for i, c in enumerate(S.components):
        want[i, list(c.element_set())] = True

    def keep(k):
        ac = np.empty((len(k), m + 1), dtype=np.uint16)
        for j in range(m + 1):
            k, ac[:, j] = np.divmod(k, q)
        img = _batch_images(kern, ac[:, None, :m], ac[:, m:], pts)[..., 0]
        seen = np.zeros((len(ac), q), dtype=bool)
        seen[np.arange(len(ac))[:, None], img] = True
        return [ac[(seen == want[i]).all(axis=1)] for i in range(m)]

    kept = [keep(k) for k in _chunks(q ** (m + 1), S.n * m)]
    return [np.concatenate([f[i] for f in kept]) for i in range(m)]


def oracle_affine_perm_group(L: MonomialSet, S: CartesianSet, budget=None,
                             stabilizers=None):
    """Exact affine permutation group of the code of L on S: point-set
    stabilizers that also keep the reduced monomial span inside L."""
    if stabilizers is None:
        stabilizers = oracle_stabilizers(S, budget)
    checker = SpanChecker(L, S)
    return [T for T in stabilizers if checker.check(T)]


def group_axioms_report(F: Field, transforms, sample_limit=2_000_000, seed=0):
    """Identity membership, closure under inverse, and closure under
    composition (exhaustive when the pair count is within the sample limit,
    deterministic sampling beyond), batched on the field tables.  The witness
    is the first member whose inverse is missing, overwritten by the first
    product outside the set (pairs in itertools.product or sampled order)."""
    ts = list(transforms)
    g = len(ts)
    report = {
        "size": g,
        "has_identity": any(T.is_translation() and not any(T.b) for T in ts),
        "closed_under_inverse": True,
        "closed_under_composition": True,
        "composition_pairs_checked": 0,
        "exhaustive": g * g <= sample_limit,
        "witness": None,
    }
    if g == 0:
        return report
    kern = _Kernel(F)
    m = ts[0].m
    ab = _pack(ts, m)
    members = np.sort(_row_keys(ab))
    for k in _chunks(g, m * (2 * m + 1), _PAIR_CELLS):
        inv, ok = _invert(kern, ab[k])
        bad = np.flatnonzero(~(ok & _contains(members, _row_keys(inv))))
        if len(bad):
            report["closed_under_inverse"] = False
            report["witness"] = ts[k[bad[0]]].to_json()
            break
    if report["exhaustive"]:
        total, draws = g * g, None
    else:
        total = sample_limit
        draws = np.random.default_rng(seed).integers(0, g, size=(sample_limit, 2))
    for k in _chunks(total, m * m * (m + 1), _PAIR_CELLS):
        i, j = np.divmod(k, g) if draws is None else draws[k].T
        miss = np.flatnonzero(~_contains(members, _row_keys(_compose(kern, ab[i], ab[j]))))
        if len(miss):
            t = miss[0]
            report["composition_pairs_checked"] = int(k[t]) + 1
            report["closed_under_composition"] = False
            report["witness"] = {"left": ts[i[t]].to_json(), "right": ts[j[t]].to_json()}
            return report
    report["composition_pairs_checked"] = total
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


def two_route_agreement(L, S, transforms=None, budget=None, span_group=None):
    """Compare the monomial-span condition with the code-level permutation
    check on every stabilizing map; returns (agree, disagreements).

    span_group, when given, is the span route's answer already computed: the
    maps among the stabilizers that pass the span check, as
    oracle_affine_perm_group returns them.  A map's span verdict is then its
    membership in that group instead of a second span check."""
    ts = oracle_stabilizers(S, budget) if transforms is None else list(transforms)
    F, m = S.field, S.m
    kern = _Kernel(F)
    pts = np.array(S.points_ix(), dtype=np.uint16)
    pt_codes = _encode(pts, F.q)
    order = np.argsort(pt_codes)
    sorted_codes = pt_codes[order]
    code = build_code(L, S)
    G = np.array([list(r) for r in code.rows], dtype=np.uint16)
    rref_rows, _, pivots = code.rref()
    R = np.array([list(r) for r in rref_rows], dtype=np.uint16)

    all_ab = _pack(ts, m)
    if span_group is None:
        checker = SpanChecker(L, S)
        span_ok = np.array([checker.check(T) for T in ts], dtype=bool)
    else:
        span_ok = _contains(np.sort(_row_keys(_pack(span_group, m))), _row_keys(all_ab))
    disagreements = []
    for k in _chunks(len(ts), S.n * m * m):
        A, b = all_ab[k, :, :m], all_ab[k, :, m]
        img_codes = _encode(_batch_images(kern, A, b, pts), F.q)
        # the images permute S exactly when their sorted codes are S's
        if (np.sort(img_codes, axis=1) != sorted_codes).any():
            raise ValueError("transform stream contains a non-stabilizer")
        pos = np.searchsorted(sorted_codes, img_codes)
        pi = order[pos]                       # pi[t, idx] = index of image of point idx
        Gp = np.transpose(G[:, pi], (1, 0, 2))  # (N, k, n) permuted generators
        residue = Gp.copy()
        for r_idx, c in enumerate(pivots):
            factor = residue[:, :, c]
            prod = kern.vmul(kern.neg[factor][:, :, None], R[r_idx][None, None, :])
            residue = kern.vadd(residue, prod)
        code_ok = ~(residue != 0).any(axis=(1, 2))
        for t in np.flatnonzero(span_ok[k] != code_ok):
            disagreements.append({
                "T": ts[k[t]].to_json(),
                "span_route": bool(span_ok[k[t]]),
                "code_route": bool(code_ok[t]),
            })
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
    oracle = stabilizers if stabilizers is not None else oracle_stabilizers(S, budget)
    fam = list(family.members(budget))
    okeys = {(T.A, T.b) for T in oracle}
    fkeys = {(T.A, T.b) for T in fam}
    counterexamples = []
    for T in oracle:
        if (T.A, T.b) not in fkeys:
            counterexamples.append({"T": T.to_json(), "reason": "oracle-only"})
            break
    for T in fam:
        if (T.A, T.b) not in okeys:
            counterexamples.append({"T": T.to_json(), "reason": "family-only"})
            break
    relation = "equal" if not counterexamples else "violation"
    return VerificationReport(label or family.kind, relation,
                              len(okeys), len(fkeys), counterexamples,
                              {"count_formula": family.count()})


def verify_containment(members, L, S, budget=None, label="",
                       stabilizers=None) -> VerificationReport:
    """Every emitted transformation must lie in the oracle's affine
    permutation group of the code of L on S."""
    group = oracle_affine_perm_group(L, S, budget, stabilizers=stabilizers)
    gkeys = {(T.A, T.b) for T in group}
    counterexamples = []
    count = 0
    for T in members:
        count += 1
        if (T.A, T.b) not in gkeys:
            counterexamples.append({"T": T.to_json(), "reason": "not-in-oracle-group"})
    relation = "violation" if counterexamples else (
        "equal" if count == len(gkeys) else "family-subset")
    return VerificationReport(label, relation, len(gkeys), count, counterexamples)
