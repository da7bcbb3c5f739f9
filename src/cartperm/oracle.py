"""Brute-force ground truth: exhaustive enumeration of affine maps, batched
point-set stabilizer scans, the exact affine permutation group of a code, and
the independent code-level permutation check.

The scans run on numpy index arrays with field lookup tables; results are
identical to the element-level API and deterministic (candidates are visited
in base-q counter order, so the first counterexample is reproducible).
"""

from __future__ import annotations

import itertools

import numpy as np

from .affine import AffineTransformation, SpanChecker, induced_permutation, stabilizes_set
from .codes import build_code, codes_equal
from .families import BudgetExceeded
from .field import Field
from .monomials import MonomialSet
from .points import CartesianSet

_CHUNK_CELLS = 4_000_000


def affine_space_size(F: Field, m: int) -> int:
    return F.q ** (m * m + m)


def _counter_to_AB(counters, q, m):
    """Decode base-q counters into (A, b) index arrays; the digit layout is A
    in column-major order (A[0][0], A[1][0], ..., then next column), then b."""
    N = len(counters)
    c = counters.astype(np.int64).copy()
    digits = np.empty((N, m * m + m), dtype=np.uint16)
    for t in range(m * m + m):
        digits[:, t] = (c % q).astype(np.uint16)
        c //= q
    A = np.empty((N, m, m), dtype=np.uint16)
    for col in range(m):
        for row in range(m):
            A[:, row, col] = digits[:, col * m + row]
    b = digits[:, m * m:]
    return A, b


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


def _ab_chunks_from_counters(S, budget):
    F, m = S.field, S.m
    total = affine_space_size(F, m)
    if budget is not None and total > budget:
        raise BudgetExceeded(f"affine space of size {total} exceeds budget {budget}")
    chunk = max(1, _CHUNK_CELLS // max(1, S.n * m * m))
    for lo in range(0, total, chunk):
        counters = np.arange(lo, min(lo + chunk, total))
        yield _counter_to_AB(counters, F.q, m)


def _ab_chunks_from_transforms(S, transforms, budget):
    m = S.m
    chunk = max(1, _CHUNK_CELLS // max(1, S.n * m * m))
    batch = []
    count = 0
    for T in transforms:
        batch.append(T)
        count += 1
        if budget is not None and count > budget:
            raise BudgetExceeded(f"candidate stream exceeds budget {budget}")
        if len(batch) == chunk:
            yield _pack(batch, m)
            batch = []
    if batch:
        yield _pack(batch, m)


def _pack(batch, m):
    A = np.array([[list(T.A[i]) for i in range(m)] for T in batch], dtype=np.uint16)
    b = np.array([list(T.b) for T in batch], dtype=np.uint16)
    return A, b


def oracle_stabilizers(S: CartesianSet, budget=None, candidates=None, jobs=1):
    """All affine maps carrying the point set onto itself, by exhaustive scan
    of the full affine space or of a supplied candidate stream, reported in
    scan order.  jobs is accepted for compatibility and ignored."""
    F, m = S.field, S.m
    kern = _Kernel(F)
    pts = np.array(S.points_ix(), dtype=np.uint16)
    target = np.sort(_encode(pts, F.q))

    def scan(chunk):
        # a function call, so each chunk's temporaries are freed before the
        # next chunk is built
        A, b = chunk
        codes = np.sort(_encode(_batch_images(kern, A, b, pts), F.q), axis=1)
        hits = np.flatnonzero((codes == target[None, :]).all(axis=1))
        return [AffineTransformation(F, A[t].tolist(), b[t].tolist()) for t in hits]

    chunks = (_ab_chunks_from_counters(S, budget) if candidates is None
              else _ab_chunks_from_transforms(S, candidates, budget))
    out = []
    for chunk in chunks:
        out.extend(scan(chunk))
    return out


def oracle_affine_perm_group(L: MonomialSet, S: CartesianSet, budget=None,
                             candidates=None, stabilizers=None):
    """Exact affine permutation group of the code of L on S: point-set
    stabilizers that also keep the reduced monomial span inside L."""
    if stabilizers is None:
        stabilizers = oracle_stabilizers(S, budget, candidates)
    checker = SpanChecker(L, S)
    return [T for T in stabilizers if checker.check(T)]


def group_axioms_report(F: Field, transforms, sample_limit=2_000_000, seed=0):
    """Identity membership, closure under inverse, and closure under
    composition (exhaustive when the pair count is within the sample limit,
    deterministic sampling beyond)."""
    ts = list(transforms)
    keys = {(T.A, T.b) for T in ts}
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
    for T in ts:
        if not T.is_invertible() or (T.invert().A, T.invert().b) not in keys:
            report["closed_under_inverse"] = False
            report["witness"] = T.to_json()
            break
    if g == 0:
        return report
    if report["exhaustive"]:
        pairs = itertools.product(range(g), repeat=2)
        total = g * g
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, g, size=(sample_limit, 2))
        pairs = map(tuple, idx)
        total = sample_limit
    for i, j in pairs:
        C = ts[i].compose(ts[j])
        report["composition_pairs_checked"] += 1
        if (C.A, C.b) not in keys:
            report["closed_under_composition"] = False
            report["witness"] = {"left": ts[i].to_json(), "right": ts[j].to_json()}
            break
    assert report["composition_pairs_checked"] <= total
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


def two_route_agreement(L, S, transforms=None, budget=None):
    """Compare the monomial-span condition with the code-level permutation
    check on every stabilizing map; returns (agree, disagreements)."""
    if transforms is None:
        transforms = oracle_stabilizers(S, budget)
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
    checker = SpanChecker(L, S)
    neg = F.np_tables()["neg"]

    disagreements = []
    for A, b in _ab_chunks_from_transforms(S, transforms, budget):
        img_codes = _encode(_batch_images(kern, A, b, pts), F.q)
        pos = np.searchsorted(sorted_codes, img_codes)
        if (sorted_codes[pos] != img_codes).any():
            raise ValueError("transform stream contains a non-stabilizer")
        pi = order[pos]                       # pi[t, idx] = index of image of point idx
        Gp = np.transpose(G[:, pi], (1, 0, 2))  # (N, k, n) permuted generators
        residue = Gp.copy()
        for r_idx, c in enumerate(pivots):
            factor = residue[:, :, c]
            prod = kern.vmul(neg[factor.astype(np.int64)][:, :, None], R[r_idx][None, None, :])
            residue = kern.vadd(residue, prod)
        code_ok = ~(residue != 0).any(axis=(1, 2))
        for t in range(len(code_ok)):
            span_ok = checker.check_ix(tuple(map(tuple, A[t].tolist())), tuple(b[t].tolist()))
            if span_ok != bool(code_ok[t]):
                disagreements.append({
                    "T": AffineTransformation(F, A[t].tolist(), b[t].tolist()).to_json(),
                    "span_route": span_ok,
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
