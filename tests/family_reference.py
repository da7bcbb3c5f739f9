"""Scalar reference enumerators of the whole affine space and of the
structural families: one AffineTransformation per member, built by nested
loops over the entries in the order that the array enumerators of
cartperm.oracle and cartperm.families must reproduce.  Test-only: the
library builds every stabilizer list and family as one [A | b] array."""

import itertools

from cartperm.affine import AffineTransformation
from cartperm.codes import rank_ix
from cartperm.families import MultProductFamily
from cartperm.monomials import stable_pattern
from cartperm.oracle import BudgetExceeded, affine_space_size, check_budget
from cartperm.points import CartesianSet


def enumerate_all_affine(F, m, budget=None, invertible_only=False):
    """Every pair (A, b) exactly once, in base-q counter order: the
    counter digits, least significant first, are [A | b] in column-major
    order."""
    total = affine_space_size(F, m)
    check_budget(total, budget, "affine space of size {}")
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


def lower_triangular(values, s):
    """Invertible lower-triangular s x s matrices with entries from the
    ascending index list values (which holds 0), in row-major counting
    order over the entries."""
    diag = [x for x in values if x]
    positions = [diag if i == j else values if j < i else [0]
                 for i in range(s) for j in range(s)]
    for ent in itertools.product(*positions):
        yield [list(ent[i * s:(i + 1) * s]) for i in range(s)]


def lta(F, m):
    for A in lower_triangular(range(F.q), m):
        for b in itertools.product(range(F.q), repeat=m):
            yield AffineTransformation(F, A, list(b))


def ml_invertible(L, F, budget=None):
    pattern = stable_pattern(L, F.p)
    m = L.m
    value_lists = [range(F.q) if pattern.allows(i, j) else range(1)
                   for i in range(m) for j in range(m)]
    shifts = F.q ** m
    yielded = 0
    for ent in itertools.product(*value_lists):
        A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
        if rank_ix(A, F) < m:
            continue
        yielded += shifts
        if budget is not None and yielded > budget:
            raise BudgetExceeded(f"stable-pattern family exceeds budget {budget}")
        for b in itertools.product(range(F.q), repeat=m):
            yield AffineTransformation(F, A, list(b))


def _sigmas(fam):
    # the classes of equal subgroups, from the point set alone
    classes = {}
    for i, c in enumerate(fam.S.components):
        classes.setdefault(c.element_set(), []).append(i)
    groups = sorted(classes.values())
    out = []
    for perms in itertools.product(*[itertools.permutations(g) for g in groups]):
        sigma = [None] * fam.m
        for g, perm in zip(groups, perms):
            for src, dst in zip(g, perm):
                sigma[src] = dst
        out.append(tuple(sigma))
    return sorted(out)


def mult_product(fam):
    F, m = fam.F, fam.m
    comps = fam.S.components
    for sigma in _sigmas(fam):
        col_values = [[x.ix for x in comps[j].elements] for j in range(m)]
        for diag in itertools.product(*[col_values[sigma[i]] for i in range(m)]):
            A = [[diag[i] if j == sigma[i] else 0 for j in range(m)]
                 for i in range(m)]
            yield AffineTransformation(F, A)


def mixed_general(fam):
    F, m, m0 = fam.F, fam.m, fam.m0
    sub = MultProductFamily(CartesianSet(fam.S.components[m0:])) if m0 < m else None
    top_lists = [range(F.q)] * (m0 * m)
    for ent in itertools.product(*top_lists) if m0 else [()]:
        top = [list(ent[i * m:(i + 1) * m]) for i in range(m0)]
        if m0 and rank_ix([row[:m0] for row in top], F) < m0:
            continue
        tails = mult_product(sub) if sub else iter([None])
        for tail in tails:
            A = [row[:] for row in top]
            for r in range(m - m0):
                A.append([0] * m0 + list(tail.A[r]))
            for btop in itertools.product(range(F.q), repeat=m0):
                yield AffineTransformation(F, A, list(btop) + [0] * (m - m0))


def additive_power(fam):
    F, m = fam.F, fam.m
    shifts = [[x.ix for x in c.elements] for c in fam.S.components]
    for ent in itertools.product(fam.subfield, repeat=m * m):
        A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
        if rank_ix(A, F) < m:
            continue
        for b in itertools.product(*shifts):
            yield AffineTransformation(F, A, list(b))


def hetero_candidates(pat):
    F, m = pat.F, pat.m
    entry_lists = [sorted(x.ix for x in pat.table[i][j])
                   for i in range(m) for j in range(m)]
    shifts = [[x.ix for x in c.elements] for c in pat.S.components]
    for ent in itertools.product(*entry_lists):
        A = [list(ent[i * m:(i + 1) * m]) for i in range(m)]
        for b in itertools.product(*shifts):
            yield AffineTransformation(F, A, list(b))


def borel_claimed(fam):
    F, m = fam.F, fam.m
    if fam.shape == "additive-power":
        values = sorted(x.ix for x in F.subfield_elements(fam.subfield_degree))
        s = m
        shifts = [[x.ix for x in c.elements] for c in fam.S.components]
    else:
        values = range(F.q)
        s = fam.split
        shifts = [range(F.q)] * s + [[0]] * (m - s)
    for top in lower_triangular(values, s):
        A = [row + [0] * (m - s) for row in top]
        A += [[int(i == j) for j in range(m)] for i in range(s, m)]
        for b in itertools.product(*shifts):
            yield AffineTransformation(F, A, list(b))
