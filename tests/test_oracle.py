"""Exhaustive oracle scans: affine space enumeration, stabilizer search,
exact affine permutation groups, two-route agreement, verification reports."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cartperm import oracle
from cartperm.affine import (
    AffineTransformation, SpanChecker, is_affine_permutation, membership_report,
    stabilizes_monomial_span, stabilizes_set,
)
from cartperm.codes import build_code
from cartperm.families import (
    BudgetExceeded, BorelClaimedFamily, MultProductFamily, enumerate_LTA,
    gl_count,
)
from cartperm.field import GF, Field
from cartperm.monomials import (
    MonomialSet, divisibility_closure, p_borel_graph, random_decreasing_set,
)
from cartperm.oracle import (
    affine_space_size, code_permutation_check, enumerate_all_affine,
    group_axioms_report, keeps_span, oracle_affine_perm_group, oracle_stabilizers,
    two_route_agreement, verify_characterization, verify_containment,
)
from cartperm.points import (
    CartesianSet, additive_component, explicit_component, full_component,
    mult_component, torus_component,
)
from test_poly import components


def full_square(q):
    F = GF(q)
    return CartesianSet([full_component(F), full_component(F)])


def test_enumerate_all_affine_counts():
    F2 = GF(2)
    allmaps = list(enumerate_all_affine(F2, 2))
    assert len(allmaps) == affine_space_size(F2, 2) == 64
    assert len(set(allmaps)) == 64
    assert sum(1 for T in allmaps if T.is_invertible()) == 24
    inv = list(enumerate_all_affine(F2, 1, invertible_only=True))
    assert [(T.A, T.b) for T in inv] == [(((1,),), (0,)), (((1,),), (1,))]
    F3 = GF(3)
    assert sum(1 for T in enumerate_all_affine(F3, 2, invertible_only=True)) \
        == gl_count(3, 2) * 9 == 432
    with pytest.raises(BudgetExceeded):
        list(enumerate_all_affine(F3, 2, budget=100))


def test_enumeration_order_is_counter_order():
    F = GF(3)
    first = next(enumerate_all_affine(F, 2))
    assert first.A == ((0, 0), (0, 0)) and first.b == (0, 0)
    second = next(itertools.islice(enumerate_all_affine(F, 2), 1, 2))
    assert second.A == ((1, 0), (0, 0))  # lowest digit is the (0,0) entry


def test_oracle_stabilizers_against_slow_path():
    F = GF(3)
    S = CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])
    fast = oracle_stabilizers(S)
    slow = [T for T in enumerate_all_affine(F, 2) if stabilizes_set(T, S)]
    assert [(T.A, T.b) for T in fast] == [(T.A, T.b) for T in slow]


def test_stabilizers_of_one_point_component_are_invertible():
    # singular maps such as x1 -> x1 + x2 + 1 also permute GF(2) x {1}
    F = GF(2)
    S = CartesianSet([full_component(F), torus_component(F)])
    slow = [T for T in enumerate_all_affine(F, 2) if stabilizes_set(T, S)]
    stabs = oracle_stabilizers(S)
    assert len(slow) == 8 and len(stabs) == 4
    assert all(T.is_invertible() for T in stabs)
    assert [T for T in slow if T.is_invertible()] == list(stabs)
    axioms = group_axioms_report(F, stabs)
    assert axioms["closed_under_inverse"] and axioms["closed_under_composition"]


def test_oracle_stabilizer_counts():
    F3 = GF(3)
    assert len(oracle_stabilizers(CartesianSet([torus_component(F3)] * 2))) == 8
    assert len(oracle_stabilizers(full_square(2))) == 24
    S = CartesianSet([full_component(F3), torus_component(F3)])
    assert len(oracle_stabilizers(S)) == 36
    with pytest.raises(BudgetExceeded):
        oracle_stabilizers(full_square(3), budget=100)


def test_budget_names_each_phase(monkeypatch):
    S = full_square(3)          # 27 candidate rows, 24 of them per coordinate
    with pytest.raises(BudgetExceeded, match="row pass of 27 candidates"):
        oracle_stabilizers(S, budget=26)
    with pytest.raises(BudgetExceeded,
                       match=r"row-prefix step 2 \(coordinate x2\) of 576 candidates"):
        oracle_stabilizers(S, budget=575)
    assert len(oracle_stabilizers(S, budget=576)) == 432
    # the row budget trips before any field table is built
    monkeypatch.setattr(oracle, "_Kernel", None)
    with pytest.raises(BudgetExceeded):
        oracle_stabilizers(full_square(4), budget=63)


# GF(8) under x^3 + x^2 + 1, not the default x^3 + x + 1
ORACLE_FIELDS = [GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(9),
                 Field(2, 3, (1, 0, 1, 1))]


def point_walk_rows(S):
    """Test-only reference for the row pass: per coordinate i, the set of
    rows (a_1, ..., a_m, c) whose image of the n points of S is exactly A_i."""
    F, m = S.field, S.m
    t = F.np_tables()
    pts = np.array(S.points_ix(), dtype=np.int64)
    wants = [c.element_set() for c in S.components]
    rows = [set() for _ in range(m)]
    for a in itertools.product(range(F.q), repeat=m):
        img = np.zeros(len(pts), dtype=np.int64)
        for j in range(m):
            img = t["add"][img, t["mul"][a[j], pts[:, j]]]
        walked = set(img.tolist())
        for c in range(F.q):
            image = {F.add_ix(s, c) for s in walked}
            for i in range(m):
                if image == wants[i]:
                    rows[i].add(a + (c,))
    return rows


def gf16_additive_triple():
    F = GF(16)
    al = F.primitive_element()
    return CartesianSet([additive_component(F, [F.one, al, al * al]),
                         additive_component(F, [al ** 6, al ** 11]),
                         additive_component(F, [F.one])])


@st.composite
def row_sets(draw):
    F = draw(st.sampled_from(ORACLE_FIELDS + [GF(16)]))
    return CartesianSet([draw(components(F)) for _ in range(draw(st.integers(1, 3)))])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(row_sets())
@example(gf16_additive_triple())
@example(CartesianSet([mult_component(GF(7), 1), explicit_component(GF(7), [3]),
                       mult_component(GF(7), 3)]))
def test_surviving_rows_match_point_walk(S):
    want = point_walk_rows(S)
    kern = oracle._Kernel(S.field)
    for limit in (1, 200, oracle._CHUNK_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_CHUNK_CELLS", limit)
            rows = oracle._surviving_rows(kern, S)
        assert [r.shape[1] for r in rows] == [S.m + 1] * S.m
        assert [set(map(tuple, r.tolist())) for r in rows] == want
        assert [len(r) for r in rows] == [len(w) for w in want]


def test_row_pass_time_guard():
    # the point walk took 6.1 s for the row pass alone of GF(25) mu4 x mu6 x mu8
    F = GF(25)
    S = CartesianSet([mult_component(F, 4), mult_component(F, 6), mult_component(F, 8)])
    start = time.perf_counter()
    stabs = oracle_stabilizers(S)
    assert time.perf_counter() - start < 2
    assert len(stabs) == 192
    # the product scan of this set peaks at 742 MiB: only its rows are timed
    F = GF(16)
    S = CartesianSet([full_component(F), mult_component(F, 5), mult_component(F, 3)])
    kern = oracle._Kernel(F)
    start = time.perf_counter()
    rows = oracle._surviving_rows(kern, S)
    assert time.perf_counter() - start < 2
    assert [len(r) for r in rows] == [61440, 5, 3]


@st.composite
def affine_batches(draw):
    """A field and maps over it with m <= 4: arbitrary, zero, singular (the
    last row a multiple of the first) or invertible with a zero first pivot,
    so that the elimination must swap rows."""
    F = draw(st.sampled_from(ORACLE_FIELDS + [GF(16), GF(25)]))
    m = draw(st.integers(1, 4))
    entry = st.integers(0, F.q - 1)
    ts = []
    for _ in range(draw(st.integers(1, 6))):
        A = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(m)]
        kind = draw(st.sampled_from(["any", "zero", "singular", "swap"]))
        if kind == "zero":
            A = [[0] * m for _ in range(m)]
        elif kind == "singular":
            c = draw(entry)
            A[-1] = [F.mul_ix(c, x) for x in A[0]] if m > 1 else [0]
        elif kind == "swap":
            # nonzero anti-diagonal, zeros below it: det = +-(its product)
            for i in range(m):
                for j in range(m):
                    if i + j == m - 1:
                        A[i][j] = draw(st.integers(1, F.q - 1))
                    elif i + j > m - 1 or (i, j) == (0, 0):
                        A[i][j] = 0
        ts.append(AffineTransformation(F, A, draw(st.lists(entry, min_size=m, max_size=m))))
    return F, m, ts


@settings(derandomize=True, max_examples=300, deadline=None)
@given(affine_batches())
def test_batched_inverse_matches_scalar_inverse(batch):
    F, m, ts = batch
    inv, ok = oracle._invert(oracle._Kernel(F), oracle._as_array(ts))
    assert ok.tolist() == [T.is_invertible() for T in ts]
    for T, row, invertible in zip(ts, inv.tolist(), ok):
        if invertible:
            inverse = T.invert()
            assert tuple(tuple(r[:m]) for r in row) == inverse.A
            assert tuple(r[m] for r in row) == inverse.b


@st.composite
def small_sets(draw):
    F = draw(st.sampled_from(ORACLE_FIELDS))
    sizes = [m for m in (1, 2, 3) if F.q ** (m * m + m) <= 15625]
    m = draw(st.sampled_from(sizes))
    return CartesianSet([draw(components(F)) for _ in range(m)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_sets())
@example(CartesianSet([full_component(GF(2)), torus_component(GF(2)),
                       full_component(GF(2))]))
def test_row_factored_scan_matches_scalar_reference(S):
    want = [T for T in enumerate_all_affine(S.field, S.m, invertible_only=True)
            if stabilizes_set(T, S)]
    assert list(oracle_stabilizers(S)) == want


@st.composite
def span_batches(draw):
    """A point set with m <= 3, an arbitrary subset L of its box (its
    divisor closure half the time), maps over the field ending with the
    identity, and a chunk limit: down to one map per chunk.  The maps are
    arbitrary, singular, translations, or scaled permutations x -> PDx,
    which carry x_i^d onto a power of another variable that may overflow
    its box; stabilizing or not.  Or they are products of a few drawn rows
    per coordinate, so that maps share the rows of a support, and a map
    that leaves takes a shared group with it or only itself."""
    F = draw(st.sampled_from(ORACLE_FIELDS))
    m = draw(st.integers(1, 3 if F.q <= 5 else 2))
    S = CartesianSet([draw(components(F)) for _ in range(m)])
    box = list(itertools.product(*[range(n) for n in S.sizes]))
    L = MonomialSet(m, draw(st.lists(st.sampled_from(box), max_size=6)), bound=S.sizes)
    if draw(st.booleans()):
        L = divisibility_closure(L)
    entry = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        row = st.lists(entry, min_size=m + 1, max_size=m + 1)
        pools = [draw(st.lists(row, min_size=1, max_size=3)) for _ in range(m)]
        ts = [AffineTransformation(F, [r[:m] for r in rows], [r[m] for r in rows])
              for rows in itertools.product(*pools)]
        ts.append(AffineTransformation.identity(F, m))
        return S, L, ts, draw(st.sampled_from([1, 40, 400, oracle._SPAN_CELLS]))
    ts = []
    for _ in range(draw(st.integers(0, 6))):
        A = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(m)]
        b = draw(st.lists(entry, min_size=m, max_size=m))
        kind = draw(st.sampled_from(["any", "singular", "translation", "permutation"]))
        if kind == "singular":
            A[-1] = [0] * m
        elif kind == "translation":
            A = [[int(i == j) for j in range(m)] for i in range(m)]
        elif kind == "permutation":
            perm = draw(st.permutations(range(m)))
            A = [[draw(st.integers(1, F.q - 1)) if j == perm[i] else 0
                  for j in range(m)] for i in range(m)]
            b = [0] * m
        ts.append(AffineTransformation(F, A, b))
    ts.append(AffineTransformation.identity(F, m))
    return S, L, ts, draw(st.sampled_from([1, 40, 400, oracle._PAIR_CELLS, oracle._SPAN_CELLS]))


def sweep_class_batch():
    """The sweep class closure{x1^3 x2, x1 x2^3} on every fourth GF(4)^2
    stabilizer, in one chunk: 720 maps over 48 distinct second rows, of
    which 192 keep the span."""
    S = full_square(4)
    L = divisibility_closure(MonomialSet(2, [(3, 1), (1, 3)], bound=S.sizes))
    return S, L, list(oracle_stabilizers(S)[::4]), oracle._SPAN_CELLS


@settings(derandomize=True, max_examples=300, deadline=None)
@given(span_batches())
@example(sweep_class_batch())
def test_batched_span_matches_span_checker(batch):
    S, L, ts, limit = batch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_SPAN_CELLS", limit)
        got = oracle._span_scan(oracle._Kernel(S.field), L, S, oracle._as_array(ts))
    checker = SpanChecker(L, S)
    assert got.tolist() == [checker.check(T) for T in ts]


def chain(v):
    """v and its parents down to 1, each parent v - e_i for the first
    coordinate i of v with a nonzero exponent."""
    out = [v]
    while any(v):
        i = next(i for i, e in enumerate(v) if e)
        v = v[:i] + (v[i] - 1,) + v[i + 1:]
        out.append(v)
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(0, 4)] * m), min_size=1, max_size=8)))
def test_walk_takes_top_degree_chains_first(monomials):
    walk = oracle._walk(monomials)
    nodes = [v for v, _, _ in walk]
    # each node once, after its parent, and only the nodes on some chain
    assert len(nodes) == len(set(nodes))
    assert set(nodes) == {w for u in monomials for w in chain(u)}
    seen = set()
    for v, parent, i in walk:
        if any(v):
            assert parent == chain(v)[1] and parent in seen and v[i] and not any(v[:i])
        else:
            assert parent is None and i is None
        seen.add(v)
    # the first chain ends at a member of top degree
    top = max(map(sum, monomials))
    assert nodes[top] in monomials and sum(nodes[top]) == top


def test_walk_skips_divisors_on_no_chain():
    # x1 divides x1 x2 but lies on no chain: x1 x2 is built from x2
    assert [v for v, _, _ in oracle._walk([(1, 1)])] == [(0, 0), (0, 1), (1, 1)]
    # x1 x2^2 first, through x2 and x2^2; then x1^2 x2 through x1 x2, from
    # the stored x2
    assert [v for v, _, _ in oracle._walk([(1, 1), (2, 1), (1, 2)])] == [
        (0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1)]


def test_span_scan_builds_on_distinct_row_tuples(monkeypatch):
    """times_form runs on one map per distinct tuple of the rows a node
    reads.  The second and third rows of the 3,456 stabilizers of GF(4)
    full x mu3 x mu3 take 6 values each and 18 together, so the nodes
    without x1 run on 6 or 18 maps.  L is the whole box: no map drops."""
    F = GF(4)
    S = CartesianSet([full_component(F), mult_component(F, 3), mult_component(F, 3)])
    ab = oracle_stabilizers(S).ab
    L = list(itertools.product(*[range(n) for n in S.sizes]))
    calls = []
    times_form = oracle._Forms.times_form

    def counted(self, P, sub, i):
        calls.append(sub)
        return times_form(self, P, sub, i)

    monkeypatch.setattr(oracle._Forms, "times_form", counted)
    # one chunk for all maps
    monkeypatch.setattr(oracle, "_SPAN_CELLS", len(ab) * S.n * len(L))
    assert oracle._span_scan(oracle._Kernel(F), L, S, ab).all()
    walk = oracle._walk(L)
    assert len(calls) == len(walk) - 1
    sizes = {}
    for (v, _, _), sub in zip(walk[1:], calls):
        support = [k for k, e in enumerate(v) if e]
        got = [tuple(r) for r in sub[:, support].reshape(len(sub), -1).tolist()]
        want = {tuple(r) for r in ab[:, support].reshape(len(ab), -1).tolist()}
        assert len(got) == len(set(got)) and set(got) == want
        sizes[tuple(support)] = len(sub)
    assert sizes == {(0,): 192, (1,): 6, (2,): 6, (0, 1): 1152, (0, 2): 1152,
                     (1, 2): 18, (0, 1, 2): 3456}


@pytest.mark.parametrize("F", [GF(2), GF(4), GF(16), GF(256), Field(2, 3, (1, 0, 1, 1)),
                               GF(3), GF(9), GF(251), GF(257)], ids=repr)
def test_kernel_matches_field_on_every_pair(F):
    """Sums (XOR in characteristic 2, else a table lookup on a uint16 flat
    index, uint32 past q = 256) and the scaling of the span route equal the
    field's scalar arithmetic on all q^2 pairs."""
    x, y = np.divmod(np.arange(F.q * F.q), F.q)
    x, y = x.astype(np.uint16), y.astype(np.uint16)
    kern = oracle._Kernel(F)
    got = kern.vadd(x, y)
    assert got.dtype == np.uint16
    assert got.tolist() == [F.add_ix(a, b) for a, b in zip(x.tolist(), y.tolist())]
    S = CartesianSet([full_component(F)])
    got = oracle._Forms(kern, S)._scale(x, y[:, None])
    assert got.dtype == np.uint16
    assert got.ravel().tolist() == [F.mul_ix(a, b) for a, b in zip(x.tolist(), y.tolist())]


# the stabilizer lists of the drawn sets stay small enough to filter and to
# search one candidate per chunk
SEARCH_STABILIZERS = 2000


@st.composite
def search_cases(draw):
    """A point set with m <= 3 and at most SEARCH_STABILIZERS candidate
    products, and a monomial set L on it: empty, {1}, an arbitrary subset of
    the box, its divisor closure, mixed-support members only, or the closure
    of a set closed under permuting the variables (where it fits the box),
    whose group may swap coordinates."""
    F = draw(st.sampled_from(ORACLE_FIELDS))
    S = CartesianSet([draw(components(F)) for _ in range(draw(st.sampled_from([1, 2, 3, 3])))])
    rows = oracle._surviving_rows(oracle._Kernel(F), S)
    assume(math.prod(len(r) for r in rows) <= SEARCH_STABILIZERS)
    box = list(itertools.product(*[range(n) for n in S.sizes]))
    kind = draw(st.sampled_from(["empty", "one", "any", "closure", "mixed", "symmetric"]))
    if kind in ("empty", "one"):
        monos = [] if kind == "empty" else [(0,) * S.m]
    else:
        pool = box if kind != "mixed" else [u for u in box if sum(map(bool, u)) > 1]
        assume(pool)
        monos = draw(st.lists(st.sampled_from(pool), max_size=6))
    if kind == "symmetric":
        moved = {tuple(u[i] for i in perm) for u in monos
                 for perm in itertools.permutations(range(S.m))}
        monos = sorted(moved & set(box))
    L = MonomialSet(S.m, monos, bound=S.sizes)
    return S, divisibility_closure(L) if kind in ("closure", "symmetric") else L


def gf4_square_config():
    """The GF(4)^2 config of the verify-group benchmark workload: L is
    closure{x1^2 x2, x1^3}, a 576-map group among 2,880 stabilizers."""
    S = full_square(4)
    return S, divisibility_closure(MonomialSet(2, [(2, 1), (3, 0)], bound=S.sizes))


def gf16_triple_config():
    S = gf16_additive_triple()
    return S, divisibility_closure(MonomialSet(3, [(2, 0, 0), (1, 1, 0)], bound=S.sizes))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(search_cases())
@example(gf4_square_config())
@example(gf16_triple_config())
# the coordinate swap is in this group: x1 (x1 + ...) leaves L, so a row
# filter by x1 x2 under identity rows elsewhere would drop it
@example((full_square(3), divisibility_closure(MonomialSet(2, [(1, 1)], bound=(3, 3)))))
@example((CartesianSet([full_component(GF(2)), torus_component(GF(2)), full_component(GF(2))]),
          MonomialSet(3, [(1, 0, 1), (0, 0, 1)], bound=(2, 1, 2))))
@example((CartesianSet([explicit_component(GF(5), [1, 3]), explicit_component(GF(5), [4]),
                        mult_component(GF(5), 2)]),
          MonomialSet(3, [(1, 0, 1)], bound=(2, 1, 2))))
def test_group_search_matches_stabilizer_filter(case):
    # the search gives the filtered stabilizer list, array and order alike
    S, L = case
    stabs = oracle_stabilizers(S).ab
    want = stabs[oracle._span_ok(oracle._Kernel(S.field), L, S, stabs)]
    for limit in (1, 60):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_SPAN_CELLS", limit)
            got = oracle._group_search(L, S)
        assert got.dtype == want.dtype and np.array_equal(got, want), limit
    assert np.array_equal(oracle_affine_perm_group(L, S).ab, want)


def test_group_search_budget(monkeypatch):
    # GF(3)^2 with L = closure{x1 x2}: 27 candidate rows, 24 of them per
    # coordinate kept by the linear members, 576 products at step 2
    S = full_square(3)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    with pytest.raises(BudgetExceeded, match="row pass of 27 candidates"):
        oracle_affine_perm_group(L, S, budget=26)
    with pytest.raises(BudgetExceeded,
                       match=r"row-prefix step 2 \(coordinate x2\) of 576 candidates"):
        oracle_affine_perm_group(L, S, budget=575)
    assert len(oracle_affine_perm_group(L, S, budget=576)) == 72
    # the 921,600 stabilizers of GF(16) full x mu5 x mu3 are never listed:
    # 240 first rows, then 1,200 and at most 3,600 candidates.  Listing
    # them builds 307,200 prefixes of two rows at step 2
    F = GF(16)
    S = CartesianSet([full_component(F), mult_component(F, 5), mult_component(F, 3)])
    L = divisibility_closure(MonomialSet(3, [(3, 1, 1)], bound=S.sizes))
    with pytest.raises(BudgetExceeded,
                       match=r"row-prefix step 2 \(coordinate x2\) of 307200 candidates"):
        oracle_stabilizers(S, budget=100_000)
    start = time.perf_counter()
    group = oracle_affine_perm_group(L, S, budget=100_000)
    assert time.perf_counter() - start < 5
    assert len(group) == 3600
    # a three-variable L on a two-variable set is refused once the budget
    # admits the row pass of 4^3 = 64 candidates
    with pytest.raises(ValueError, match="wrong arity"):
        oracle_affine_perm_group(L, full_square(4), budget=64)
    # the row budget trips before any field table is built
    S = full_square(4)
    L = divisibility_closure(MonomialSet(2, [(2, 1)], bound=S.sizes))
    monkeypatch.setattr(oracle, "_Kernel", None)
    with pytest.raises(BudgetExceeded, match="row pass"):
        oracle_affine_perm_group(L, S, budget=63)


def test_scan_inverts_once_per_pair_of_linear_parts(monkeypatch):
    # GF(4)^2: 60 surviving rows per coordinate with 15 distinct linear
    # parts, so 3,600 products but at most 15 * 15 eliminated matrices
    S = full_square(4)
    sent, invert = [], oracle._invert

    def counted(kern, ab):
        sent.append(len(ab))
        return invert(kern, ab)

    monkeypatch.setattr(oracle, "_invert", counted)
    stabs = oracle_stabilizers(S)
    assert len(stabs) == 2880 and 0 < sum(sent) <= 225
    # the last step's span check sees only invertible products
    checked, scan = [], oracle._span_scan

    def recorded(kern, L, S, ab, check=None):
        if (1, 1) in check:
            checked.append(ab)
        return scan(kern, L, S, ab, check=check)

    monkeypatch.setattr(oracle, "_span_scan", recorded)
    oracle._group_search(divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes)), S)
    last = np.concatenate(checked)
    assert len(last) == 2880 and oracle.AffineMaps(S.field, last).invertible().all()


SCAN_SETS = {
    # the second component has one point: rows of linear part 0 make
    # every product with them singular
    "one-point": CartesianSet([full_component(GF(3)), explicit_component(GF(3), [2])]),
    "explicit": CartesianSet([explicit_component(GF(4), [0, 1, 2]), full_component(GF(4))]),
    "m=3": CartesianSet([full_component(GF(2)), torus_component(GF(2)), full_component(GF(2))]),
}


@pytest.mark.parametrize("limit", [1, 40, oracle._PAIR_CELLS])
@pytest.mark.parametrize("name", sorted(SCAN_SETS))
def test_scan_matches_affine_filter_at_every_pair_chunk(monkeypatch, name, limit):
    S = SCAN_SETS[name]
    want = oracle._as_array([T for T in enumerate_all_affine(S.field, S.m, invertible_only=True)
                             if stabilizes_set(T, S)], S.m)
    assert len(want)
    monkeypatch.setattr(oracle, "_PAIR_CELLS", limit)
    got = oracle_stabilizers(S).ab
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_perm_group_whole_box_is_stabilizers():
    F = GF(2)
    S = full_square(2)
    box = MonomialSet(2, list(itertools.product(range(2), repeat=2)), bound=S.sizes)
    group = oracle_affine_perm_group(box, S)
    stabs = oracle_stabilizers(S)
    assert {(T.A, T.b) for T in group} == {(T.A, T.b) for T in stabs}


def test_perm_group_small_exact():
    # L = {1, x1} over GF(2)^2: row 1 of A cannot mix in x2
    F = GF(2)
    S = full_square(2)
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S.sizes)
    group = oracle_affine_perm_group(L, S)
    expect = [T for T in enumerate_all_affine(F, 2)
              if T.is_invertible() and T.A[0][1] == 0]
    assert {(T.A, T.b) for T in group} == {(T.A, T.b) for T in expect}
    rep = group_axioms_report(F, group)
    assert rep["has_identity"] and rep["closed_under_inverse"]
    assert rep["closed_under_composition"] and rep["exhaustive"]


def test_lta_inside_gf9_example_group():
    F = GF(9)
    S = full_square(9)
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    monos += [(0, 4), (1, 3), (3, 1), (4, 0)]
    L = MonomialSet(2, monos, bound=S.sizes)
    checker = SpanChecker(L, S)
    for T in itertools.islice(enumerate_LTA(F, 2), 0, None, 37):
        assert checker.check(T)
    # seed-pinned sample of the full-mask equality: every invertible map is in
    # the group (the pattern graph is complete for this set)
    g = p_borel_graph(L, 3)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    rng = random.Random(90)
    for _ in range(300):
        A = [[rng.randrange(9) for _ in range(2)] for _ in range(2)]
        T = AffineTransformation(F, A, [rng.randrange(9), rng.randrange(9)])
        if T.is_invertible():
            assert checker.check(T)


def test_code_permutation_check():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0), (0, 1)], bound=S.sizes)
    ident = AffineTransformation.identity(F, 2)
    assert code_permutation_check(ident, L, S)
    group = oracle_affine_perm_group(L, S)
    assert all(code_permutation_check(T, L, S) for T in group)
    T_shear = AffineTransformation(F, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        code_permutation_check(T_shear, L, S)


def test_two_route_agreement_random_decreasing():
    rng = random.Random(2468)
    configs = [
        CartesianSet([full_component(GF(2))] * 2),
        CartesianSet([full_component(GF(3)), torus_component(GF(3))]),
        CartesianSet([torus_component(GF(4)), full_component(GF(4))]),
    ]
    for S in configs:
        stabs = oracle_stabilizers(S)
        for _ in range(4):
            L = random_decreasing_set(rng, S.sizes)
            agree, dis = two_route_agreement(L, S, stabs)
            assert agree, dis


def test_empty_monomial_set_keeps_every_stabilizer():
    # the zero code: both routes keep every stabilizer
    S = CartesianSet([full_component(GF(3)), torus_component(GF(3))])
    L = MonomialSet(2, [], bound=S.sizes)
    stabs = oracle_stabilizers(S)
    assert list(oracle_affine_perm_group(L, S, stabilizers=stabs)) == list(stabs)
    assert two_route_agreement(L, S, stabs) == (True, [])


def test_two_route_agreement_rejects_non_stabilizers():
    # x2 -> x2 + 1 sends (2, 1) to (2, 2), past the largest point (2, 1)
    F = GF(3)
    S = CartesianSet([full_component(F), explicit_component(F, [F(0), F(1)])])
    L = MonomialSet(2, [(0, 0)], bound=S.sizes)
    with pytest.raises(ValueError, match="non-stabilizer"):
        two_route_agreement(L, S, [AffineTransformation(F, [[1, 0], [0, 1]], [0, 1])])
    # x -> (x1, 0) maps S into S but is not injective
    singular = AffineTransformation(F, [[1, 0], [0, 0]])
    assert not stabilizes_set(singular, S)
    with pytest.raises(ValueError, match="non-stabilizer"):
        two_route_agreement(MonomialSet(2, [(0, 0), (1, 0)], bound=S.sizes), S, [singular])


def test_verification_reports():
    F = GF(3)
    S = CartesianSet([torus_component(F)] * 2)
    rep = verify_characterization(MultProductFamily(S), S, label="torus-gf3")
    assert rep.relation == "equal" and rep.ok
    assert rep.oracle_count == rep.family_count == 8
    js = rep.to_json()
    assert js["relation"] == "equal" and js["count_formula"] == 8

    S2 = CartesianSet([full_component(F), torus_component(F)])
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S2.sizes)
    fam = BorelClaimedFamily(S2, L)
    rep2 = verify_containment(fam.members(), L, S2, label="claimed-subgroup")
    assert rep2.relation in ("family-subset", "equal") and rep2.ok
    assert rep2.family_count == fam.count()
    # deliberately broken family: a non-member first
    bad = [AffineTransformation(F, [[1, 1], [0, 1]], [0, 0])]
    rep3 = verify_containment(bad, L, S2, label="broken")
    assert rep3.relation == "violation" and not rep3.ok
    assert rep3.counterexamples


def test_wrong_characterization_detected():
    F = GF(3)
    S = CartesianSet([full_component(F), torus_component(F)])
    rep = verify_characterization(MultProductFamilyLike(S), S, label="wrong")
    assert rep.relation == "violation"
    assert rep.counterexamples


class MultProductFamilyLike:
    """Family claiming only the identity: must be flagged as a violation."""

    kind = "identity-only"

    def __init__(self, S):
        self.S = S

    def count(self):
        return 1

    def members(self, budget=None):
        yield AffineTransformation.identity(self.S.field, self.S.m)


def test_mixed_general_gf9_oracle_equality():
    # full field times an order-2 subgroup over GF(9): formula 8*9*2*9 = 1296
    from cartperm.families import MixedGeneralFamily
    from cartperm.points import mult_component
    F = GF(9)
    S = CartesianSet([full_component(F), mult_component(F, 2)])
    fam = MixedGeneralFamily(S)
    assert fam.count() == 1296
    rep = verify_characterization(fam, S, label="gf9-full-x-order2")
    assert rep.relation == "equal" and rep.oracle_count == 1296


def test_verify_characterization_accepts_stabilizers():
    F = GF(5)
    S = CartesianSet([mult_component(F, 2), mult_component(F, 4)])
    fam = MultProductFamily(S)
    scanned = verify_characterization(fam, S)
    given = verify_characterization(fam, S, stabilizers=oracle_stabilizers(S))
    assert given.to_json() == scanned.to_json()
    assert given.relation == "equal"


def test_containment_equal_needs_every_group_member():
    # the 72-map group of closure{x1 x2} on GF(3)^2, its last member
    # replaced by a second copy of its first: as many maps, one missing
    F = GF(3)
    S = full_square(3)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    group = list(oracle_affine_perm_group(L, S))
    assert len(group) == 72
    rep = verify_containment(group[:-1] + group[:1], L, S)
    assert (rep.relation, rep.oracle_count, rep.family_count) == ("family-subset", 72, 72)
    assert verify_containment(group + group[:1], L, S).relation == "equal"
    assert verify_containment(group[::-1], L, S).relation == "equal"
    outside = AffineTransformation(F, [[1, 1], [0, 1]])
    rep = verify_containment(group + [outside], L, S)
    assert rep.relation == "violation"
    assert rep.counterexamples == [{"T": outside.to_json(), "reason": "not-in-oracle-group"}]


def test_monomials_outside_the_exponent_box_are_rejected():
    # x1^5 on GF(4) full x full lies outside the exponent box {0..3}^2: it
    # names no coordinate of the code, so the span route rejects it as
    # build_code does, at every entry point, instead of reading every map,
    # the identity too, as failing on it
    S = full_square(4)
    L = MonomialSet(2, [(0, 0), (5, 0)])
    T = AffineTransformation(S.field, [[1, 0], [0, 1]])
    stabs = oracle_stabilizers(S)
    calls = [lambda: build_code(L, S), lambda: SpanChecker(L, S),
             lambda: membership_report(T, L, S), lambda: stabilizes_monomial_span(T, L, S),
             lambda: is_affine_permutation(T, L, S), lambda: keeps_span(L, S, [T]),
             lambda: keeps_span(L, S, stabs), lambda: oracle_affine_perm_group(L, S),
             lambda: oracle_affine_perm_group(L, S, stabilizers=stabs),
             lambda: two_route_agreement(L, S, stabs)]
    for call in calls:
        with pytest.raises(ValueError, match=r"monomial \(5, 0\) outside the exponent box"):
            call()
    # a mixed member is rejected too, before the search could stop early
    with pytest.raises(ValueError, match=r"monomial \(1, 4\) outside the exponent box"):
        oracle_affine_perm_group(MonomialSet(2, [(0, 0), (1, 4)]), S)
