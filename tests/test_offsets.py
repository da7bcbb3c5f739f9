"""The offset lemma of the span kernel.  When 1 is in L and the checked
members C together with 1 are closed under division, x -> Ax + b and
x -> Ax keep or leave span(L) on C together: x^v(Ax + b) is a combination
of the x^u(Ax), u <= v, each in C or 1.  So oracle._span_scan drops the
offsets at its entry, and the row-prefix search checks at each step with a
new mixed member every member in the variables chosen so far, a set closed
under division when L is.  These tests hold the kernel to a scalar
reference that uses no lemma (poly.affine_pullback reduced modulo I(S),
one map and one member at a time) on every map of small affine spaces,
and the search to the filter of the stabilizer list on sets with m = 3.
The cases are explicit, so no edit of this file redraws them."""

import itertools

import numpy as np
import pytest

from cartperm import oracle
from cartperm.affine import SpanChecker
from cartperm.codes import exponent_set
from cartperm.field import GF
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import keeps_span, oracle_affine_perm_group, oracle_stabilizers
from cartperm.points import CartesianSet, full_component, mult_component
from cartperm.poly import affine_pullback


def every_map(F, m):
    """All q^(m^2 + m) maps [A | b] over F, singular ones and offsets
    among them, as one (N, m, m + 1) array."""
    entries = itertools.product(range(F.q), repeat=m * (m + 1))
    return np.array(list(entries), dtype=np.uint16).reshape(-1, m, m + 1)


def scalar_verdicts(S, L, check, ab):
    """Whether the reduced pullback modulo I(S) of every member of check
    under each map is supported on L, by the scalar engine."""
    F, m, inside = S.field, S.m, set(L)
    verdicts = []
    for x in ab.tolist():
        pull = affine_pullback(F, [row[:m] for row in x], [row[m] for row in x], S)
        verdicts.append(all(set(pull(u)) <= inside for u in check))
    return verdicts


def closure(S, *gens):
    return sorted(divisibility_closure(MonomialSet(S.m, list(gens), bound=S.sizes)).monomials)


def mixed(L):
    """The members of L in two variables or more: with 1 never closed under
    division."""
    return [u for u in L if sum(map(bool, u)) > 1]


GF3_SQUARE = CartesianSet([full_component(GF(3))] * 2)
GF2_CUBE = CartesianSet([full_component(GF(2))] * 3)
GF4_TORUS = CartesianSet([full_component(GF(4)), mult_component(GF(4), 3)])

# (S, L, check, maps whose verdict depends on the offset): on GF(3)^2 with
# L = closure{x1^2 x2} the mixed members alone are not closed, and 36 maps
# keep them with b = 0 only or with b != 0 only; {x1} with 1 is closed but
# 1 is not in L, and 162 maps differ there, each x1 + c with c != 0
KERNEL_CASES = {
    "gf3^2 closed": (GF3_SQUARE, closure(GF3_SQUARE, (2, 1)), None, 0),
    "gf3^2 mixed": (GF3_SQUARE, closure(GF3_SQUARE, (2, 1)), mixed(closure(GF3_SQUARE, (2, 1))),
                    36),
    "gf3^2 without 1": (GF3_SQUARE, [(1, 0)], None, 162),
    "gf2^3 closed": (GF2_CUBE, closure(GF2_CUBE, (1, 1, 0), (0, 1, 1)), None, 0),
    "gf2^3 mixed": (GF2_CUBE, closure(GF2_CUBE, (1, 1, 0), (0, 1, 1)),
                    mixed(closure(GF2_CUBE, (1, 1, 0), (0, 1, 1))), 0),
    "gf2^3 without 1": (GF2_CUBE, [u for u in closure(GF2_CUBE, (1, 1, 0), (0, 1, 1)) if any(u)],
                        None, 1568),
    "gf4 x mu3 closed": (GF4_TORUS, closure(GF4_TORUS, (2, 1), (1, 2)), None, 0),
    "gf4 x mu3 mixed": (GF4_TORUS, closure(GF4_TORUS, (2, 1), (1, 2)),
                        mixed(closure(GF4_TORUS, (2, 1), (1, 2))), 0),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_span_scan_matches_scalar_pullbacks_on_maps_with_offsets(name):
    S, L, check, depend = KERNEL_CASES[name]
    ab = every_map(S.field, S.m)
    assert ab[:, :, S.m].any()
    members = exponent_set(L, S)
    want = scalar_verdicts(S, L, members if check is None else check, ab)
    got = oracle._span_scan(S.field.np_tables(), members, S, ab, check=check)
    assert got.tolist() == want
    # the maps on which dropping the offsets would change the verdict
    linear = ab.copy()
    linear[:, :, S.m] = 0
    without = scalar_verdicts(S, L, members if check is None else check, linear)
    assert sum(a != b for a, b in zip(want, without)) == depend


def test_kernel_check_catches_offsets_dropped_for_any_set(monkeypatch):
    # a kernel that takes every checked set with 1 for closed under
    # division drops the offsets of the mixed members of closure{x1^2 x2}
    monkeypatch.setattr(oracle, "divisor_closed", lambda monomials: True)
    with pytest.raises(AssertionError):
        test_span_scan_matches_scalar_pullbacks_on_maps_with_offsets("gf3^2 mixed")


# point sets with two full components, so that the prefixes of steps 2 and
# 3 carry offsets, and L on them: decreasing; closed under division up to
# x1 x2 but not past it, so step 2 drops the offsets and step 3 does not;
# and without 1, so no step drops them
SEARCH_SETS = {
    "gf3^2 x mu2": CartesianSet([full_component(GF(3))] * 2 + [mult_component(GF(3), 2)]),
    "gf4^2 x mu3": CartesianSet([full_component(GF(4))] * 2 + [mult_component(GF(4), 3)]),
}
SEARCH_SETS_L = {
    "decreasing": [(1, 1, 1)],
    "closed to step 2": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)],
    "without 1": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)],
}


def search_members(S, kind):
    gens = SEARCH_SETS_L[kind]
    L = MonomialSet(3, gens, bound=S.sizes)
    return divisibility_closure(L) if kind == "decreasing" else L


# the steps whose mixed checks drop their offsets, per L
DROPPED = {"decreasing": {2, 3}, "closed to step 2": {2}, "without 1": set()}


def mixed_checks(monkeypatch):
    """For each span kernel call that checks a mixed member, its step (the
    last variable of its members, from 1) and whether it dropped the
    offsets (called _linear_parts)."""
    calls, scan, parts = [], oracle._span_scan, oracle._linear_parts

    def counted_parts(ab, q):
        calls[-1][1] = True
        return parts(ab, q)

    def counted(kern, members, S, ab, check=None):
        check = members if check is None else check
        top = max(i for u in check for i, e in enumerate(u) if e)
        calls.append([top + 1 if mixed(check) else None, False])
        return scan(kern, members, S, ab, check)

    monkeypatch.setattr(oracle, "_linear_parts", counted_parts)
    monkeypatch.setattr(oracle, "_span_scan", counted)
    return calls


@pytest.mark.parametrize("kind", sorted(SEARCH_SETS_L))
@pytest.mark.parametrize("name", sorted(SEARCH_SETS))
def test_search_matches_the_stabilizer_filter_on_two_full_components(name, kind, monkeypatch):
    S = SEARCH_SETS[name]
    L = search_members(S, kind)
    stabs = oracle_stabilizers(S)
    assert stabs.ab[:, :, 3].any()
    keep = keeps_span(L, S, stabs)
    if S.field.q == 3:
        # the scalar route, which uses no lemma, on all 7,776 stabilizers
        checker = SpanChecker(L, S)
        assert keep.tolist() == [checker.check(T) for T in stabs]
    calls = mixed_checks(monkeypatch)
    got = oracle_affine_perm_group(L, S).ab
    assert len(got) and got.dtype == stabs.ab.dtype and np.array_equal(got, stabs.ab[keep])
    # steps 2 and 3 each check a new mixed member, on prefixes with offsets
    assert {step for step, _ in calls} - {None} == {2, 3}
    assert {step for step, dropped in calls if dropped and step} == DROPPED[kind]
