"""The one reader of a monomial set (codes.exponent_set): every public entry
point that takes L with a point set reads L once, so a MonomialSet, a list,
a tuple and a one-shot generator give the same answer, and a malformed L is
refused with the message that names its first offending monomial, in L's
own order.  The span check of one map answers False for a map over another
field or dimension, as the point-set check does."""

import numpy as np
import pytest

from cartperm.affine import (
    AffineTransformation, SpanChecker, is_affine_permutation, membership_report,
    stabilizes_monomial_span,
)
from cartperm.codes import build_code
from cartperm.field import GF
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import (
    code_permutation_check, keeps_span, oracle_affine_perm_group, oracle_stabilizers,
    reduced_pullbacks, two_route_agreement, verify_containment,
)
from cartperm.points import CartesianSet, full_component


def gf3_square():
    """GF(3)^2 with the members of closure{x1 x2}, listed in graded-lex
    order; its 432 stabilizers keep a 72-map group, and two stabilizers:
    the swap x -> (x2, x1), in the group, and x -> (x1 + x2, x2), not in it
    (x1 x2 pulls back to x1 x2 + x2^2)."""
    F = GF(3)
    S = CartesianSet([full_component(F)] * 2)
    members = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes)).sorted()
    swap = AffineTransformation(F, [[0, 1], [1, 0]])
    shear = AffineTransformation(F, [[1, 1], [0, 1]])
    return S, members, oracle_stabilizers(S), (swap, shear)


def witnesses(L, S, Ts):
    """The witness of each map, from one SpanChecker."""
    checker = SpanChecker(L, S)
    return [checker.witness_ix(T.A, T.b) for T in Ts]


# entry point -> its answer for L on S, the stabilizers and the two maps
ENTRY_POINTS = {
    "build_code": lambda L, S, stabs, Ts: build_code(L, S).rows,
    "SpanChecker": lambda L, S, stabs, Ts: witnesses(L, S, Ts),
    "stabilizes_monomial_span": lambda L, S, stabs, Ts: stabilizes_monomial_span(Ts[1], L, S),
    "is_affine_permutation": lambda L, S, stabs, Ts: is_affine_permutation(Ts[0], L, S),
    "membership_report": lambda L, S, stabs, Ts: membership_report(Ts[1], L, S),
    "code_permutation_check": lambda L, S, stabs, Ts: code_permutation_check(Ts[1], L, S),
    "keeps_span": lambda L, S, stabs, Ts: keeps_span(L, S, stabs).tolist(),
    "oracle_affine_perm_group (search)":
        lambda L, S, stabs, Ts: oracle_affine_perm_group(L, S).ab.tolist(),
    "oracle_affine_perm_group (list)":
        lambda L, S, stabs, Ts: oracle_affine_perm_group(L, S, stabilizers=stabs).ab.tolist(),
    "two_route_agreement": lambda L, S, stabs, Ts: two_route_agreement(L, S, stabs),
    "verify_containment": lambda L, S, stabs, Ts: verify_containment(Ts, L, S).to_json(),
}


class Counted:
    """An iterable of monomials that counts its reads."""

    def __init__(self, monomials):
        self.items, self.reads = list(monomials), 0

    def __iter__(self):
        self.reads += 1
        return iter(self.items)


def forms_of(members):
    """L as a MonomialSet, a list, a tuple, a one-shot generator and a list
    of lists."""
    return {"MonomialSet": MonomialSet(2, members), "list": list(members),
            "tuple": tuple(members), "generator": (u for u in members),
            "lists": [list(u) for u in members]}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_form_of_L_gives_the_list_answer(entry):
    S, members, stabs, Ts = gf3_square()
    run = ENTRY_POINTS[entry]
    want = run(list(members), S, stabs, Ts)
    for name in ("MonomialSet", "list", "tuple", "generator", "lists"):
        assert run(forms_of(members)[name], S, stabs, Ts) == want, name
    counted = Counted(members)
    assert run(counted, S, stabs, Ts) == want
    assert counted.reads == 1


def test_the_answers_are_the_group_of_closure_x1_x2():
    # the expectations the forms are compared with, derived by hand: the
    # swap keeps the span of {1, x1, x2, x1 x2}; the shear sends x1 x2 to
    # x1 x2 + x2^2, whose x2^2 lies outside L
    S, members, stabs, Ts = gf3_square()
    swap, shear = Ts
    assert witnesses(members, S, Ts) == [None, ((1, 1), (0, 2))]
    assert is_affine_permutation(swap, members, S) and not is_affine_permutation(shear, members, S)
    assert not code_permutation_check(shear, members, S)
    assert membership_report(shear, members, S)["witness"] == {"member": [1, 1],
                                                               "monomial": [0, 2]}
    assert len(oracle_affine_perm_group(members, S)) == 72
    assert two_route_agreement(members, S, stabs) == (True, [])
    assert verify_containment(Ts, members, S).relation == "violation"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_malformed_L_is_refused_at_its_first_offending_monomial(entry):
    # the exponent box of GF(3)^2 is 3 x 3: x1^5 and x2^7 both leave it
    S, members, stabs, Ts = gf3_square()
    run = ENTRY_POINTS[entry]
    for first, second in (((5, 0), (0, 7)), ((0, 7), (5, 0))):
        for form in (list, tuple, iter):
            with pytest.raises(ValueError) as got:
                run(form([(0, 0), first, second]), S, stabs, Ts)
            assert str(got.value) == f"monomial {first} outside the exponent box of the set"
    with pytest.raises(ValueError) as got:
        run([(0, 0), (1, 0, 0), (5, 0)], S, stabs, Ts)
    assert str(got.value) == "monomial (1, 0, 0) has wrong arity"


def test_reduced_pullbacks_read_the_monomials_once():
    S, members, stabs, Ts = gf3_square()
    want = reduced_pullbacks(S, Ts, members)
    assert want.shape == (2, len(members), 3, 3)
    assert np.array_equal(reduced_pullbacks(S, Ts, (u for u in members)), want)
    # the swap pulls x1 back to x2: coefficient 1 at x1^0 x2^1
    assert want[0, members.index((1, 0))].tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]


def test_the_span_check_refuses_a_map_of_another_ambient():
    # GF(2)^2 with L = {1, x1}.  The GF(4) map x -> (w x1, x2), w the
    # element of index 2, and the identity of GF(2)^3 act on other spaces:
    # neither keeps the span, and the report keeps the first point as the
    # escape witness of both conditions
    S = CartesianSet([full_component(GF(2))] * 2)
    L = MonomialSet(2, [(0, 0), (1, 0)], bound=S.sizes)
    foreign = [AffineTransformation(GF(4), [[2, 0], [0, 1]]),
               AffineTransformation.identity(GF(2), 3)]
    for T in foreign:
        assert not SpanChecker(L, S).check(T)
        assert not stabilizes_monomial_span(T, L, S)
        assert not is_affine_permutation(T, L, S)
        report = membership_report(T, L, S)
        assert report["stabilizes_set"] is False and report["stabilizes_span"] is False
        assert report["witness"] == {"point": [[0], [0]]}
    # the identity of GF(2)^2 keeps it
    assert SpanChecker(L, S).check(AffineTransformation.identity(GF(2), 2))
