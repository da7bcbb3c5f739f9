"""The one map representation: the oracle's AffineMaps (a sorted [A | b]
array that builds AffineTransformation objects on demand) against plain
object lists, in every consumer, and the objects it does not build."""

import numpy as np
import pytest

from cartperm import oracle
from cartperm.affine import AffineTransformation
from cartperm.field import GF
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import (
    AffineMaps, group_axioms_report, oracle_affine_perm_group,
    oracle_stabilizers, two_route_agreement, verify_characterization,
)
from cartperm.points import CartesianSet, full_component
from test_acceptance import gf16_triple


def gf3_square():
    """GF(3)^2 with L = closure{x1 x2}: 432 stabilizers, a 72-map group."""
    F = GF(3)
    S = CartesianSet([full_component(F)] * 2)
    L = divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))
    return F, S, L, oracle_stabilizers(S)


def test_sequence_protocol():
    F, S, L, stabs = gf3_square()
    assert isinstance(stabs, AffineMaps) and len(stabs) == 432
    assert stabs.ab.shape == (432, 2, 3) and stabs.ab.dtype == np.uint16
    T = stabs[5]
    assert isinstance(T, AffineTransformation) and T.field == F
    assert T.A == tuple(tuple(r[:2]) for r in stabs.ab[5].tolist())
    assert T.b == tuple(r[2] for r in stabs.ab[5].tolist())
    assert stabs[-1] == list(stabs)[-1]
    head = stabs[:7]
    assert isinstance(head, AffineMaps) and list(head) == list(stabs)[:7]
    with pytest.raises(IndexError):
        stabs[432]
    assert T in stabs and stabs.index(T) == 5
    assert stabs.holds([T, AffineTransformation(F, [[1, 0], [0, 0]])]).tolist() == [True, False]
    packed = oracle._as_array(list(stabs))
    assert packed.dtype == np.uint16 and np.array_equal(packed, stabs.ab)
    assert oracle._as_array([], 3).shape == (0, 3, 4)


def test_scan_builds_no_objects(monkeypatch):
    """The scan and the group of the GF(16) additive triple stay arrays:
    no AffineTransformation is built for the 24,576 stabilizers or the
    192 group members until one is read, by __init__ or by of_ix (which
    iteration uses)."""
    built = []
    init = AffineTransformation.__init__
    of_ix = AffineTransformation.of_ix.__func__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_of_ix(cls, *args, **kwargs):
        built.append(1)
        return of_ix(cls, *args, **kwargs)

    monkeypatch.setattr(AffineTransformation, "__init__", counted)
    monkeypatch.setattr(AffineTransformation, "of_ix", classmethod(counted_of_ix))
    F, S, L = gf16_triple()
    stabs = oracle_stabilizers(S)
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    assert (len(stabs), len(group), len(built)) == (24576, 192, 0)
    group[0]
    assert len(built) == 1
    next(iter(group))
    assert len(built) == 2


class ListFamily:
    """A family whose members are given as a list."""

    kind = "listed"

    def __init__(self, members):
        self._members = members

    def count(self):
        return len(self._members)

    def members(self, budget=None):
        return iter(self._members)


def test_array_and_object_list_paths_agree(monkeypatch):
    F, S, L, stabs = gf3_square()
    listed = list(stabs)

    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    assert len(group) == 72
    assert list(group) == list(oracle_affine_perm_group(L, S, stabilizers=listed))

    mid = len(group) // 2
    broken = AffineMaps(F, np.delete(group.ab, mid, axis=0))
    assert list(broken) == list(group)[:mid] + list(group)[mid + 1:]
    for maps in (group, broken):
        rep = group_axioms_report(F, maps)
        assert rep == group_axioms_report(F, list(maps))
    assert rep["witness"] is not None and not rep["closed_under_composition"]

    assert two_route_agreement(L, S, stabs) == two_route_agreement(L, S, listed) == (True, [])
    # a span route that drops one member shows the same disagreement on both
    first = list(stabs).index(group[mid])
    span_ok = oracle._span_ok

    def drop(*args, **kwargs):
        ok = span_ok(*args, **kwargs)
        ok[first] = False
        return ok

    monkeypatch.setattr(oracle, "_span_ok", drop)
    agree, dis = two_route_agreement(L, S, stabs)
    assert not agree and dis == [{"T": group[mid].to_json(), "span_route": False,
                                  "code_route": True}]
    assert two_route_agreement(L, S, listed) == (agree, dis)
    monkeypatch.undo()

    # a family missing one member and holding two non-stabilizers
    extra = [AffineTransformation(F, [[1, 0], [1, 0]]), AffineTransformation(F, [[0, 0], [0, 1]])]
    fam = ListFamily(listed[:100] + listed[101:] + extra)
    got = verify_characterization(fam, S, stabilizers=stabs).to_json()
    assert got == verify_characterization(fam, S, stabilizers=listed).to_json()
    assert got["relation"] == "violation"
    assert (got["oracle_count"], got["family_count"]) == (432, 433)
    assert got["counterexamples"] == [
        {"T": listed[100].to_json(), "reason": "oracle-only"},
        {"T": extra[0].to_json(), "reason": "family-only"}]
