"""The one map representation: the oracle's AffineMaps (a sorted [A | b]
array that builds AffineTransformation objects on demand) against plain
object lists, in every consumer, the objects it does not build, and the
packing of object lists by their rows, checked against each consumer's
dimension and field."""

import numpy as np
import pytest

from cartperm import oracle
from cartperm.affine import AffineTransformation
from cartperm.field import GF, Field
from cartperm.monomials import MonomialSet, divisibility_closure
from cartperm.oracle import (
    AffineMaps, group_axioms_report, oracle_affine_perm_group,
    oracle_stabilizers, two_route_agreement, verify_characterization,
)
from cartperm.points import CartesianSet, explicit_component, full_component
from test_acceptance import gf16_triple
from test_family_arrays import FAMILIES


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


def gf4_square():
    """GF(4)^2 with L = closure{x1 x2}."""
    F = GF(4)
    S = CartesianSet([full_component(F)] * 2)
    return F, S, divisibility_closure(MonomialSet(2, [(1, 1)], bound=S.sizes))


def bad_maps(F):
    """Maps that no consumer on a GF(4)^2 set may take: a list that mixes
    dimensions (the 3 x 3 identity last, so the first map's dimension is the
    expected one), lists over GF(2) and GF(16), and an AffineMaps whose array
    is no (N, m, m + 1) stack."""
    I2 = AffineTransformation.identity(F, 2)
    return {
        "dimension": [I2, AffineTransformation.identity(F, 3)],
        "field GF(2)": [I2, AffineTransformation.identity(GF(2), 2)],
        "field GF(16)": [AffineTransformation.translation(GF(16), [7, 0])],
        "shape": AffineMaps(F, np.zeros((1, 2, 2), dtype=np.uint16)),
        "AffineMaps over GF(2)": AffineMaps(GF(2), np.eye(2, 3, dtype=np.uint16)[None]),
    }


CONSUMERS = {
    "oracle_affine_perm_group": lambda F, S, L, maps: oracle_affine_perm_group(
        L, S, stabilizers=maps),
    "two_route_agreement": lambda F, S, L, maps: two_route_agreement(L, S, maps),
    "group_axioms_report": lambda F, S, L, maps: group_axioms_report(F, maps),
    "keeps_span": lambda F, S, L, maps: oracle.keeps_span(L, S, maps),
    "reduced_pullbacks": lambda F, S, L, maps: oracle.reduced_pullbacks(S, maps, [(1, 1)]),
    "verify_containment": lambda F, S, L, maps: oracle.verify_containment(maps, L, S),
    "AffineMaps.holds": lambda F, S, L, maps: oracle_stabilizers(S).holds(maps),
    "AffineMaps.packed": lambda F, S, L, maps: AffineMaps.packed(F, maps, S.m),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_packing_checks_dimension_and_field(consumer):
    """Every consumer packs through _as_array, which raises ValueError for a
    map of another dimension or over another field, and for an array of
    another shape; equal fields that are distinct objects are accepted."""
    F, S, L = gf4_square()
    run = CONSUMERS[consumer]
    bad = bad_maps(F)
    if consumer != "group_axioms_report":
        # a caller with a dimension turns down maps of another one
        bad["3 x 3 list"] = [AffineTransformation.identity(F, 3)]
        bad["3 x 3 AffineMaps"] = AffineMaps(F, np.eye(3, 4, dtype=np.uint16)[None])
    for name, maps in bad.items():
        with pytest.raises(ValueError, match="is expected"):
            run(F, S, L, maps)
    # GF(4) under its default polynomial, built again: equal, not the same
    twin = Field(2, 2, irreducible=F.irreducible)
    assert twin == F and twin is not F
    good = [AffineTransformation.identity(F, 2), AffineTransformation.identity(twin, 2)]
    run(F, S, L, good)
    run(F, S, L, AffineMaps(twin, np.eye(2, 3, dtype=np.uint16)[None]))


def small_set(q, m):
    """A point set over GF(q) of dimension m with few stabilizers: a full
    component first for m < 3 (for m = 3 only over GF(2)), then explicit
    components {0, 1} and {0, 1, a} with a primitive."""
    F = GF(q)
    comps = [full_component(F)] if m < 3 or q == 2 else [
        explicit_component(F, [F(0), F(1), F.primitive_element()])]
    return CartesianSet(comps + [explicit_component(F, [F(0), F(1)])] * (m - len(comps)))


ROUND_TRIPS = {
    **{f"stabilizers GF({q})^{m}": lambda q=q, m=m: oracle_stabilizers(small_set(q, m))
       for q in (2, 4, 7, 9, 16) for m in (1, 2, 3)},
    **{name: lambda make=make: make().members() for name, make in FAMILIES.items()},
}


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_round_trip(name):
    """_as_array of the objects of an AffineMaps is its array again: uint16,
    fresh and writable, from objects that hold their rows (iteration,
    indexing, slices) or that get them on packing (__init__, compose,
    invert), alone, mixed or repeated."""
    maps = ROUND_TRIPS[name]()
    F, m = maps.field, maps.ab.shape[1]
    assert len(maps) > 0

    def packs_to(ts, ab):
        got = oracle._as_array(ts, m)
        assert got.dtype == np.uint16 and got.flags.writeable and np.array_equal(got, ab)

    iterated = list(maps)
    packs_to(iterated, maps.ab)
    packs_to([maps[i] for i in range(len(maps))], maps.ab)
    packs_to(list(maps[1::2]), maps.ab[1::2])
    built = [AffineTransformation(F, T.A, T.b) for T in iterated]
    packs_to(built, maps.ab)
    packs_to(built, maps.ab)
    # a mixed list whose first maps have no row yet
    fresh = [AffineTransformation(F, T.A, T.b) for T in iterated]
    packs_to(fresh[::2] + iterated[1::2], np.concatenate([maps.ab[::2], maps.ab[1::2]]))
    identity, T = AffineTransformation.identity(F, m), maps[len(maps) // 2]
    products = [T.compose(T), identity.compose(T), identity, identity.compose(T)] + [
        U.invert() for U, ok in zip(iterated[:5], maps.invertible()) if ok]
    want = np.stack([[list(A) + [c] for A, c in zip(U.A, U.b)] for U in products])
    packs_to(products + iterated[:3] * 2, np.concatenate([want, np.tile(maps.ab[:3], (2, 1, 1))]))

    # writing into a packed array changes no map, whether its row came from
    # the array or from the packing
    for ts in (iterated, [AffineTransformation(F, U.A, U.b) for U in iterated]):
        got = oracle._as_array(ts, m)
        before = [(U.row, U.A, U.b) for U in ts]
        got[...] = 1
        assert [(U.row, U.A, U.b) for U in ts] == before


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_iteration_shares_tuples(name, monkeypatch):
    """Iteration hands the maps one A tuple per distinct linear part and one
    b tuple per distinct offset, equal to each map's own decode of its row;
    indexing decodes one row, without the pass over all maps."""
    maps = ROUND_TRIPS[name]()
    m = maps.ab.shape[1]
    listed = list(maps)
    shared = {}
    for T, x in zip(listed, maps.ab):
        assert T.A == tuple(tuple(r[:m]) for r in x.tolist())
        assert T.b == tuple(r[m] for r in x.tolist())
        assert T.row == x.tobytes() and type(T.A[0][0]) is int and type(T.b[0]) is int
        assert shared.setdefault(("A", T.A), T.A) is T.A
        assert shared.setdefault(("b", T.b), T.b) is T.b
    monkeypatch.setattr(oracle, "_distinct", None)
    for t, T in enumerate(listed):
        U = maps[t]
        assert (U.A, U.b, U.row, U.m, U.field) == (T.A, T.b, T.row, T.m, T.field)


def test_empty_round_trip():
    for m in (1, 2, 3):
        got = oracle._as_array([], m)
        assert got.shape == (0, m, m + 1) and got.dtype == np.uint16 and got.flags.writeable
        assert list(AffineMaps(GF(4), got)) == []


def test_empty_maps_hold_nothing():
    F, S, L, stabs = gf3_square()
    empty = AffineMaps(F, oracle._as_array([], 2))
    assert empty.holds(stabs[:5]).tolist() == [False] * 5
    assert empty.holds([]).tolist() == []


def test_packing_reads_entries_once(monkeypatch):
    """An iterated map hands its row to the packing, which reads no entry of
    it; a constructed map is read once, at its first packing."""
    reads = []
    for name in ("A", "b"):
        slot = AffineTransformation.__dict__[name]
        monkeypatch.setattr(AffineTransformation, name, property(
            lambda T, slot=slot: (reads.append(1), slot.__get__(T))[1], slot.__set__))
    F, S, L = gf4_square()
    stabs = oracle_stabilizers(S)
    listed = list(stabs)
    assert reads == []
    assert np.array_equal(oracle._as_array(listed), stabs.ab) and reads == []
    built = [AffineTransformation(F, [[1, 0], [0, 1]], [c, 0]) for c in range(4)]
    reads.clear()
    first = oracle._as_array(built)
    assert len(reads) == 2 * len(built)
    assert np.array_equal(oracle._as_array(built), first)
    assert len(reads) == 2 * len(built)
