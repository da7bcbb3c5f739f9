"""The array enumerators of cartperm.families against the scalar reference
of tests/family_reference.py: the same maps in the same order, the budget
raised one map short of the count and not at it, invertible linear parts
kept by the batched AffineMaps.invertible and never by the scalar reducer,
and no object built on the way to a verification report."""

import numpy as np
import pytest

import family_reference as ref
from cartperm import codes, families
from cartperm.affine import AffineTransformation
from cartperm.families import (
    AdditiveHeteroPattern, AdditivePowerFamily, BorelClaimedFamily,
    MixedFullTorusFamily, MixedGeneralFamily, MultProductFamily,
    enumerate_LTA, enumerate_ML_invertible,
)
from cartperm.field import GF, TABLE_LIMIT, Field, FieldError
from cartperm.monomials import MonomialSet, divisibility_closure, stable_pattern
from cartperm.oracle import (
    AffineMaps, BudgetExceeded, _as_array, oracle_stabilizers, verify_characterization,
)
from cartperm.points import (
    CartesianSet, additive_component, full_component, mult_component,
    torus_component,
)

# GF(8) under x^3 + x^2 + 1, not the default x^3 + x + 1
F8 = Field(2, 3, irreducible=(1, 0, 1, 1))


def scaled_line(F, m):
    """The F4-line through alpha^6 and alpha^11 in GF(16), m times."""
    a = F.primitive_element()
    return CartesianSet([additive_component(F, [a ** 6, a ** 11])] * m)


def borel_case(S, gens):
    return BorelClaimedFamily(S, divisibility_closure(MonomialSet(S.m, gens, bound=S.sizes)))


FAMILIES = {
    # a repeated subgroup: sigma ranges over S_2, then over S_2 x {id}
    "mult μ4 x μ4 / GF(5)": lambda: MultProductFamily(
        CartesianSet([mult_component(GF(5), 4)] * 2)),
    "mult μ3 x μ3 x μ2 / GF(7)": lambda: MultProductFamily(CartesianSet(
        [mult_component(GF(7), 3)] * 2 + [mult_component(GF(7), 2)])),
    "mult μ7 x μ7 / custom GF(8)": lambda: MultProductFamily(
        CartesianSet([torus_component(F8)] * 2)),
    "mixed m0=0 μ2 x μ4 / GF(5)": lambda: MixedGeneralFamily(
        CartesianSet([mult_component(GF(5), 2), mult_component(GF(5), 4)])),
    "mixed m0=1 full x μ2 x μ2 / GF(5)": lambda: MixedGeneralFamily(CartesianSet(
        [full_component(GF(5))] + [mult_component(GF(5), 2)] * 2)),
    "mixed m0=1 full x μ7 / custom GF(8)": lambda: MixedGeneralFamily(
        CartesianSet([full_component(F8), torus_component(F8)])),
    "mixed m0=m full^2 / GF(3)": lambda: MixedGeneralFamily(
        CartesianSet([full_component(GF(3))] * 2)),
    "torus full^2 x T / GF(3)": lambda: MixedFullTorusFamily(CartesianSet(
        [full_component(GF(3))] * 2 + [torus_component(GF(3))])),
    "additive scaled line / GF(16)": lambda: AdditivePowerFamily(scaled_line(GF(16), 1)),
    "additive scaled line^2 / GF(16)": lambda: AdditivePowerFamily(scaled_line(GF(16), 2)),
    "additive plane^2 / custom GF(8)": lambda: AdditivePowerFamily(
        CartesianSet([additive_component(F8, [F8.one, F8.primitive_element()])] * 2)),
    "borel full-torus / GF(4)": lambda: borel_case(
        CartesianSet([full_component(GF(4)), torus_component(GF(4))]), [(3, 1)]),
    "borel full-subgroups / GF(5)": lambda: borel_case(CartesianSet(
        [full_component(GF(5))] * 2 + [mult_component(GF(5), 2)]), [(2, 0, 0)]),
    "borel full-subgroups split 0 / GF(5)": lambda: borel_case(
        CartesianSet([mult_component(GF(5), 2), mult_component(GF(5), 4)]), [(1, 0)]),
    "borel additive-power / GF(16)": lambda: borel_case(scaled_line(GF(16), 2), [(2, 0)]),
    "borel additive-power / custom GF(8)": lambda: borel_case(
        CartesianSet([full_component(F8)] * 2), [(3, 0)]),
}

REFERENCE = {
    MultProductFamily: ref.mult_product,
    MixedGeneralFamily: ref.mixed_general,
    MixedFullTorusFamily: ref.mixed_general,
    AdditivePowerFamily: ref.additive_power,
    BorelClaimedFamily: ref.borel_claimed,
}


def same_maps(got, want, m):
    """got is an AffineMaps holding exactly the maps of the list want, in
    its order."""
    assert isinstance(got, AffineMaps)
    assert got.ab.dtype == np.uint16 and got.ab.shape == (len(want), m, m + 1)
    assert np.array_equal(got.ab, _as_array(want, m))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_members_match_scalar_reference(name):
    fam = FAMILIES[name]()
    want = list(REFERENCE[type(fam)](fam))
    assert len(want) == fam.count()
    same_maps(fam.members(), want, fam.m)
    if name == "borel full-torus / GF(4)":
        assert fam.shape == "full-torus"
    with pytest.raises(BudgetExceeded):
        fam.members(budget=fam.count() - 1)
    assert len(fam.members(budget=fam.count())) == fam.count()


def test_family_shapes_cover_the_cases():
    shapes = {name: getattr(FAMILIES[name](), "shape", None) for name in FAMILIES}
    assert {s for s in shapes.values() if s} == {"full-torus", "full-subgroups",
                                                 "additive-power"}
    m0s = {FAMILIES[n]().m0 for n in FAMILIES if n.startswith("mixed")}
    assert m0s == {0, 1, 2}
    assert [len(list(ref._sigmas(FAMILIES[n]()))) for n in FAMILIES
            if n.startswith("mult μ")] == [2, 2, 2]
    assert FAMILIES["additive scaled line / GF(16)"]().subfield_degree == 2
    assert F8 != GF(8)


@pytest.mark.parametrize("F, m", [(GF(2), 2), (GF(3), 2), (GF(4), 2), (F8, 1), (GF(2), 3)])
def test_lta_matches_scalar_reference(F, m):
    want = list(ref.lta(F, m))
    same_maps(enumerate_LTA(F, m), want, m)
    with pytest.raises(BudgetExceeded):
        enumerate_LTA(F, m, budget=len(want) - 1)
    assert len(enumerate_LTA(F, m, budget=len(want))) == len(want)


@pytest.mark.parametrize("F, gens", [
    (GF(4), [(2, 1)]),
    (GF(4), [(3, 0), (0, 3)]),          # pure powers pin A to the diagonal
    (GF(3), [(1, 1)]),
    (F8, [(3, 2)]),
    (GF(2), [(1, 1, 0), (0, 0, 1)]),
])
def test_ml_matches_scalar_reference(F, gens):
    L = divisibility_closure(MonomialSet(len(gens[0]), gens, bound=(F.q,) * len(gens[0])))
    want = list(ref.ml_invertible(L, F))
    same_maps(enumerate_ML_invertible(L, F.p, F), want, L.m)
    with pytest.raises(BudgetExceeded):
        enumerate_ML_invertible(L, F.p, F, budget=len(want) - 1)
    with pytest.raises(BudgetExceeded):
        list(ref.ml_invertible(L, F, budget=len(want) - 1))
    assert len(enumerate_ML_invertible(L, F.p, F, budget=len(want))) == len(want)


@pytest.mark.parametrize("F, gens", [
    (GF(4), [(2, 1)]),
    (GF(5), [(1, 1)]),
    (F8, [(3, 2)]),
    (GF(2), [(1, 1, 0), (0, 0, 1)]),
])
def test_ml_budget_checks_candidates_before_listing(F, gens, monkeypatch):
    L = divisibility_closure(MonomialSet(len(gens[0]), gens, bound=(F.q,) * len(gens[0])))
    pattern = stable_pattern(L, F.p)
    candidates = F.q ** sum(pattern.allows(i, j) for i in range(L.m) for j in range(L.m))
    count = len(enumerate_ML_invertible(L, F.p, F))
    assert count >= candidates      # the bound the pre-check rests on
    if count > candidates:
        with pytest.raises(BudgetExceeded, match=f"^family of {count} maps exceeds budget"):
            enumerate_ML_invertible(L, F.p, F, budget=count - 1)

    def listed(lists):
        raise AssertionError("candidates listed past the budget")

    monkeypatch.setattr(families, "_grid", listed)
    with pytest.raises(BudgetExceeded, match=f"^family of at least {candidates} maps "
                                             f"exceeds budget {candidates - 1}$"):
        enumerate_ML_invertible(L, F.p, F, budget=candidates - 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("F", [GF(2), GF(3), GF(4), GF(5), F8], ids=str)
def test_invertible_matches_scalar_reference(F, m):
    rng = np.random.default_rng(10 * F.q + m)
    pool = rng.integers(0, F.q, size=(8, m, m), dtype=np.uint16)
    pool[0] = 0
    pool[1] = np.eye(m, dtype=np.uint16)
    pool[2, -1] = pool[2, 0]            # a repeated row: singular for m > 1
    # linear parts drawn with repetition from the pool, under random offsets
    A = pool[np.concatenate([[0, 1, 2], rng.integers(0, len(pool), size=60)])]
    maps = AffineMaps(F, np.concatenate(
        [A, rng.integers(0, F.q, size=(len(A), m, 1), dtype=np.uint16)], axis=2))
    got = maps.invertible()
    assert got.dtype == bool and got.tolist() == [T.is_invertible() for T in maps]
    assert got[:2].tolist() == [False, True]
    assert maps[:0].invertible().shape == (0,)


def test_members_call_no_scalar_reducer(monkeypatch):
    fams = [FAMILIES[name]() for name in sorted(FAMILIES)]
    F = GF(4)
    L = divisibility_closure(MonomialSet(2, [(2, 1)], bound=(4, 4)))
    ml = enumerate_ML_invertible(L, F.p, F)

    def scalar(rows, F):
        raise RuntimeError("the scalar reducer ran on a map array")

    monkeypatch.setattr(codes, "rref_ix", scalar)
    with pytest.raises(RuntimeError):       # rank_ix goes through rref_ix
        codes.rank_ix([[1]], F)
    for fam in fams:
        assert len(fam.members()) == fam.count()
    assert np.array_equal(enumerate_ML_invertible(L, F.p, F).ab, ml.ab)


@pytest.mark.parametrize("make", [
    lambda F: AdditivePowerFamily(CartesianSet([additive_component(F, [F.one])])).members(),
    lambda F: MixedGeneralFamily(CartesianSet([full_component(F)])).members(),
    lambda F: enumerate_ML_invertible(MonomialSet(1, [(0,), (1,)]), F.p, F),
], ids=["additive-power", "mixed-general", "ml"])
def test_rank_filtered_members_need_tables(make):
    F = GF(2 * TABLE_LIMIT)
    with pytest.raises(FieldError, match=f"at most {TABLE_LIMIT} elements, not GF\\({F.q}\\)"):
        make(F)


@pytest.mark.parametrize("cls", [MultProductFamily, MixedGeneralFamily])
def test_subgroup_products_need_no_tables(cls):
    # with no full component there is no linear part to filter
    F = GF(2 * TABLE_LIMIT)
    fam = cls(CartesianSet([torus_component(F)]))
    assert len(fam.members()) == fam.count() == F.q - 1


def test_hetero_candidates_match_scalar_reference():
    F = GF(16)
    a = F.primitive_element()
    pat = AdditiveHeteroPattern(CartesianSet([additive_component(F, [F.one, a]),
                                              additive_component(F, [a ** 6, a ** 11])]))
    want = list(ref.hetero_candidates(pat))
    same_maps(pat.candidates(), want, 2)
    with pytest.raises(BudgetExceeded):
        pat.candidates(budget=len(want) - 1)


# ---------------------------------------------------------------------------
# no objects on the way to a report

@pytest.fixture
def built(monkeypatch):
    """Counts every AffineTransformation built, by __init__ or by of_ix."""
    out = []
    init = AffineTransformation.__init__
    of_ix = AffineTransformation.of_ix.__func__

    def counted(self, *args, **kwargs):
        out.append(1)
        init(self, *args, **kwargs)

    def counted_of_ix(cls, *args, **kwargs):
        out.append(1)
        return of_ix(cls, *args, **kwargs)

    monkeypatch.setattr(AffineTransformation, "__init__", counted)
    monkeypatch.setattr(AffineTransformation, "of_ix", classmethod(counted_of_ix))
    return out


class WrongFamily(AdditivePowerFamily):
    """The GF(4)^2 family with two non-stabilizers put in: a singular map of
    high key at position 10, the zero map (lowest key) at position 20."""

    kind = "wrong"

    def members(self, budget=None):
        ab = super().members(budget).ab
        bad = np.array([[[3, 3, 3], [3, 3, 3]], [[0, 0, 0], [0, 0, 0]]], np.uint16)
        return AffineMaps(self.F, np.insert(ab, [10, 20], bad, axis=0))


def test_verify_characterization_builds_no_objects(built):
    F = GF(4)
    S = CartesianSet([full_component(F)] * 2)
    stabs = oracle_stabilizers(S)
    for stabilizers in (stabs, None):
        rep = verify_characterization(AdditivePowerFamily(S), S, stabilizers=stabilizers)
        assert (rep.relation, rep.oracle_count, rep.family_count) == ("equal", 2880, 2880)
        assert len(built) == 0
    rep = verify_characterization(WrongFamily(S), S, stabilizers=stabs)
    assert rep.relation == "violation" and rep.family_count == 2882
    assert len(built) == 1      # the one counterexample
    # the first family-only map in family order, not in key order
    first = AffineTransformation(F, [[3, 3], [3, 3]], [3, 3])
    assert rep.counterexamples == [{"T": first.to_json(), "reason": "family-only"}]
