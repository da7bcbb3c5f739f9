"""Batch front end: load a run configuration, compute closures, graphs, and
families, run the exhaustive verifier, and reproduce the five built-in
worked examples.  All reports are machine-readable JSON plus a short human
summary on stdout; re-running a config reproduces every report byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import pathlib
import sys
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .affine import AffineTransformation, membership_report, stabilizes_set
from .families import (
    AdditiveHeteroPattern, AdditivePowerFamily, BorelClaimedFamily,
    MixedFullTorusFamily, MixedGeneralFamily, MultProductFamily, describe,
    set_shape,
)
from .field import TABLE_LIMIT, Field, FieldError, GF, is_prime
from .monomials import (
    MonomialSet, borel_property_witness, divisibility_closure,
    is_decreasing, p_borel_graph,
)
from .oracle import (
    AffineMaps, BudgetExceeded, group_axioms_report, keeps_span,
    oracle_affine_perm_group, oracle_stabilizers, reduced_pullbacks,
    two_route_agreement, verify_characterization,
)
from .points import (
    ADD, FULL, MULT, CartesianSet, additive_component, classify_subset,
    explicit_component, full_component, mult_component, stabilizer_subfield,
    transporter_space,
)
from .poly import Polynomial, evaluate_on_set, substitute_affine

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config loading

def _int(value, path, bound=None):
    if type(value) is not int or not (bound is None or 0 <= value < bound):
        want = ("an integer" if bound is None else f"an integer in 0..{bound - 1}" if bound
                else "an integer in an empty range (bound 0)")
        raise ConfigError(f"{path}: expected {want}, got {value!r}")
    return value


def _budget(value):
    if value is not None and (type(value) is not int or value < 0):
        raise ConfigError(f"budget: expected a nonnegative integer, got {value!r}")
    return value


def _list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return value


def _ints(value, path, bound=None):
    return [_int(x, f"{path}[{i}]", bound) for i, x in enumerate(_list(value, path))]


def _exponents(value, path, bound):
    """An exponent vector with its j-th entry in 0..bound[j] - 1."""
    u = _list(value, path)
    if len(u) != len(bound):
        raise ConfigError(f"{path}: expected {len(bound)} exponents, got {len(u)}")
    return tuple(_int(e, f"{path}[{j}]", n) for j, (e, n) in enumerate(zip(u, bound)))


def _elements(F: Field, value, path):
    """Field elements, each given as its index in 0..q-1 or as a coordinate
    vector with entries in 0..p-1."""
    return [F(_int(x, f"{path}[{i}]", F.q) if type(x) is int
              else _ints(x, f"{path}[{i}]", F.p))
            for i, x in enumerate(_list(value, path))]


def load_field(obj) -> Field:
    if not isinstance(obj, dict):
        raise ConfigError("field: expected an object")
    try:
        if "q" in obj:
            extra = [key for key in ("p", "k", "irreducible") if key in obj]
            if extra:
                raise ConfigError(f"field: q cannot be given with {', '.join(extra)}")
            return GF(_int(obj["q"], "field.q"))
        p = _int(obj["p"], "field.p")
        irreducible = obj.get("irreducible")
        if irreducible is not None:
            irreducible = _ints(irreducible, "field.irreducible", bound=p)
        return Field(p, _int(obj.get("k", 1), "field.k"), irreducible)
    except KeyError as e:
        raise ConfigError(f"field: missing key {e}") from e
    except FieldError as e:
        raise ConfigError(f"field: {e}") from e


def load_set(F: Field, obj) -> CartesianSet:
    if not isinstance(obj, dict) or "components" not in obj:
        raise ConfigError("set: expected an object with a components list")
    comps = []
    for pos, c in enumerate(_list(obj["components"], "set.components")):
        path = f"set.components[{pos}]"
        if not isinstance(c, dict):
            raise ConfigError(f"{path}: expected an object, got {c!r}")
        kind = c.get("kind")
        try:
            if kind == "full":
                comps.append(full_component(F))
            elif kind == "mult":
                comps.append(mult_component(F, _int(c["order"], f"{path}.order")))
            elif kind == "add":
                comps.append(additive_component(
                    F, _elements(F, c["basis"], f"{path}.basis")))
            elif kind == "explicit":
                comps.append(explicit_component(
                    F, _elements(F, c["elements"], f"{path}.elements")))
            else:
                raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
        except KeyError as e:
            raise ConfigError(f"{path}: missing key {e}") from e
        except FieldError as e:
            raise ConfigError(f"{path}: {e}") from e
    if not comps:
        raise ConfigError("set.components: empty")
    return CartesianSet(comps)


def load_monomials(obj, S: CartesianSet) -> MonomialSet:
    if not isinstance(obj, dict):
        raise ConfigError("monomials: expected an object")
    bound = S.sizes
    if "bound" in obj:
        bound = _exponents(obj["bound"], "monomials.bound", [n + 1 for n in S.sizes])
    key = "generators" if "generators" in obj else "monomials"
    if key not in obj:
        raise ConfigError("monomials: missing key 'generators' or 'monomials'")
    monos = [_exponents(u, f"monomials.{key}[{i}]", bound)
             for i, u in enumerate(_list(obj[key], f"monomials.{key}"))]
    L = MonomialSet(S.m, monos, bound)
    return divisibility_closure(L) if key == "generators" else L


def load_monomial_file(obj, p=None):
    """The monomial set and the prime of a ``graph`` file; p, when given,
    overrides the file's "p" key."""
    if not isinstance(obj, dict) or "monomials" not in obj:
        raise ConfigError("graph: expected an object with a monomials list")
    monos = [tuple(_ints(u, f"monomials[{i}]"))
             for i, u in enumerate(_list(obj["monomials"], "monomials"))]
    bound = _ints(obj["bound"], "bound") if "bound" in obj else None
    if p is None:
        if "p" not in obj:
            raise ConfigError("graph: needs --p or a 'p' key in the file")
        p = _int(obj["p"], "p")
    if not is_prime(p):
        raise ConfigError(f"p: {p} is not a prime")
    m = len(monos[0]) if monos else len(bound or ())
    try:
        return MonomialSet(m, monos, bound), p
    except ValueError as e:
        raise ConfigError(f"monomials: {e}") from e


def detect_family(S: CartesianSet):
    """The characterized stabilizer family matching the set's shape, if any."""
    if all(c.kind == MULT for c in S.components):
        cls = MultProductFamily
    else:
        cls = {"additive-power": AdditivePowerFamily,
               "full-torus": MixedFullTorusFamily,
               "full-subgroups": MixedGeneralFamily}.get(set_shape(S))
    try:
        return cls(S) if cls else None
    except FieldError:
        return None


# ---------------------------------------------------------------------------
# tasks

def task_classify(F, S, L, budget):
    comps = []
    for c in S.components:
        detected = classify_subset(F, c.elements)
        entry = {"n": c.n, "kind": detected.kind}
        if detected.kind == MULT:
            entry["order"] = detected.order
        if detected.kind == ADD:
            entry["basis"] = [list(b.coeffs) for b in detected.basis]
            entry["stabilizer_subfield_degree"] = stabilizer_subfield(detected)
        comps.append(entry)
    return {"components": comps}, True


def task_closures(F, S, L, budget):
    closure = divisibility_closure(L)
    witness = borel_property_witness(closure)
    report = {
        "input_size": len(L),
        "closure_size": len(closure),
        "is_decreasing": is_decreasing(L),
        "closure": closure.to_json(),
        "has_borel_property": witness is None,
    }
    if witness is not None:
        report["borel_witness"] = {"member": list(witness[0]),
                                   "missing_movement": list(witness[1])}
    return report, True


def task_graph(F, S, L, budget):
    return p_borel_graph(L, F.p).to_json(), True


def task_families(F, S, L, budget):
    report = {}
    fam = detect_family(S)
    if fam is not None:
        report["stabilizer_family"] = describe(fam)
    if all(c.kind in (ADD, FULL) for c in S.components):
        pat = AdditiveHeteroPattern(S, budget)
        report["entry_constraints"] = {
            "table": pat.table_json(),
            "candidate_count": pat.candidate_count(),
            "necessary_only": True,
        }
    if L is not None:
        try:
            claimed = BorelClaimedFamily(S, L)
            report["claimed_subgroup"] = {"shape": claimed.shape,
                                          "count": claimed.count()}
        except (FieldError, ValueError):
            pass
    return report, True


def task_oracle_verify(F, S, L, budget):
    report = {}
    ok = True
    stabs = oracle_stabilizers(S, budget=budget)
    report["stabilizer_count"] = len(stabs)

    fam = detect_family(S)
    if fam is not None:
        rep = verify_characterization(fam, S, budget, label=fam.kind,
                                      stabilizers=stabs)
        report["characterization"] = rep.to_json()
        ok = rep.ok

    if L is not None:
        group = oracle_affine_perm_group(L, S, stabilizers=stabs)
        axioms = group_axioms_report(F, group)
        agree, disagreements = two_route_agreement(L, S, stabs)
        report["affine_permutation_group"] = {
            "size": len(group),
            "group_axioms": axioms,
            "two_route_agreement": agree,
            "disagreements": disagreements[:5],
        }
        if len(group) <= 512:
            report["affine_permutation_group"]["members"] = group.to_json()
        ok = ok and agree and axioms["has_identity"] \
            and axioms["closed_under_inverse"] and axioms["closed_under_composition"]
        try:
            claimed = BorelClaimedFamily(S, L)
        except (FieldError, ValueError):
            claimed = None
        if claimed is not None:
            # the tracer of bench/spans.py hands members() on as a stream
            members = AffineMaps.packed(F, claimed.members(budget), S.m)
            inside = group.holds(members)
            counterexamples = [membership_report(members[t], L, S)
                               for t in np.flatnonzero(~inside)[:3]]
            report["claimed_subgroup"] = {
                "claimed_count": claimed.count(),
                "verified_count": int(inside.sum()),
                "oracle_count": len(group),
                "gap": len(group) - claimed.count(),
                "counterexamples": counterexamples,
            }
            ok = ok and not counterexamples
    return report, ok


def task_examples(F, S, L, budget):
    results = [ex() for ex in (example_shear, example_gf9_quartics,
                               example_transporter_table, example_scaled_line,
                               example_additive_triple)]
    ok = all(a["status"] == "pass"
             for r in results for a in r["assertions"])
    return {"examples": results}, ok


# ---------------------------------------------------------------------------
# the five built-in worked examples

def _assert(assertions, name, condition, detail=None):
    entry = {"name": name, "status": "pass" if condition else "fail"}
    if detail is not None:
        entry["detail"] = detail
    assertions.append(entry)
    return condition


def example_shear():
    """Shear on a torus-times-pair set: pullback works, stabilization fails."""
    F = GF(3)
    S = CartesianSet([mult_component(F, 2), explicit_component(F, [F(0), F(1)])])
    out = {"name": "shear-counterexample", "assertions": [], "discrepancies": []}
    a = out["assertions"]
    f = Polynomial(F, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 1})
    T = AffineTransformation(F, [[1, 0], [1, 1]])
    g = T.of_poly(f)
    fv, gv = (tuple(x.ix for x in evaluate_on_set(h, S)) for h in (f, g))
    _assert(a, "point-order", S.points_ix() == ((1, 0), (1, 1), (2, 0), (2, 1)))
    _assert(a, "codeword", fv == (0, 1, 2, 0))
    _assert(a, "pullback", g == Polynomial(F, 2, {(0, 1): 1, (0, 0): 1}))
    _assert(a, "pullback-codeword", gv == (1, 2, 1, 2))
    _assert(a, "weights-differ", sum(map(bool, fv)) != sum(map(bool, gv)))
    _assert(a, "does-not-stabilize", not stabilizes_set(T, S))
    return out


def gf9_lower_triangular():
    """The 576 maps x -> Ax with A = [[a, 0], [b, c]] over GF(9), a and c
    nonzero, in the order of (a, b, c) counted with c fastest."""
    F = GF(9)
    a, b, c = (g.ravel() for g in np.meshgrid(np.arange(1, 9), np.arange(9),
                                              np.arange(1, 9), indexing="ij"))
    ab = np.zeros((len(a), 2, 3), dtype=np.uint16)
    ab[:, 0, 0], ab[:, 1, 0], ab[:, 1, 1] = a, b, c
    return AffineMaps(F, ab)


def example_gf9_quartics():
    """Lower-triangular pullbacks of the quartic members over GF(9)."""
    F = GF(9)
    S = CartesianSet([full_component(F), full_component(F)])
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    quartics = [(0, 4), (1, 3), (3, 1), (4, 0)]
    L = MonomialSet(2, monos + quartics, bound=S.sizes)
    out = {"name": "gf9-quartic-pullbacks", "assertions": [], "discrepancies": []}
    asr = out["assertions"]
    wit = borel_property_witness(L)
    _assert(asr, "borel-property-fails", wit is not None and wit[1] == (2, 2),
            {"witness": [list(wit[0]), list(wit[1])]} if wit else None)
    maps = gf9_lower_triangular()
    mul = F.np_tables().mul
    a, b, c = maps.ab[:, 0, 0], maps.ab[:, 1, 0], maps.ab[:, 1, 1]

    def prod(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = mul[acc, x]
        return acc

    # closed forms of the pullbacks of x2^4, x1 x2^3, x1^3 x2, x1^4 under
    # x1 -> a x1, x2 -> b x1 + c x2: (b x1 + c x2)^3 = b^3 x1^3 + c^3 x2^3
    want = np.zeros((len(maps), 4, 9, 9), dtype=np.uint16)
    want[:, 0, 4, 0], want[:, 0, 3, 1] = prod(b, b, b, b), prod(b, b, b, c)
    want[:, 0, 1, 3], want[:, 0, 0, 4] = prod(b, c, c, c), prod(c, c, c, c)
    want[:, 1, 4, 0], want[:, 1, 1, 3] = prod(a, b, b, b), prod(a, c, c, c)
    want[:, 2, 4, 0], want[:, 2, 3, 1] = prod(a, a, a, b), prod(a, a, a, c)
    want[:, 3, 4, 0] = prod(a, a, a, a)
    got = reduced_pullbacks(S, maps, quartics)
    count = len(maps)
    _assert(asr, "expansions-match", bool((got == want).all()), {"maps_checked": count})
    _assert(asr, "span-preserved-for-all", bool(keeps_span(L, S, maps).all()),
            {"maps_checked": count})
    return out


def _gf16_groups():
    F = GF(16)
    al = F.primitive_element()
    G1 = additive_component(F, [F.one, al, al * al])
    G2 = additive_component(F, [al ** 6, al ** 11])
    G3 = additive_component(F, [F.one])
    return F, al, G1, G2, G3


def example_transporter_table():
    """The nine entry-constraint spaces of the GF(16) additive triple."""
    F, al, G1, G2, G3 = _gf16_groups()
    out = {"name": "gf16-transporter-table", "assertions": [], "discrepancies": []}
    asr = out["assertions"]
    F4 = frozenset(F.subfield_elements(2))
    F2 = frozenset([F.zero, F.one])
    scale = lambda c, X: frozenset(c * x for x in X)
    expected = {
        (0, 0): F2, (0, 1): scale(al.inverse(), F4), (0, 2): frozenset(G1.elements),
        (1, 0): frozenset([F.zero]), (1, 1): F4, (1, 2): frozenset(G2.elements),
        (2, 0): frozenset([F.zero]), (2, 1): frozenset([F.zero]),
        (2, 2): frozenset(G3.elements),
    }
    comps = (G1, G2, G3)
    for (i, j), want in sorted(expected.items()):
        got = transporter_space(comps[i], comps[j])
        _assert(asr, f"entry-{i + 1}{j + 1}", got == want,
                {"size": len(got)})
    return out


def example_scaled_line():
    """The scaled subfield line in GF(16): classification, stabilizer
    subfield, and the 12 affine bijections."""
    F, al, _, G2, _ = _gf16_groups()
    out = {"name": "gf16-scaled-line", "assertions": [], "discrepancies": []}
    asr = out["assertions"]
    got = classify_subset(F, [F.zero, al ** 6, al ** 11, al ** 6 + al ** 11])
    _assert(asr, "classified-additive", got.kind == ADD and len(got.basis) == 2)
    line = frozenset((al * x).ix for x in F.subfield_elements(2))
    _assert(asr, "equals-scaled-subfield", got.element_set() == line)
    _assert(asr, "stabilizer-subfield", stabilizer_subfield(got) == 2)
    S = CartesianSet([got])
    stabs = oracle_stabilizers(S)
    fam = AdditivePowerFamily(S)
    _assert(asr, "twelve-maps", len(stabs) == 12 and fam.count() == 12)
    members = AffineMaps.packed(F, fam.members(), S.m)
    _assert(asr, "family-equals-oracle",
            stabs.holds(members).all() and members.holds(stabs).all())
    return out


def example_additive_triple():
    """The additive-product code in GF(16): mixing entries are forced to
    zero and the affine permutation group is translations times the scalar
    stabilizer of the middle line."""
    F, al, G1, G2, G3 = _gf16_groups()
    S = CartesianSet([G1, G2, G3])
    L = divisibility_closure(MonomialSet(3, [(2, 0, 0), (1, 1, 0)], bound=S.sizes))
    out = {"name": "gf16-additive-triple", "assertions": [], "discrepancies": []}
    asr = out["assertions"]

    # corrected quadratic expansion: squaring is additive in characteristic 2
    exp_ok = True
    x1sq = Polynomial.monomial(F, (2, 0, 0))
    for av in (F.one, al, al ** 7):
        for bv in (F.zero, F.one, al ** 3):
            for cv in (F.zero, al, al ** 9):
                A = [[av, bv, cv], [F.zero, F.one, F.zero], [F.zero, F.zero, F.one]]
                got = substitute_affine(x1sq, A, [F.zero] * 3)
                want = Polynomial(F, 3, {(2, 0, 0): av * av, (0, 2, 0): bv * bv,
                                         (0, 0, 2): cv * cv})
                if got != want:
                    exp_ok = False
    _assert(asr, "corrected-square-expansion", exp_ok)
    out["discrepancies"].append(
        "the reference cubic pullback display is inconsistent with "
        "characteristic-2 arithmetic (and its monomial is outside the set); "
        "the quadratic member forces the same zero pattern and is asserted "
        "instead")

    mixing = [AffineTransformation(F, [[1, b, c], [0, 1, e], [0, 0, 1]])
              for b, c, e in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 9, 0), (0, 2, 12)]]
    mixing_ok = not keeps_span(L, S, mixing).any()
    _assert(asr, "mixing-entries-forced-zero", mixing_ok)

    group = oracle_affine_perm_group(L, S)
    translation = (group.ab[:, :, :3] == np.eye(3, dtype=np.uint16)).all(axis=(1, 2))
    b = [tuple(v) for v in group.ab[:, :, 3].tolist()]
    _assert(asr, "all-translations-present",
            len({v for v, t in zip(b, translation) if t}) == 64 and set(b) <= set(S.points_ix()))
    # both list each map once: equal sets when one holds the other
    f4_star = [x.ix for x in F.subfield_elements(2) if x]
    # diag(1, d, 1) for each d outermost, then each point of S as the offset
    derived = np.zeros((len(f4_star), S.n, 3, 4), np.uint16)
    derived[..., range(3), range(3)] = np.array([[1, d, 1] for d in f4_star], np.uint16)[:, None]
    derived[..., 3] = S.points_ix()
    derived = AffineMaps(F, derived.reshape(-1, 3, 4))
    _assert(asr, "group-is-translations-times-line-scalars",
            len(group) == len(derived) and group.holds(derived).all(),
            {"group_size": len(group)})
    if len(group) != 64:
        out["discrepancies"].append(
            "the reference claim that only the 64 translations remain "
            f"undercounts: exhaustive search finds {len(group)} affine "
            "permutations, the translations composed with diag(1, d, 1) for "
            "the three nonzero scalars d fixing the middle line")
    axioms = group_axioms_report(F, group)
    _assert(asr, "group-axioms", axioms["has_identity"]
            and axioms["closed_under_inverse"] and axioms["closed_under_composition"])
    return out


# ---------------------------------------------------------------------------
# driver

TASK_FUNCS = {
    "classify": task_classify,
    "closures": task_closures,
    "p-borel-graph": task_graph,
    "families": task_families,
    "oracle-verify": task_oracle_verify,
    "examples": task_examples,
}


_INF = float("inf")


def _scalar_text(x):
    """The JSON text of a number, a bool or None, and a str as it is: how
    json writes a dict key before escaping it."""
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        if x != x:
            return "NaN"
        return "Infinity" if x == _INF else "-Infinity" if x == -_INF else float.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(x).__name__}")


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for the
    plain report types (dict, list, tuple, str, int, float, bool, None),
    without json's pure-Python indenting encoder: strings go through its C
    escaper, dict items are sorted by their original keys, and whatever json
    rejects is a TypeError.  Items of exact type int or str are written
    inline, without a call."""
    out = []
    put = out.append

    def write(o, indent):
        if isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = indent + "  "
            lead, sep = "[" + inner, "," + inner
            for v in o:
                t = type(v)
                if t is int:
                    put(lead + int.__repr__(v))
                elif t is str:
                    put(lead + _escape(v))
                else:
                    put(lead)
                    write(v, inner)
                lead = sep
            put(indent + "]")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = indent + "  "
            lead, sep = "{" + inner, "," + inner
            for k, v in sorted(o.items()):
                lead += _escape(_scalar_text(k)) + ": "
                t = type(v)
                if t is int:
                    put(lead + int.__repr__(v))
                elif t is str:
                    put(lead + _escape(v))
                else:
                    put(lead)
                    write(v, inner)
                lead = sep
            put(indent + "}")
        elif isinstance(o, str):
            put(_escape(o))
        elif isinstance(o, (int, float)) or o is None:   # a bool is an int
            put(_scalar_text(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, "\n")
    return "".join(out)


def _dump(path: pathlib.Path, obj):
    path.write_text(json_text(obj) + "\n")


def run_config(cfg, out_dir, budget=None):
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    tasks = cfg.get("tasks")
    if not tasks or not isinstance(tasks, list):
        raise ConfigError("tasks: must be a nonempty list")
    for t in tasks:
        if not isinstance(t, str) or t not in TASK_FUNCS:
            raise ConfigError(f"tasks: unknown task {t!r} (known: {', '.join(TASK_FUNCS)})")
    needs_setup = [t for t in tasks if t != "examples"]
    F = S = L = None
    if needs_setup:
        F = load_field(cfg.get("field", {}))
        if "oracle-verify" in tasks and F.q > TABLE_LIMIT:
            raise ConfigError(f"field: oracle-verify scans fields of at most "
                              f"{TABLE_LIMIT} elements, not GF({F.q})")
        S = load_set(F, cfg.get("set", {}))
        if "monomials" in cfg:
            L = load_monomials(cfg["monomials"], S)
        for t in tasks:
            if t in ("closures", "p-borel-graph") and L is None:
                raise ConfigError(f"monomials: missing, but task {t!r} needs them")
    # an explicit budget (the --budget flag) wins over the config's
    cfg_budget = _budget(cfg.get("budget"))
    budget = cfg_budget if budget is None else _budget(budget)
    out_dir = pathlib.Path(out_dir)
    all_ok = True
    lines = []
    for t in tasks:
        report, ok = TASK_FUNCS[t](F, S, L, budget)
        if not lines:   # the first report: no directory for a config that fails before it
            out_dir.mkdir(parents=True, exist_ok=True)
        _dump(out_dir / f"{t}.json", report)
        all_ok = all_ok and ok
        lines.append(f"{t}: {'ok' if ok else 'FAIL'} -> {out_dir / (t + '.json')}")
    return (EXIT_OK if all_ok else EXIT_VERIFICATION), lines


@functools.cache
def _parser():
    """The argument parser, built once per process on the first main();
    parse_args leaves it as it was, so no argument of one call reaches the
    next."""
    ap = argparse.ArgumentParser(
        prog="cartperm",
        description="Monomial Cartesian codes: affine permutation toolkit")
    ap.add_argument("--budget", type=int, default=None,
                    help="cap on enumerated candidates, each checked before its "
                         "pass: the stabilizer search's q^(m+1) rows and the "
                         "candidates of each of its row-prefix steps (verify "
                         "and group list the stabilizers), and each family's "
                         "members (exit 3 when exceeded); it overrides a config's "
                         "\"budget\", and the built-in examples ignore it")
    ap.add_argument("--out", default="cartperm-reports", help="report directory")
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; ignored")
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the tasks of a config file")
    p_verify.add_argument("config", type=pathlib.Path)

    sub.add_parser("examples", help="reproduce the five worked examples")

    p_graph = sub.add_parser("graph", help="p-Borel graph of a monomial set file")
    p_graph.add_argument("monomials", type=pathlib.Path)
    p_graph.add_argument("--p", type=int, default=None, help="characteristic")

    p_group = sub.add_parser("group", help="affine permutation group of a config")
    p_group.add_argument("config", type=pathlib.Path)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _read_json(args.config)
            code, lines = run_config(cfg, args.out, args.budget)
            print("\n".join(lines))
            return code

        if args.command == "examples":
            report, ok = task_examples(None, None, None, _budget(args.budget))
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            _dump(out / "examples.json", report)
            for ex in report["examples"]:
                for a in ex["assertions"]:
                    print(f"{ex['name']}: {a['name']}: {a['status'].upper()}")
                for d in ex["discrepancies"]:
                    print(f"{ex['name']}: note: {d}")
            return EXIT_OK if ok else EXIT_VERIFICATION

        if args.command == "graph":
            L, p = load_monomial_file(_read_json(args.monomials), args.p)
            report = p_borel_graph(L, p).to_json()
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            _dump(out / "graph.json", report)
            print(json_text(report))
            return EXIT_OK

        if args.command == "group":
            cfg = _read_json(args.config)
            if isinstance(cfg, dict):   # run_config rejects anything else
                cfg = {**cfg, "tasks": ["oracle-verify"]}
            code, lines = run_config(cfg, args.out, args.budget)
            print("\n".join(lines))
            return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_CONFIG


def _read_json(path: pathlib.Path):
    try:
        return json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        # JSONDecodeError, or UnicodeDecodeError for bytes that are no UTF-8
        raise ConfigError(f"{path}: invalid JSON ({e})") from e


if __name__ == "__main__":
    sys.exit(main())
