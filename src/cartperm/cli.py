"""Batch front end: load a run configuration, compute closures, graphs, and
families, run the exhaustive verifier, and reproduce the five built-in
worked examples.  All reports are machine-readable JSON plus a short human
summary on stdout; re-running a config reproduces every report byte for byte.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .affine import (
    AffineTransformation, SpanChecker, membership_report, stabilizes_set,
)
from .families import (
    AdditiveHeteroPattern, AdditivePowerFamily, BorelClaimedFamily,
    BudgetExceeded, MixedFullTorusFamily, MixedGeneralFamily,
    MultProductFamily, describe, set_shape,
)
from .field import Field, FieldError, GF
from .monomials import (
    MonomialSet, borel_property_witness, divisibility_closure,
    has_borel_property, is_decreasing, p_borel_graph,
)
from .oracle import (
    affine_space_size, group_axioms_report, oracle_affine_perm_group,
    oracle_stabilizers, two_route_agreement, verify_characterization,
)
from .points import (
    ADD, FULL, MULT, CartesianSet, additive_component, classify_subset,
    explicit_component, full_component, mult_component, stabilizer_subfield,
    transporter_space,
)
from .poly import Polynomial, substitute_affine

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

TASKS = ("classify", "closures", "p-borel-graph", "families", "oracle-verify",
         "examples")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config loading

def _int(value, path):
    if type(value) is not int:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return value


def _ints(value, path):
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(_list(value, path))]


def _elements(F: Field, value, path):
    """Field elements, each given as its index or as a coordinate vector."""
    return [F(x if type(x) is int else _ints(x, f"{path}[{i}]"))
            for i, x in enumerate(_list(value, path))]


def load_field(obj) -> Field:
    if not isinstance(obj, dict):
        raise ConfigError("field: expected an object")
    try:
        if "q" in obj:
            return GF(_int(obj["q"], "field.q"))
        irreducible = obj.get("irreducible")
        if irreducible is not None:
            irreducible = _ints(irreducible, "field.irreducible")
        return Field(_int(obj["p"], "field.p"), _int(obj.get("k", 1), "field.k"),
                     irreducible)
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
        except (KeyError, FieldError) as e:
            raise ConfigError(f"{path}: {e}") from e
    if not comps:
        raise ConfigError("set.components: empty")
    return CartesianSet(comps)


def load_monomials(obj, S: CartesianSet) -> MonomialSet:
    if not isinstance(obj, dict):
        raise ConfigError("monomials: expected an object")
    bound = _ints(obj["bound"], "monomials.bound") if "bound" in obj else S.sizes
    key = "generators" if "generators" in obj else "monomials"
    if key not in obj:
        raise ConfigError("monomials: missing key 'monomials'")
    monos = [tuple(_ints(u, f"monomials.{key}[{i}]"))
             for i, u in enumerate(_list(obj[key], f"monomials.{key}"))]
    try:
        L = MonomialSet(S.m, monos, bound)
    except ValueError as e:
        raise ConfigError(f"monomials: {e}") from e
    return divisibility_closure(L) if key == "generators" else L


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

def task_classify(F, S, L, budget, seed, jobs):
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


def task_closures(F, S, L, budget, seed, jobs):
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


def task_graph(F, S, L, budget, seed, jobs):
    return p_borel_graph(L, F.p).to_json(), True


def task_families(F, S, L, budget, seed, jobs):
    report = {}
    fam = detect_family(S)
    if fam is not None:
        report["stabilizer_family"] = describe(fam)
    if all(c.kind in (ADD, FULL) for c in S.components):
        pat = AdditiveHeteroPattern(S)
        report["entry_constraints"] = {
            "table": pat.table_json(),
            "candidate_count": pat.candidate_count(),
            "necessary_only": True,
        }
    if L is not None and has_borel_property(divisibility_closure(L)):
        try:
            claimed = BorelClaimedFamily(S, divisibility_closure(L))
            report["claimed_subgroup"] = {"shape": claimed.shape,
                                          "count": claimed.count()}
        except (FieldError, ValueError):
            pass
    return report, True


def task_oracle_verify(F, S, L, budget, seed, jobs):
    report = {}
    ok = True
    candidates = None
    if all(c.kind in (ADD, FULL) for c in S.components):
        pat = AdditiveHeteroPattern(S)
        if pat.candidate_count() < affine_space_size(S.field, S.m):
            candidates = pat.candidates(budget)
    stabs = oracle_stabilizers(S, budget=budget, candidates=candidates)
    report["stabilizer_count"] = len(stabs)

    fam = detect_family(S)
    if fam is not None:
        rep = verify_characterization(fam, S, budget, label=fam.kind,
                                      stabilizers=stabs)
        report["characterization"] = rep.to_json()
        ok = rep.ok

    if L is not None:
        group = oracle_affine_perm_group(L, S, stabilizers=stabs)
        axioms = group_axioms_report(F, group, seed=seed)
        agree, disagreements = two_route_agreement(L, S, stabs)
        report["affine_permutation_group"] = {
            "size": len(group),
            "group_axioms": axioms,
            "two_route_agreement": agree,
            "disagreements": disagreements[:5],
        }
        if len(group) <= 512:
            report["affine_permutation_group"]["members"] = \
                [T.to_json() for T in group]
        ok = ok and agree and axioms["has_identity"] \
            and axioms["closed_under_inverse"] and axioms["closed_under_composition"]
        if has_borel_property(L):
            try:
                claimed = BorelClaimedFamily(S, L)
            except (FieldError, ValueError):
                claimed = None
            if claimed is not None:
                gkeys = {(T.A, T.b) for T in group}
                verified = 0
                counterexamples = []
                for T in claimed.members(budget):
                    if (T.A, T.b) in gkeys:
                        verified += 1
                    elif len(counterexamples) < 3:
                        counterexamples.append(membership_report(T, L, S))
                report["claimed_subgroup"] = {
                    "claimed_count": claimed.count(),
                    "verified_count": verified,
                    "oracle_count": len(group),
                    "gap": len(group) - claimed.count(),
                    "counterexamples": counterexamples,
                }
                ok = ok and not counterexamples
    return report, ok


def task_examples(F, S, L, budget, seed, jobs):
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
    _assert(a, "point-order", S.points_ix() == ((1, 0), (1, 1), (2, 0), (2, 1)))
    _assert(a, "codeword", tuple(x.ix for x in _evals(f, S)) == (0, 1, 2, 0))
    g = T.of_poly(f)
    _assert(a, "pullback", g == Polynomial(F, 2, {(0, 1): 1, (0, 0): 1}))
    _assert(a, "pullback-codeword", tuple(x.ix for x in _evals(g, S)) == (1, 2, 1, 2))
    _assert(a, "weights-differ",
            sum(1 for x in _evals(f, S) if x) != sum(1 for x in _evals(g, S) if x))
    _assert(a, "does-not-stabilize", not stabilizes_set(T, S))
    return out


def _evals(f, S):
    from .poly import evaluate_on_set
    return evaluate_on_set(f, S)


def example_gf9_quartics():
    """Lower-triangular pullbacks of the quartic members over GF(9)."""
    import itertools
    F = GF(9)
    S = CartesianSet([full_component(F), full_component(F)])
    monos = [u for u in itertools.product(range(9), repeat=2) if sum(u) <= 3]
    monos += [(0, 4), (1, 3), (3, 1), (4, 0)]
    L = MonomialSet(2, monos, bound=S.sizes)
    out = {"name": "gf9-quartic-pullbacks", "assertions": [], "discrepancies": []}
    asr = out["assertions"]
    wit = borel_property_witness(L)
    _assert(asr, "borel-property-fails", wit is not None and wit[1] == (2, 2),
            {"witness": [list(wit[0]), list(wit[1])]} if wit else None)
    checker = SpanChecker(L, S)
    expansions_ok = True
    span_ok = True
    count = 0
    for av in range(1, 9):
        for bv in range(9):
            for cv in range(1, 9):
                count += 1
                A = [[F(av), F.zero], [F(bv), F(cv)]]
                a_, b_, c_ = F(av), F(bv), F(cv)
                expect = {
                    (0, 4): Polynomial(F, 2, {(4, 0): b_ ** 4, (3, 1): b_ ** 3 * c_,
                                              (1, 3): b_ * c_ ** 3, (0, 4): c_ ** 4}),
                    (1, 3): Polynomial(F, 2, {(4, 0): a_ * b_ ** 3,
                                              (1, 3): a_ * c_ ** 3}),
                    (3, 1): Polynomial(F, 2, {(4, 0): a_ ** 3 * b_,
                                              (3, 1): a_ ** 3 * c_}),
                    (4, 0): Polynomial(F, 2, {(4, 0): a_ ** 4}),
                }
                for u, want in expect.items():
                    got = substitute_affine(Polynomial.monomial(F, u), A,
                                            [F.zero, F.zero])
                    if got != want:
                        expansions_ok = False
                T = AffineTransformation(F, A)
                if not checker.check(T):
                    span_ok = False
    _assert(asr, "expansions-match", expansions_ok, {"maps_checked": count})
    _assert(asr, "span-preserved-for-all", span_ok, {"maps_checked": count})
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
    _assert(asr, "family-equals-oracle",
            {(T.A, T.b) for T in stabs} == {(T.A, T.b) for T in fam.members()})
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

    checker = SpanChecker(L, S)
    mixing_ok = True
    for b, c, e in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 9, 0), (0, 2, 12)]:
        if b == c == e == 0:
            continue
        T = AffineTransformation(F, [[1, b, c], [0, 1, e], [0, 0, 1]])
        if checker.check(T):
            mixing_ok = False
    _assert(asr, "mixing-entries-forced-zero", mixing_ok)

    pat = AdditiveHeteroPattern(S)
    stabs = oracle_stabilizers(S, candidates=pat.candidates())
    group = oracle_affine_perm_group(L, S, stabilizers=stabs)
    translations = {T.b for T in group if T.is_translation()}
    _assert(asr, "all-translations-present",
            len(translations) == 64 and all(
                all(T.b[i] in S.components[i].element_set() for i in range(3))
                for T in group))
    f4_star = {x.ix for x in F.subfield_elements(2) if x}
    derived = set()
    for d in sorted(f4_star):
        for b in S.points_ix():
            derived.add((((1, 0, 0), (0, d, 0), (0, 0, 1)), b))
    _assert(asr, "group-is-translations-times-line-scalars",
            {(T.A, T.b) for T in group} == derived,
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


def _dump(path: pathlib.Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def run_config(cfg, out_dir, budget=None, seed=0, jobs=1):
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    tasks = cfg.get("tasks")
    if not tasks or not isinstance(tasks, list):
        raise ConfigError("tasks: must be a nonempty list")
    for t in tasks:
        if not isinstance(t, str) or t not in TASK_FUNCS:
            raise ConfigError(f"tasks: unknown task {t!r} (known: {', '.join(TASKS)})")
    needs_setup = [t for t in tasks if t != "examples"]
    F = S = L = None
    if needs_setup:
        F = load_field(cfg.get("field", {}))
        S = load_set(F, cfg.get("set", {}))
        if "monomials" in cfg:
            L = load_monomials(cfg["monomials"], S)
    budget = cfg.get("budget", budget)
    if budget is not None:
        _int(budget, "budget")
    out_dir = pathlib.Path(out_dir)
    all_ok = True
    lines = []
    for t in tasks:
        report, ok = TASK_FUNCS[t](F, S, L, budget, seed, jobs)
        _dump(out_dir / f"{t}.json", report)
        all_ok = all_ok and ok
        lines.append(f"{t}: {'ok' if ok else 'FAIL'} -> {out_dir / (t + '.json')}")
    return (EXIT_OK if all_ok else EXIT_VERIFICATION), lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cartperm",
        description="Monomial Cartesian codes: affine permutation toolkit")
    ap.add_argument("--budget", type=int, default=None,
                    help="cap on enumerated candidates (error when exceeded)")
    ap.add_argument("--out", default="cartperm-reports", help="report directory")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for sampled checks")
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

    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = _read_json(args.config)
            code, lines = run_config(cfg, args.out, args.budget, args.seed, args.jobs)
            print("\n".join(lines))
            return code

        if args.command == "examples":
            report, ok = task_examples(None, None, None, args.budget, args.seed,
                                       args.jobs)
            _dump(pathlib.Path(args.out) / "examples.json", report)
            for ex in report["examples"]:
                for a in ex["assertions"]:
                    print(f"{ex['name']}: {a['name']}: {a['status'].upper()}")
                for d in ex["discrepancies"]:
                    print(f"{ex['name']}: note: {d}")
            return EXIT_OK if ok else EXIT_VERIFICATION

        if args.command == "graph":
            obj = _read_json(args.monomials)
            L = MonomialSet.from_json(obj)
            p = args.p or obj.get("p")
            if not p:
                raise ConfigError("graph: needs --p or a 'p' key in the file")
            g = p_borel_graph(L, p)
            _dump(pathlib.Path(args.out) / "graph.json", g.to_json())
            print(json.dumps(g.to_json(), indent=2, sort_keys=True))
            return EXIT_OK

        if args.command == "group":
            cfg = _read_json(args.config)
            cfg = dict(cfg)
            cfg["tasks"] = ["oracle-verify"]
            code, lines = run_config(cfg, args.out, args.budget, args.seed, args.jobs)
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
    except FileNotFoundError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e


if __name__ == "__main__":
    sys.exit(main())
