"""Monomial-set combinatorics: divisor closure, Borel movements, standard
p-Borel movements, the p-Borel graph, and the stable matrix pattern derived
from it.

Monomials are exponent tuples.  A MonomialSet may carry an exponent bound
(one more than the largest allowed degree per variable, i.e. the component
sizes of a Cartesian set); moves whose target leaves the box are discarded.
"""

from __future__ import annotations

import itertools

from .field import leq_p_values
from .poly import sorted_monomials


def divisors_of(u):
    return itertools.product(*[range(e + 1) for e in u])


class MonomialSet:
    """Finite set of monomials, optionally bounded by an exponent box."""

    __slots__ = ("m", "monomials", "bound", "_decreasing", "_borel")

    def __init__(self, m, monomials, bound=None):
        self.m = m
        self.monomials = frozenset(tuple(u) for u in monomials)
        for u in self.monomials:
            if len(u) != m or any(e < 0 for e in u):
                raise ValueError(f"bad monomial {u}")
        self.bound = tuple(bound) if bound is not None else None
        if self.bound is not None:
            if len(self.bound) != m:
                raise ValueError("bound arity mismatch")
            for u in self.monomials:
                if any(e >= n for e, n in zip(u, self.bound)):
                    raise ValueError(f"monomial {u} outside bound {self.bound}")
        self._decreasing = None
        self._borel = None

    def __contains__(self, u):
        return tuple(u) in self.monomials

    def __len__(self):
        return len(self.monomials)

    def __eq__(self, other):
        return (isinstance(other, MonomialSet) and self.m == other.m
                and self.monomials == other.monomials)

    def __hash__(self):
        return hash((self.m, self.monomials))

    def __iter__(self):
        return iter(self.sorted())

    def sorted(self):
        return sorted_monomials(self.monomials)

    def in_bound(self, u):
        return self.bound is None or all(e < n for e, n in zip(u, self.bound))

    def __repr__(self):
        return f"MonomialSet({self.sorted()})"

    def to_json(self):
        obj = {"monomials": [list(u) for u in self.sorted()]}
        if self.bound is not None:
            obj["bound"] = list(self.bound)
        return obj

    @staticmethod
    def from_json(obj) -> "MonomialSet":
        monos = [tuple(u) for u in obj["monomials"]]
        m = len(monos[0]) if monos else len(obj.get("bound", ()))
        return MonomialSet(m, monos, obj.get("bound"))


def divisibility_closure(L: MonomialSet) -> MonomialSet:
    out = set()
    for u in L.monomials:
        out.update(divisors_of(u))
    return MonomialSet(L.m, out, L.bound)


def divisor_closed(monomials) -> bool:
    """Whether a collection of exponent tuples holds every divisor of each
    member: each u - e_i with u_i > 0 is a member (then, by induction, so is
    every divisor)."""
    members = frozenset(monomials)
    return all(u[:i] + (e - 1,) + u[i + 1:] in members
               for u in members for i, e in enumerate(u) if e)


def is_decreasing(L: MonomialSet) -> bool:
    if L._decreasing is None:
        L._decreasing = divisor_closed(L.monomials)
    return L._decreasing


def borel_movements(u, bound=None):
    """Single Borel moves x_j/x_i * u for j < i; moves leaving the bound box
    are discarded."""
    out = set()
    for i in range(len(u)):
        if u[i]:
            for j in range(i):
                v = list(u)
                v[i] -= 1
                v[j] += 1
                v = tuple(v)
                if bound is None or all(e < n for e, n in zip(v, bound)):
                    out.add(v)
    return out


def has_borel_property(L: MonomialSet) -> bool:
    if L._borel is None:
        L._borel = borel_property_witness(L) is None
    return L._borel


def borel_property_witness(L: MonomialSet):
    """First missing Borel movement in graded-lex scan order, as a pair
    (member, movement), or None when the set is Borel-closed."""
    for u in L.sorted():
        for v in sorted_monomials(borel_movements(u, L.bound)):
            if v not in L.monomials:
                return (u, v)
    return None


def p_borel_movements(u, i, j, p, bound=None):
    """Standard p-Borel movements (x_j/x_i)^l * u for all l digitwise <= the
    degree of x_i in u (l = 0 included); requires x_i | u.  Moves leaving the
    bound box are discarded."""
    if i == j:
        raise ValueError("variable indices must differ")
    if not u[i]:
        raise ValueError(f"x_{i + 1} does not divide {u}")
    out = set()
    for ell in leq_p_values(u[i], p):
        v = list(u)
        v[i] -= ell
        v[j] += ell
        v = tuple(v)
        if bound is None or all(e < n for e, n in zip(v, bound)):
            out.add(v)
    return out


class PBorelGraph:
    """Directed graph on the m variables recording which p-Borel moves keep a
    monomial set inside itself."""

    __slots__ = ("m", "p", "edges", "witnesses")

    def __init__(self, m, p, edges, witnesses=None):
        self.m = m
        self.p = p
        self.edges = frozenset(edges)
        # for each absent edge, one (u, ell) violating pair
        self.witnesses = witnesses or {}

    def has_edge(self, i, j):
        return (i, j) in self.edges

    def __eq__(self, other):
        return (isinstance(other, PBorelGraph) and self.m == other.m
                and self.p == other.p and self.edges == other.edges)

    def __repr__(self):
        return f"PBorelGraph(m={self.m}, edges={sorted(self.edges)})"

    def to_json(self):
        adj = {str(i): sorted(j for (a, j) in self.edges if a == i)
               for i in range(self.m)}
        wit = {f"{i},{j}": {"monomial": list(u), "power": ell}
               for (i, j), (u, ell) in sorted(self.witnesses.items())}
        out = {"p": self.p, "m": self.m, "adjacency": adj}
        if wit:
            out["witness"] = wit
        return out


def p_borel_graph(L: MonomialSet, p: int) -> PBorelGraph:
    """Exact edge set by exhaustive check of every member and every admissible
    power; vacuously true when no member is divisible by the source variable."""
    edges = set()
    witnesses = {}
    for i in range(L.m):
        for j in range(L.m):
            if i == j:
                continue
            bad = None
            for u in L.sorted():
                if not u[i]:
                    continue
                for ell in leq_p_values(u[i], p):
                    v = list(u)
                    v[i] -= ell
                    v[j] += ell
                    v = tuple(v)
                    if not L.in_bound(v):
                        continue
                    if v not in L.monomials:
                        bad = (u, ell)
                        break
                if bad:
                    break
            if bad is None:
                edges.add((i, j))
            else:
                witnesses[(i, j)] = bad
    return PBorelGraph(L.m, p, edges, witnesses)


def valid_p_borel_reachable(L: MonomialSet, u, graph: PBorelGraph = None, p: int = None):
    """All monomials reachable from u by sequences of p-Borel moves along
    edges of the p-Borel graph of L; requires u in L."""
    u = tuple(u)
    if u not in L.monomials:
        raise ValueError(f"{u} is not a member of the set")
    if graph is None:
        if p is None:
            raise ValueError("need either a graph or a prime")
        graph = p_borel_graph(L, p)
    seen = {u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        for (i, j) in graph.edges:
            if w[i]:
                for v in p_borel_movements(w, i, j, graph.p, L.bound):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
    return seen


class StableMatrixPattern:
    """Boolean mask of matrix entries allowed to be nonzero: the diagonal plus
    every p-Borel graph edge."""

    __slots__ = ("m", "mask")

    def __init__(self, m, mask):
        self.m = m
        self.mask = tuple(tuple(bool(x) for x in row) for row in mask)
        if any(not self.mask[i][i] for i in range(m)):
            raise ValueError("diagonal must be allowed")

    def allows(self, i, j):
        return self.mask[i][j]

    def __eq__(self, other):
        return isinstance(other, StableMatrixPattern) and self.mask == other.mask

    def __repr__(self):
        return "StableMatrixPattern(" + ", ".join(
            "".join("1" if x else "0" for x in row) for row in self.mask) + ")"


def stable_pattern(L: MonomialSet, p: int) -> StableMatrixPattern:
    g = p_borel_graph(L, p)
    mask = [[i == j or g.has_edge(i, j) for j in range(L.m)] for i in range(L.m)]
    return StableMatrixPattern(L.m, mask)


# ---------------------------------------------------------------------------
# generated test corpora

def random_decreasing_set(rng, bound, generators=2) -> MonomialSet:
    """Divisor closure of a few random monomials inside the exponent box."""
    m = len(bound)
    gens = [tuple(rng.randrange(n) for n in bound) for _ in range(generators)]
    L = MonomialSet(m, gens, bound)
    return divisibility_closure(L)


def random_borel_set(rng, bound, generators=2) -> MonomialSet:
    """Divisor closure additionally closed under in-box Borel movements."""
    L = random_decreasing_set(rng, bound, generators)
    monos = set(L.monomials)
    frontier = list(monos)
    while frontier:
        u = frontier.pop()
        for v in borel_movements(u, bound):
            if v not in monos:
                monos.add(v)
                frontier.append(v)
    return divisibility_closure(MonomialSet(len(bound), monos, bound))
