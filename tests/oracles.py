"""Slow reference paths the tests compare the library against.

The dense boundary ranks here reduce every boundary map bottom-up, row by
dense row, with no clearing; ``complexes._boundary_ranks`` reduces sparse
rows from the top dimension down and skips the cleared ones.

The action engine here applies a group action to every vertex of a
materialized coset poset and reads off the fixed vertices by definition;
``cosets.fixed_cosets`` answers the same question from the containment
criterion <P, K^(x^-1)> <= H without building the poset.

Products of elements here come from ``product_table``, which composes the
image tables of G's element table point by point, so the oracles share no
arithmetic with the library beyond the element table itself.

The tuple oracle here walks every one of the |G|^k element tuples and makes
one stabilizer-chain test per set of cyclic subgroups spanned, with the
library's own chain; ``zeta.brute_force_generation_probability`` walks
tuples of cyclic subgroups and settles a whole conjugacy orbit of such sets
with one test.

The conjugate-sweep oracle here conjugates K by every element of G, in the
order of G's element table, and tests each distinct conjugate once;
``generation._conjugate_sweep`` walks the class of K under G's generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from cosetposets.complexes import SimplicialComplex
from cosetposets.cosets import CosetPoset, OvergroupAutomorphism
from cosetposets.generation import GenerationReport
from cosetposets.groups import (PermutationGroup, _generated_order, conjugate_indices,
                                cyclic_subgroups, subgroup_indices, sylow_subgroup)
from cosetposets.perm import Permutation, _inv_bytes, _mul_bytes, cycle_string


@dataclass(frozen=True)
class ActionTriple:
    """(g, h, alpha): maps Hx to (g^-1 H x h)^alpha."""
    left: Permutation | None = None
    right: Permutation | None = None
    automorphism: OvergroupAutomorphism | None = None


@dataclass(frozen=True)
class ActionGroup:
    """Generators of a group acting on a coset poset; a vertex is fixed by
    the group iff every generator fixes it."""
    generators: tuple[ActionTriple, ...]


def translation_action_group(P: PermutationGroup, K: PermutationGroup) -> ActionGroup:
    triples = [ActionTriple(left=g) for g in P.generators]
    triples += [ActionTriple(right=g) for g in K.generators]
    return ActionGroup(tuple(triples))


def smith_action_group(spec) -> ActionGroup:
    """Left P, right K and theta of an ``a7.SmithActionSpec``."""
    triples = translation_action_group(spec.P, spec.K).generators
    return ActionGroup(triples + (ActionTriple(automorphism=spec.theta),))


def action_fixed_points(poset: CosetPoset, action: ActionGroup) -> list[int]:
    """Vertices fixed by every generator of the action.

    Raises ValueError if some generator does not map the poset to itself.
    """
    fixed = list(range(len(poset.vertices)))
    for triple in action.generators:
        mapping = vertex_action_map(poset, triple)
        fixed = [v for v in fixed if mapping[v] == v]
    return fixed


@lru_cache(maxsize=8)
def _product_table(elems: tuple[bytes, ...]) -> tuple[tuple[tuple[int, ...], ...],
                                                    tuple[int, ...]]:
    index = {b: i for i, b in enumerate(elems)}
    # a * b applies a, then b: point x goes to b[a[x]]
    mul = tuple(tuple(index[bytes(b[x] for x in a)] for b in elems) for a in elems)
    return mul, tuple(row.index(0) for row in mul)


def product_table(G: PermutationGroup) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(mul, inv) on G's element table: mul[i][j] is the index of
    elems[i] * elems[j] and inv[i] that of elems[i]^-1."""
    return _product_table(G.element_bytes())


def conj_element(G: PermutationGroup, x: int, g: int) -> int:
    """Index of x^g = g^-1 x g, from the product table."""
    mul, inv = product_table(G)
    return mul[mul[inv[g]][x]][g]


def tuple_generation_probability(G: PermutationGroup, k: int) -> Fraction:
    """Fraction of the |G|^k element tuples that generate G, one tuple at a
    time, memoized on the set of cyclic subgroups the tuple spans."""
    elems = G.element_bytes()
    n = len(elems)
    cyc_rep = [0] * n
    for generators in cyclic_subgroups(G).values():
        for i in generators:
            cyc_rep[i] = generators[0]
    memo: dict[frozenset[int], bool] = {}
    count = 0
    for tup in product(range(n), repeat=k):
        key = frozenset(cyc_rep[i] for i in tup)
        hit = memo.get(key)
        if hit is None:
            gens = [elems[c] for c in key]
            hit = _generated_order(gens, G.degree, stop_at=G.order) == G.order
            memo[key] = hit
        if hit:
            count += 1
    return Fraction(count, n**k)


def scan_conjugate_sweep(G: PermutationGroup, K: PermutationGroup,
                         p: int) -> GenerationReport:
    """``universally_p_generates`` by a scan of every g in G: <K^g, P> = G is
    tested once per distinct conjugate K^g, P the library's Sylow p-subgroup;
    the first four failures become witnesses."""
    p_gens = [g._b for g in sylow_subgroup(G, p).generators]
    report = GenerationReport(subject="scan", verdict=True)
    k_set = subgroup_indices(G, K)
    seen: set[frozenset[int]] = set()
    for g in G.element_bytes():
        conj_set = conjugate_indices(G, k_set, g)
        if conj_set in seen:
            continue
        seen.add(conj_set)
        gi = _inv_bytes(g)
        conj_gens = [_mul_bytes(_mul_bytes(gi, x), g) for x in K._gens_bytes()]
        report.tests += 1
        got = _generated_order(conj_gens + p_gens, G.degree, stop_at=G.order)
        if got != G.order:
            report.verdict = False
            if len(report.witnesses) < 4:
                report.witnesses.append({
                    "conjugator": cycle_string(Permutation._from_bytes(g)),
                    "generated_order": got,
                })
    return report


def chain_normal_closure(G: PermutationGroup, seeds) -> PermutationGroup:
    """Normal closure by stabilizer chains: add each conjugate, under G's
    generators, that the current group does not contain, and rebuild."""
    gens = [s._b for s in seeds]
    group = PermutationGroup([Permutation._from_bytes(b) for b in gens], G.degree)
    changed = True
    while changed:
        changed = False
        for g in G.generators:
            for x in list(gens):
                y = (Permutation._from_bytes(x) ** g)._b
                if Permutation._from_bytes(y) not in group:
                    gens.append(y)
                    group = PermutationGroup([Permutation._from_bytes(b) for b in gens],
                                             G.degree)
                    changed = True
    return group


def is_abelian(G: PermutationGroup) -> bool:
    gens = [g._b for g in G.generators]
    return all(bytes(b[x] for x in a) == bytes(a[x] for x in b) for a in gens for b in gens)


def betti_euler(betti) -> int:
    """Reduced Euler characteristic of a ``complexes.BettiVector``."""
    return sum(v if k % 2 == 0 else -v for k, v in betti.values)


def vertex_action_map(poset: CosetPoset, triple: ActionTriple) -> list[int]:
    """Image vertex of each vertex under one action triple."""
    lat = poset.lattice
    mul, inv = product_table(lat.group)
    g = triple.left
    h = triple.right
    gi = lat.index[g._b] if g is not None else 0
    hi_id = lat.index[h._b] if h is not None else 0
    g_inv = inv[gi]
    if triple.automorphism is not None:
        conj = triple.automorphism.conjugator
        alpha = []
        for b in lat.elements:
            img = Permutation._from_bytes(b) ** conj
            j = lat.index.get(img._b)
            if j is None:
                raise ValueError("automorphism does not preserve the group")
            alpha.append(j)
    else:
        alpha = None

    def elem_map(x: int) -> int:
        y = mul[mul[g_inv][x]][hi_id]
        return alpha[y] if alpha is not None else y

    def subgroup_conj(x: int) -> int:
        y = mul[mul[g_inv][x]][gi]
        return alpha[y] if alpha is not None else y

    sub_image: dict[int, int] = {}
    for si in poset.subgroup_ids:
        fs = frozenset(subgroup_conj(x) for x in lat.subgroups[si].elements)
        target = lat.subgroup_index[fs]
        if target not in poset.coset_rep:
            raise ValueError("action does not preserve the poset")
        sub_image[si] = target

    out = []
    for (si, r) in poset.vertices:
        ti = sub_image[si]
        out.append(poset.vertex_index[(ti, poset.coset_rep[ti][elem_map(r)])])
    return out


def relation_pairs(poset) -> list[tuple[int, int]]:
    """Every strict pair u < v of a FinitePoset."""
    return [(u, v) for v in range(poset.n) for u in poset.below[v]]


def subgroup_as_group(lat, i: int) -> PermutationGroup:
    """The i-th subgroup of a lattice, rebuilt from its generator indices."""
    gens = [Permutation._from_bytes(lat.elements[g]) for g in lat.subgroups[i].generators]
    return PermutationGroup(gens, lat.group.degree)


def complex_from_faces(faces, n_vertices: int | None = None) -> SimplicialComplex:
    """Close the given faces downward; vertices are the points mentioned."""
    by_dim: dict[int, set[tuple[int, ...]]] = {}
    stack = [tuple(sorted(set(f))) for f in faces]
    seen = set(stack)
    while stack:
        f = stack.pop()
        by_dim.setdefault(len(f) - 1, set()).add(f)
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    if n_vertices is None:
        n_vertices = 1 + max((v for f in by_dim.get(0, ()) for v in f), default=-1)
    return SimplicialComplex({k: sorted(v) for k, v in by_dim.items()}, n_vertices)


def boundary_square_is_zero(X: SimplicialComplex, p: int) -> bool:
    """Check that applying the boundary twice kills every face, over GF(p)."""
    for k in range(1, X.dimension + 1):
        for f in X.faces.get(k, ()):
            acc: dict[tuple[int, ...], int] = {}
            for i in range(len(f)):
                facet = f[:i] + f[i + 1:]
                sign_i = (-1) ** i
                for j in range(len(facet)):
                    sub = facet[:j] + facet[j + 1:]
                    acc[sub] = (acc.get(sub, 0) + sign_i * (-1) ** j) % p
            if any(v % p for v in acc.values()):
                return False
    return True


def dense_rank_gfp(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on dense rows."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [x % p for x in row]
        lead = 0
        while True:
            lead = next((i for i in range(lead, len(row)) if row[i]), None)
            if lead is None:
                break
            pivot = pivots.get(lead)  # its entries from column lead on
            if pivot is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = [x * inv % p for x in row[lead:]]
                break
            c = row[lead]
            row[lead:] = [(x - c * y) % p for x, y in zip(row[lead:], pivot)]
    return len(pivots)


def dense_boundary_ranks(X: SimplicialComplex, p: int) -> dict[int, int]:
    """rank of the boundary map C_k -> C_{k-1} for k = 0..dim, each map
    reduced on its own from dense signed rows."""
    ranks: dict[int, int] = {}
    for k in range(0, X.dimension + 1):
        lower_index = {f: i for i, f in enumerate(X.faces.get(k - 1, []))}
        rows = []
        for f in X.faces.get(k, []):
            row = [0] * len(lower_index)
            for i in range(len(f)):
                row[lower_index[f[:i] + f[i + 1:]]] += (-1) ** i
            rows.append(row)
        ranks[k] = dense_rank_gfp(rows, p)
    return ranks
