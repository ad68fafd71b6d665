"""Slow reference paths the tests compare the library against.

The dense boundary ranks here reduce every boundary map bottom-up, row by
dense row, with no clearing; ``complexes._boundary_ranks`` reduces the
coboundary maps from dimension -1 up, as int-bitset or sparse rows, and
skips the rows that clearing marks.

The action engine here applies a group action to every vertex of a
materialized coset poset and reads off the fixed vertices by definition;
``cosets.fixed_cosets`` answers the same question from the containment
criterion <P, K^(x^-1)> <= H without building the poset.

The labelled fixed cosets here label every element of G by its right coset
of each proper supplement H (``groups.right_coset_reps``) and test
x k x^-1 in H at the least element x of each coset, per generator k of K;
``cosets.fixed_cosets`` labels no coset of G: it walks the class of each
generator k once, with a conjugator per member, grows C_G(k), and reads
the x with x k x^-1 in H off the members inside H.

Products of elements here come from ``product_table``, which composes the
image tables of G's element table point by point, so the oracles share no
arithmetic with the library beyond the element table itself.

The tuple oracle here walks every one of the |G|^k element tuples and makes
one stabilizer-chain test per set of cyclic subgroups spanned, with the
library's own chain; ``zeta.brute_force_generation_probability`` takes the
first entry from one cyclic subgroup <r> per class of the group's cached
cyclic table (``PermutationGroup._cyclic_table``), the rest from all cyclic
subgroups, and settles each orbit of N_G(<r>) on the rest with one test:
one per G-orbit of ordered tuples of cyclic subgroups.

The minimal normal subgroups here come from one normal closure per
nontrivial cyclic subgroup; ``groups.minimal_normal_subgroups`` makes one
per class of the cyclic table, as conjugates have one normal closure.

The conjugate-sweep oracle here conjugates K by every element of G, in the
order of G's element table, and tests each distinct conjugate once, from
K's generators conjugated by image-table products;
``generation._conjugate_sweep`` tests the generators of each conjugate
that ``groups.conjugacy_orbit_of_subgroup`` carries through the
conjugation rows.

The long-cycle flood here walks the orbits of P x Aut(<c>) on the cycles
themselves, under P's conjugations and a generating set of (Z/m)^*, and
ranks every cycle; ``generation.check_alternating_claims`` reads P-orbits
of cyclic subgroups <c>, each written as its canonical generator, off P's
element table, and ranks one cycle per subgroup. The P-orbits of cyclic
subgroups here are walked breadth first under P's generators instead.

The flat lattice enumeration here joins each class representative with
every prime-power cyclic subgroup; the library joins one cyclic subgroup
per orbit of the representative's normalizer. Both fill each new class,
with its members' generators, by ``groups.conjugacy_orbit_of_subgroup``.
The pairwise inclusion here tests every pair of subgroups, and
``relation_moebius`` reads mu off that relation subgroup by subgroup; the
library stores no relation: ``SubgroupLattice.overgroups`` tests one
subgroup's generators against the candidates asked for, and mu and the
maximal subgroups are read on one member of each conjugacy class.

The double-coset marking here walks each double coset K g K element by
element, under left and right multiplication by K's generators;
``groups.intermediate_subgroups`` walks right-coset labels of
``groups.right_coset_reps`` under right multiplication, with ``groups._orbit``.
The census oracle closes every double coset; the library joins once per
class of double cosets under g -> g^e (e prime to |g|), which the oracle
counts on its own from its marking.

The reference stabilizer chain here is the Schreier-Sims build with
unpadded transversal inverses, a generator's inverse recomputed for each
orbit point it reaches and every product through ``_mul_bytes``;
``groups._build_chain`` keeps each generator's padded table and inverse on
its level, computed once for every level a strong generator joins, and
stores the transversal inverses padded. Both grow orbits in place, resume
each orbit point's Schreier generators from its cursor, copy a start chain
with every pair checked, and so walk the orbits, choose base points and add
strong generators in the same order.

The Sylow scan here computes the p-part of every element before it extends
P; ``groups._scan_sylow_subgroup`` computes them as far as its scans need.

The coset inclusion here compares the element sets of every pair of
cosets, each read off the product table. The vertex relation here
(``vertex_relation``) takes the cosets above Hx to be Kx for the included
K above H in the pairwise inclusion, each coset labelled by its least
element, read off the product table; ``cosets.CosetPoset`` builds no
relation on its cosets: it lays out each subgroup's cosets once
(``CosetPoset.coset_table``) and reads the cover pairs of ``dump`` off the
covers among its subgroups.

The order complex here is walked chain by chain, depth first, into vertex
tuples (``FaceComplex``); ``complexes.order_complex`` reads a coset poset's
faces off blocks of subgroup chains, listed here by ``coset_complex_faces``.

The join of two complexes and the reduced Euler characteristic of a
complex here are built and counted face by face; the library reads the
Betti numbers of a join from its factors' (``complexes.kunneth_join_betti``)
and the Euler characteristic of an order complex from its poset's chain
counts (``complexes.poset_reduced_euler_characteristic``).

The reduced Euler characteristic and the hat-Moebius value of a coset
poset here are counted on its vertex relation; the library reads both off
its subgroup chains, each subgroup weighted by its index.

The sliced boundary rows here are built one face at a time, each facet a
tuple slice looked up in a dict, and a ``FaceComplex``'s coboundary rows
are those rows transposed; ``CosetComplex._coboundary_rows`` builds the
coboundary rows from the offsets of blocks.

The beat-point core here is found vertex by vertex on a coset poset's
vertex relation; ``CosetPoset.beat_point_core`` drops whole subgroups,
read off the subgroups' inclusions alone.

The witnesses that ``a7`` states as constants and ``a7.build_environment``
certifies are derived here: the phi-invariant Sylow 2-subgroup by
conjugating the element scan's P0 by each element of A_7 in table order
until a conjugate is phi-invariant, and the phi-invariant 7-cycle as the
least generator of the first phi-invariant cyclic subgroup of order 7 in a
scan of all of A_7's cyclic subgroups.

The PGL(2,7) overgroups here are the proper overgroups of P that contain a
7-cycle, found by scanning A_7's element table for them;
``a7.pgl_overgroups`` keeps those of order divisible by 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product, repeat
from math import comb, factorial, gcd
from operator import itemgetter

from cosetposets.a7 import A7Environment, overgroups_of_sylow2
from cosetposets.complexes import CosetComplex
from cosetposets.cosets import CosetPoset, OvergroupAutomorphism, _proper_supplement
from cosetposets.generation import (GenerationReport, _CycleGenerators, _cycle_permutation,
                                    _long_cycle_rank)
from cosetposets.groups import (PermutationGroup, SubgroupRecord, _closure, _generated_order,
                                _is_prime, _normal_closure, _orbit, _p_part,
                                _scan_sylow_subgroup,
                                conjugacy_orbit_of_subgroup, conjugate_indices,
                                is_normal_subgroup, right_coset_reps, subgroup_indices,
                                alternating_group, sylow_subgroup)
from cosetposets.perm import _ID256, Permutation, _inv_bytes, _mul_bytes, cycle_string
from cosetposets.posets import FinitePoset


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
    fixed = list(range(len(poset)))
    for triple in action.generators:
        mapping = vertex_action_map(poset, triple)
        fixed = [v for v in fixed if mapping[v] == v]
    return fixed


def labelled_fixed_cosets(G: PermutationGroup, N: PermutationGroup, overgroups,
                          K: PermutationGroup) -> list[tuple[SubgroupRecord, int]]:
    """``cosets.fixed_cosets`` by labelling G's right cosets of each proper
    supplement H and testing each coset's least element r: r k r^-1 in H
    for each generator k of K."""
    if not is_normal_subgroup(G, N):
        raise ValueError("N is not normal in G")
    if not K.is_subgroup_of(G):
        raise ValueError("K is not a subgroup of G")
    elems, index = G.element_bytes(), G.element_index()
    n_set = subgroup_indices(G, N)
    k_gens = [index[g._b] for g in K.generators]
    out = []
    for rec in overgroups:
        if not _proper_supplement(rec, n_set, G.order):
            continue
        for r, rep in enumerate(right_coset_reps(G, rec.elements)):
            # K^(r^-1) = r K r^-1
            if rep == r and conjugate_indices(G, k_gens, _inv_bytes(elems[r])) <= rec.elements:
                out.append((rec, r))
    return out


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
    for generators in G._cyclic_table()[0].values():
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
    report = GenerationReport(verdict=True)
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


def _long_cycle_unrank(rank: int, n: int, m: int) -> bytes:
    """Inverse of ``generation._long_cycle_rank`` for cycles of length m."""
    set_index, code = divmod(rank, factorial(m - 1))
    points = [x for x in range(n) if m == n or x != n - 1 - set_index]
    digits = []
    for radix in range(1, m):
        code, d = divmod(code, radix)
        digits.append(d)
    rest = points[1:]
    return bytes([points[0]] + [rest.pop(d) for d in reversed(digits)])


def _unit_generators(m: int) -> list[int]:
    """A generating set of the unit group (Z/m)^*, chosen greedily."""
    gens: list[int] = []
    reached = {1}
    for u in range(2, m):
        if gcd(u, m) == 1 and u not in reached:
            gens.append(u)
            while new := {x * g % m for x in reached for g in gens} - reached:
                reached |= new
    return gens


def cycle_flood_sweep(n: int) -> GenerationReport:
    """``check_alternating_claims`` by a flood over the cycles: each orbit of
    P x Aut(<c>) on the long cycles is walked by ``_orbit`` from its
    least-ranked cycle, under P's conjugations and the powers c -> c^u for a
    generating set of units u, and every member is ranked; one generation
    test per orbit, and the first four failing cycles in enumeration order
    are the witnesses."""
    L = alternating_group(n)
    target = L.order
    p_gens = [g._b for g in sylow_subgroup(L, 2).generators]
    length = n if n % 2 == 1 else n - 1
    report = GenerationReport(verdict=True)
    conjugations = [g + _ID256[n:] for g in p_gens]
    powers = [itemgetter(*(k * u % length for k in range(length)))
              for u in _unit_generators(length)]

    def step(cyc: bytes) -> list[bytes]:
        # a cycle is written from its least point, so it is one bytes value;
        # a power c^u of such a cycle already starts there
        images = [cyc.translate(t) for t in conjugations]
        images = [img[i:] + img[:i] for img in images for i in [img.index(min(img))]]
        return images + [bytes(power(cyc)) for power in powers]

    total = comb(n, length) * factorial(length - 1)
    seen = bytearray(total)
    failing: list[tuple[int, int]] = []
    for r in range(total):
        if seen[r]:
            continue
        rep = _long_cycle_unrank(r, n, length)
        members = [_long_cycle_rank(cyc, n) for cyc, _, _ in _orbit(rep, step)]
        for s in members:
            seen[s] = 1
        report.tests += 1
        report.cycles += len(members)
        got = _generated_order([_cycle_permutation(rep, n)._b] + p_gens, n, stop_at=target)
        if got != target:
            report.verdict = False
            failing += [(s, got) for s in members]
    failing.sort()
    report.witnesses = [
        {"cycle": cycle_string(_cycle_permutation(_long_cycle_unrank(s, n, length), n)),
         "generated_order": got}
        for s, got in failing[:4]]
    return report


def generator_walk_p_orbits(n: int) -> list[list[bytes]]:
    """The P-orbits on the cyclic subgroups <c> of A_n's long cycles, each
    subgroup written as its canonical generator, in rank order of their
    least-ranked members; each is walked by ``_orbit`` under P's generators
    from that member, breadth first."""
    length = n if n % 2 == 1 else n - 1
    gens = _CycleGenerators(length)
    conjugations = [g._b + _ID256[n:] for g in sylow_subgroup(alternating_group(n), 2).generators]

    def step(cyc: bytes) -> list[bytes]:
        return [gens.canonical(cyc.translate(t)) for t in conjugations]

    seen: set[bytes] = set()
    orbits = []
    for r in range(comb(n, length) * factorial(length - 1)):
        cyc = _long_cycle_unrank(r, n, length)
        if cyc not in seen and gens.canonical(cyc) == cyc:
            orbits.append([c for c, _, _ in _orbit(cyc, step)])
            seen.update(orbits[-1])
    return orbits


def every_generator_witnesses(n: int) -> list[dict]:
    """The witnesses of ``check_alternating_claims``, from ranking every
    generator of every failing cyclic subgroup: one test <c, P> per P-orbit
    of ``generator_walk_p_orbits``, and the first four generators of the
    failing orbits' members in enumeration order."""
    L = alternating_group(n)
    p_gens = [g._b for g in sylow_subgroup(L, 2).generators]
    gens = _CycleGenerators(n if n % 2 == 1 else n - 1)
    failing = []
    for orbit in generator_walk_p_orbits(n):
        got = _generated_order([_cycle_permutation(orbit[0], n)._b] + p_gens, n,
                               stop_at=L.order)
        if got != L.order:
            failing += [(_long_cycle_rank(g, n), g, got) for cyc in orbit for g in gens.all(cyc)]
    failing.sort()
    return [{"cycle": cycle_string(_cycle_permutation(cyc, n)), "generated_order": got}
            for _, cyc, got in failing[:4]]


@dataclass
class ReferenceLevel:
    """A level of ``reference_build_chain``: base point, generators, the
    transversal ``orbit`` beside its unpadded inverses ``inverse``, and the
    cursor ``checked`` (point -> how many generators it was checked against)."""
    base: int
    gens: list[bytes]
    orbit: dict[int, bytes]
    inverse: dict[int, bytes]
    checked: dict[int, int]

    @classmethod
    def empty(cls, base: int, degree: int) -> "ReferenceLevel":
        ident = _ID256[:degree]
        return cls(base, [], {base: ident}, {base: ident}, {base: 0})

    def copy(self) -> "ReferenceLevel":
        """A copy with every (point, generator) pair checked."""
        return ReferenceLevel(self.base, list(self.gens), dict(self.orbit), dict(self.inverse),
                              {p: len(self.gens) for p in self.orbit})

    def extend(self, gen: bytes) -> None:
        """Add ``gen`` and grow the orbit in place: the old points under
        ``gen``, then each new point under every generator."""
        self.gens.append(gen)
        pending = [(p, [gen]) for p in self.orbit]
        while pending:
            p, images = pending.pop(0)
            for s in images:
                q = s[p]
                if q not in self.orbit:
                    self.orbit[q] = _mul_bytes(self.orbit[p], s)
                    self.inverse[q] = _mul_bytes(_inv_bytes(s), self.inverse[p])
                    self.checked[q] = 0
                    pending.append((q, list(self.gens)))


def _reference_strip(g: bytes, levels: list[ReferenceLevel], start: int) -> tuple[bytes, int]:
    for idx in range(start, len(levels)):
        lv = levels[idx]
        x = g[lv.base]
        if x == lv.base:
            continue
        u_inv = lv.inverse.get(x)
        if u_inv is None:
            return g, idx
        g = _mul_bytes(g, u_inv)
    return g, len(levels)


def reference_build_chain(raw_gens, degree: int, stop_at: int | None = None,
                          start=()) -> list[ReferenceLevel]:
    """Deterministic Schreier-Sims with smallest-moved-point bases, stopped
    as soon as the transversal product reaches ``stop_at``. Orbits grow in
    place and each point's cursor skips the generators it was checked
    against; with ``start``, a complete chain, its levels are copied with
    every pair checked and ``raw_gens`` join level 0."""
    ident = _ID256[:degree]
    gens = list(dict.fromkeys(g for g in raw_gens if g != ident))
    levels = [lv.copy() for lv in start]
    if not gens:
        return levels

    def min_moved(g: bytes) -> int:
        return next(i for i, x in enumerate(g) if x != i)

    def reached(levels) -> bool:
        order = 1
        for lv in levels:
            order *= len(lv.orbit)
        return stop_at is not None and order == stop_at

    if not levels:
        levels.append(ReferenceLevel.empty(min(map(min_moved, gens)), degree))
    for g in gens:
        levels[0].extend(g)
    if reached(levels):
        return levels
    i = 0
    while i >= 0:
        lv = levels[i]
        added_at = -1
        for p in sorted(lv.orbit):
            while lv.checked[p] < len(lv.gens):
                s = lv.gens[lv.checked[p]]
                lv.checked[p] += 1
                schreier = _mul_bytes(_mul_bytes(lv.orbit[p], s), lv.inverse[s[p]])
                if schreier == ident:
                    continue
                h, j = _reference_strip(schreier, levels, i + 1)
                if h == ident:
                    continue
                if j == len(levels):
                    levels.append(ReferenceLevel.empty(min_moved(h), degree))
                for l in range(i + 1, j + 1):
                    levels[l].extend(h)
                if reached(levels):
                    return levels
                added_at = j
                break
            if added_at >= 0:
                break
        i = added_at if added_at >= 0 else i - 1
    return levels


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


def per_cyclic_minimal_normal_subgroups(G: PermutationGroup) -> list[PermutationGroup]:
    """Minimal normal subgroups from one normal closure per nontrivial cyclic
    subgroup, in order of least generator; the first subgroup to reach a
    closure gives its generators."""
    elems = G.element_bytes()
    closures: dict[frozenset[int], list[int]] = {}
    for generators in G._cyclic_table()[0].values():
        if generators[0] != 0:  # not the trivial subgroup
            members, gens = _normal_closure(G, [generators[0]])
            closures.setdefault(members, gens)
    minimal = sorted((k for k in closures if not any(other < k for other in closures)),
                     key=lambda k: (len(k), sorted(k)))
    return [PermutationGroup([Permutation._from_bytes(elems[i]) for i in closures[k]], G.degree)
            for k in minimal]


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
    index = lat.group.element_index()
    g = triple.left
    h = triple.right
    gi = index[g._b] if g is not None else 0
    hi_id = index[h._b] if h is not None else 0
    g_inv = inv[gi]
    if triple.automorphism is not None:
        conj = triple.automorphism.conjugator
        alpha = []
        for b in lat.group.element_bytes():
            img = Permutation._from_bytes(b) ** conj
            j = index.get(img._b)
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

    ids = lattice_ids(lat)
    sub_image: dict[int, int] = {}
    for si in poset.subgroup_ids:
        fs = frozenset(subgroup_conj(x) for x in lat.subgroups[si].elements)
        target = ids[fs]
        if target not in poset.subgroup_ids:
            raise ValueError("action does not preserve the poset")
        sub_image[si] = target

    labels = coset_labels(poset)
    index = vertex_index(poset, labels)
    return [index[sub_image[si], labels[sub_image[si]][elem_map(r)]] for si, r in index]


def quotient_coset_reps(G: PermutationGroup, N: PermutationGroup) -> list[int]:
    """The least element of each right coset of a normal N, as indices into
    G's element table, in the order a breadth-first walk from N under G's
    generators meets the cosets, each coset an element set read off the
    product table."""
    mul, _ = product_table(G)
    index = G.element_index()
    gens = [index[g._b] for g in G.generators]
    walk = [frozenset(index[m._b] for m in N.elements())]
    seen = set(walk)
    for coset in walk:  # grows while it is walked
        for g in gens:
            image = frozenset(mul[x][g] for x in coset)
            if image not in seen:
                seen.add(image)
                walk.append(image)
    return [min(coset) for coset in walk]


def coset_labels(poset: CosetPoset) -> dict[int, list[int]]:
    """For each included subgroup H, by lattice id, the least element of the
    coset Hx that holds each element x, read off the product table."""
    lat = poset.lattice
    mul, _ = product_table(lat.group)
    return {h: [min(mul[g][x] for g in lat.subgroups[h].elements) for x in range(len(mul))]
            for h in poset.subgroup_ids}


def vertex_index(poset: CosetPoset,
                 labels: dict[int, list[int]] | None = None) -> dict[tuple[int, int], int]:
    """The number of each vertex (subgroup id, least element): by subgroup id,
    then by least element, the order ``dump`` prints them in."""
    labels = labels or coset_labels(poset)
    vertices = [(h, x) for h in poset.subgroup_ids for x in sorted(set(labels[h]))]
    return {v: i for i, v in enumerate(vertices)}


def vertex_relation(poset: CosetPoset) -> FinitePoset:
    """The strict order on a coset poset's vertices, numbered by
    ``vertex_index``: the cosets above Hx are the Kx for the included K
    above H, by ``pairwise_inclusion`` on the included subgroups."""
    labels = coset_labels(poset)
    index = vertex_index(poset, labels)
    ids = poset.subgroup_ids
    _, above = pairwise_inclusion([poset.lattice.subgroups[h] for h in ids])
    position = {h: i for i, h in enumerate(ids)}
    return FinitePoset([tuple(index[ids[k], labels[ids[k]][x]] for k in above[position[h]])
                        for h, x in index])


def relation_pairs(poset) -> list[tuple[int, int]]:
    """Every strict pair u < v of a FinitePoset."""
    return [(u, v) for v in range(poset.n) for u in poset.below[v]]


def coset_inclusion_pairs(poset: CosetPoset) -> list[tuple[int, int]]:
    """Every pair u < v of a coset poset's vertices whose cosets are nested,
    coset u a proper subset of coset v, each coset Hx read as its set of
    element indices h * x from the product table, in ``relation_pairs``
    order."""
    lat = poset.lattice
    mul, _ = product_table(lat.group)
    cosets = [frozenset(mul[h][x] for h in lat.subgroups[hi].elements)
              for hi, x in poset.vertices]
    return [(u, v) for v, big in enumerate(cosets) for u, small in enumerate(cosets)
            if small < big]


def vertex_chi_and_hat(poset: CosetPoset) -> tuple[int, int]:
    """chi-tilde of a coset poset's order complex, from its chains counted by
    top vertex and length, and its mu(0-hat, 1-hat), from mu(0-hat, v) =
    -sum of mu(0-hat, u) over 0-hat <= u < v. The strict pairs are its nested
    cosets up to |G| = 60, and past that, where comparing every two cosets is
    slow, its ``vertex_relation``."""
    pairs = (coset_inclusion_pairs(poset) if poset.lattice.group.order <= 60
             else relation_pairs(vertex_relation(poset)))
    below: list[list[int]] = [[] for _ in range(poset.n)]
    for u, v in pairs:
        below[v].append(u)
    ending = [[] for _ in below]  # ending[v][j]: chains of j + 1 vertices with top v
    mu = [0] * poset.n
    for v in sorted(range(poset.n), key=lambda v: len(below[v])):  # u < v comes first
        ending[v] = [1] + [0] * max((len(ending[u]) for u in below[v]), default=0)
        for u in below[v]:
            for j, c in enumerate(ending[u], 1):
                ending[v][j] += c
        mu[v] = -(1 + sum(mu[u] for u in below[v]))
    chi = -1 + sum(c if j % 2 == 0 else -c for counts in ending for j, c in enumerate(counts))
    return chi, -(1 + sum(mu))


def subgroup_as_group(lat, i: int) -> PermutationGroup:
    """The i-th subgroup of a lattice, rebuilt from its generator indices."""
    elems = lat.group.element_bytes()
    gens = [Permutation._from_bytes(elems[g]) for g in lat.subgroups[i].generators]
    return PermutationGroup(gens, lat.group.degree)


class FaceComplex:
    """Vertex tuples by dimension, each list in the order that numbers its
    faces; dimension -1 holds exactly the empty face. ``reduced_betti``
    reduces it as it stands, on ``transposed_boundary_rows``."""

    def __init__(self, faces_by_dimension, n_vertices: int):
        self.faces = {-1: [()], **{k: list(f) for k, f in sorted(faces_by_dimension.items())
                                   if k != -1 and f}}
        self.n_vertices = n_vertices
        self.dimension = max(self.faces)

    def f_vector(self) -> list[int]:
        return [len(self.faces.get(k, ())) for k in range(-1, self.dimension + 1)]

    def __eq__(self, other) -> bool:  # the same faces, in any order
        return {k: sorted(f) for k, f in self.faces.items()} == {
            k: sorted(f) for k, f in other.faces.items()}

    def core(self) -> FaceComplex:
        return self

    def _coboundary_rows(self, k: int, p: int, cleared: set[int], bitsets: bool):
        return transposed_boundary_rows(self, k, p, cleared, bitsets)


def complex_from_faces(faces, n_vertices: int | None = None) -> FaceComplex:
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
    return FaceComplex({k: sorted(v) for k, v in by_dim.items()}, n_vertices)


def coset_complex_faces(X: CosetComplex) -> FaceComplex:
    """A coset complex's faces in its own order, block by block: face t of
    the block of H0 < ... < Hk is H0x < ... < Hkx, H0x the t-th coset of H0."""
    P, ids = X.poset, X.poset.subgroup_ids
    labels = coset_labels(P)
    index = vertex_index(P, labels)
    reps: dict[int, list[int]] = {}
    for h, r in index:
        reps.setdefault(h, []).append(r)
    return FaceComplex({k: [tuple(index[ids[h], labels[ids[h]][x]] for h in c)
                            for c in blocks for x in reps[ids[c[0]]]]
                        for k, blocks in enumerate(X.blocks)}, P.n)


def join(X: FaceComplex, Y: FaceComplex) -> FaceComplex:
    """Join X * Y: unions of a face of X and a (reindexed) face of Y."""
    shift = X.n_vertices
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for i, xfaces in X.faces.items():
        for j, yfaces in Y.faces.items():
            k = i + j + 1
            if k == -1:
                continue
            acc = by_dim.setdefault(k, [])
            for s in xfaces:
                for t in yfaces:
                    acc.append(s + tuple(v + shift for v in t))
    return FaceComplex({k: sorted(f) for k, f in by_dim.items()}, X.n_vertices + Y.n_vertices)


def reduced_euler_characteristic(X: FaceComplex) -> int:
    """Alternating face-count sum from dimension -1: -1 + f0 - f1 + ..."""
    chi = 0
    for k, faces in X.faces.items():
        chi += len(faces) if k % 2 == 0 else -len(faces)
    return chi


def boundary_square_is_zero(X: FaceComplex, p: int) -> bool:
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


def sliced_boundary_rows(X: FaceComplex, k: int, p: int, cleared: set[int]):
    """Rows of the boundary map C_k -> C_{k-1} over GF(p) for the k-faces
    outside ``cleared``, one face at a time: each facet is the tuple slice
    f[:i] + f[i + 1:], looked up in a dict of the (k-1)-faces."""
    lower_index = {f: i for i, f in enumerate(X.faces.get(k - 1, []))}
    kept = (f for j, f in enumerate(X.faces.get(k, [])) if j not in cleared)
    if p == 2:
        return (sum(1 << lower_index[f[:i] + f[i + 1:]] for i in range(len(f))) for f in kept)
    signs = (1, p - 1)
    return ({lower_index[f[:i] + f[i + 1:]]: signs[i & 1] for i in range(len(f))}
            for f in kept)


def transposed_boundary_rows(X: FaceComplex, k: int, p: int, cleared: set[int],
                             bitsets: bool):
    """Rows of the coboundary map C^k -> C^(k+1) over GF(p) for the k-faces
    outside ``cleared``: the ``sliced_boundary_rows`` of every (k+1)-face,
    transposed, as {column: sign} dicts, or as int bitsets if ``bitsets``."""
    out: list[dict[int, int]] = [{} for _ in X.faces.get(k, ())]
    for j, row in enumerate(sliced_boundary_rows(X, k + 1, p, set())):
        entries = _set_bits(row) if p == 2 else row.items()
        for i, sign in entries:
            out[i][j] = sign
    kept = (row for i, row in enumerate(out) if i not in cleared)
    if bitsets:
        return (sum(1 << j for j in row) for row in kept)
    return kept


def _set_bits(row: int):
    """(i, 1) for each set bit i of an int bitset, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1, 1
        row ^= low


def stong_core(poset: FinitePoset) -> set[int]:
    """The elements left when beat points, elements whose upper set has a
    least element or whose lower set a greatest, are removed one at a time,
    walking from the last element down, until a walk removes none."""
    alive = set(range(poset.n))

    def extreme(others: list[int], beyond) -> bool:  # one u has all the others in beyond[u]
        return any(set(others) - {u} <= set(beyond[u]) for u in others)

    removed = True
    while removed:
        removed = False
        for v in sorted(alive, reverse=True):
            up = [w for w in poset.above[v] if w in alive]
            down = [u for u in poset.below[v] if u in alive]
            if extreme(up, poset.above) or extreme(down, poset.below):
                alive.remove(v)
                removed = True
    return alive


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


def dense_boundary_ranks(X: FaceComplex, p: int) -> dict[int, int]:
    """rank of the boundary map C_k -> C_{k-1} for k = 0..dim, each map
    reduced on its own from dense signed rows, the faces in sorted order
    (which keeps the elimination's fill-in low on order complexes)."""
    ranks: dict[int, int] = {}
    for k in range(0, X.dimension + 1):
        lower_index = {f: i for i, f in enumerate(sorted(X.faces.get(k - 1, [])))}
        rows = []
        for f in sorted(X.faces.get(k, [])):
            row = [0] * len(lower_index)
            for i in range(len(f)):
                row[lower_index[f[:i] + f[i + 1:]]] += (-1) ** i
            rows.append(row)
        ranks[k] = dense_rank_gfp(rows, p)
    return ranks


def flat_subgroup_records(G: PermutationGroup) -> list[SubgroupRecord]:
    """Every subgroup of G, class by class: each class representative H is
    joined with every prime-power cyclic subgroup <z> not in it, and each
    new class is filled under G's generators."""
    return flat_enumeration(G)[0]


def flat_enumeration(G: PermutationGroup) -> tuple[list[SubgroupRecord], list[frozenset[int]]]:
    """``flat_subgroup_records`` and the class representatives, in the
    order they were found."""
    n = G.order
    zs = [gens[0] for fs, gens in G._cyclic_table()[0].items()
          if any(_is_prime(p) and _p_part(len(fs), p) == len(fs)
                 for p in range(2, len(fs) + 1))]
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
    reps = [frozenset({0})]
    for H in reps:  # grows while it is walked
        h_gens = found[H]
        for z in zs:
            if z in H:
                continue
            gens = h_gens + (z,)
            K = _closure(G, gens, H)
            if K in found:
                continue
            reps.append(K)
            orbit = conjugacy_orbit_of_subgroup(G, K, gens)
            found.update((image, image_gens) for image, image_gens, _ in orbit)
            assert (n // len(K)) % len(orbit) == 0
    records = sorted(found.items(), key=lambda r: (len(r[0]), sorted(r[0])))
    return [SubgroupRecord(len(fs), fs, gens) for fs, gens in records], reps


def normalizer_orbit_count(G: PermutationGroup, H: frozenset[int]) -> int:
    """The number of orbits of N_G(H) = {g : H^g = H}, found by conjugating
    H by every element of G, on the cyclic subgroups of prime-power order
    not in H."""
    n = G.order
    normalizer = [g for g in range(n)
                  if frozenset(conj_element(G, x, g) for x in H) == H]
    cyclic = [frozenset(fs) for fs in G._cyclic_table()[0]
              if len(fs) > 1 and not fs <= H
              and any(_is_prime(p) and _p_part(len(fs), p) == len(fs)
                      for p in range(2, len(fs) + 1))]
    orbits = {frozenset(frozenset(conj_element(G, x, g) for x in C) for g in normalizer)
              for C in cyclic}
    return len(orbits)


def lattice_ids(lat) -> dict[frozenset[int], int]:
    """Each subgroup's lattice id, keyed by its element set: the lattice
    keeps no such index, so tests that meet a subgroup as a set read it here."""
    return {rec.elements: i for i, rec in enumerate(lat.subgroups)}


def pairwise_inclusion(subgroups) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(below, above) of subgroup records sorted by order, from a subset
    test on every pair of distinct orders that divide."""
    count = len(subgroups)
    below: list[list[int]] = [[] for _ in range(count)]
    above: list[list[int]] = [[] for _ in range(count)]
    for j in range(count):
        ej = subgroups[j]
        for i in range(j):
            ei = subgroups[i]
            if ei.order == ej.order or ej.order % ei.order != 0:
                continue
            if ei.elements <= ej.elements:
                below[j].append(i)
                above[i].append(j)
    return ([tuple(b) for b in below], [tuple(a) for a in above])


def relation_moebius(above) -> tuple[int, ...]:
    """mu(H, G) for subgroup records sorted by order, the last one G, from
    their strict relation ``above``: mu(G, G) = 1 and mu(H, G) = -sum of
    mu(K, G) over K above H."""
    mu = [0] * len(above)
    mu[-1] = 1
    for i in reversed(range(len(above) - 1)):
        mu[i] = -sum(mu[k] for k in above[i])
    return tuple(mu)


def translate_intermediate_subgroups(
        G: PermutationGroup, H: PermutationGroup) -> tuple[list[SubgroupRecord], int]:
    """``groups.intermediate_subgroups`` with each double coset K g K marked
    by translating image tables, one index lookup per step, and closed; and
    the number of joins the census makes: for each K, the classes of double
    cosets under g -> g^e (e prime to |g|), taking each double coset in order
    of its least element g and, if no earlier one has covered it, covering
    the double cosets of all such g^e."""
    elems = G.element_bytes()
    index = G.element_index()
    tail = _ID256[G.degree:]
    n_g = len(elems)

    def record_from(gens, start=frozenset({0})):
        fs = _closure(G, gens, start)
        if len(fs) == n_g:
            return SubgroupRecord(n_g, fs, tuple(index[g._b] for g in G.generators))
        return SubgroupRecord(len(fs), fs, gens)

    start = record_from(tuple(index[g._b] for g in H.generators))
    found = {start.elements: start}
    frontier = [start]
    joins = 0
    while frontier:
        rec = frontier.pop(0)
        if rec.order == n_g:
            continue
        gens_b = [elems[i] for i in rec.generators]
        pads = [kb + tail for kb in gens_b]
        double_coset = [-1] * n_g  # the least element of each one
        for i in rec.elements:
            double_coset[i] = 0
        for i in range(n_g):
            if double_coset[i] >= 0:
                continue
            stack = [elems[i]]
            double_coset[i] = i
            while stack:
                x = stack.pop()
                for y in chain(map(bytes.translate, gens_b, repeat(x + tail)),
                               map(x.translate, pads)):
                    j = index[y]
                    if double_coset[j] < 0:
                        double_coset[j] = i
                        stack.append(y)
            new_rec = record_from(rec.generators + (i,), rec.elements)
            if new_rec.elements not in found:
                found[new_rec.elements] = new_rec
                frontier.append(new_rec)
        covered = set()
        for i in sorted(set(double_coset) - {0}):
            if i in covered:
                continue
            joins += 1
            powers = [elems[i]]
            while powers[-1] != elems[0]:
                powers.append(bytes(elems[i][x] for x in powers[-1]))
            m = len(powers)  # the order of elems[i]; powers[e - 1] is its e-th power
            covered.update(double_coset[index[powers[e - 1]]] for e in range(1, m)
                           if gcd(e, m) == 1)
    return sorted(found.values(), key=lambda r: (r.order, sorted(r.elements))), joins


def full_scan_sylow_subgroup(G: PermutationGroup, p: int) -> PermutationGroup:
    """A Sylow p-subgroup from the deduplicated p-parts of every element,
    in table order: start with the first, and extend by the first one that
    normalizes the current group without lying in it, rescanning each time."""
    pe = _p_part(G.order, p)
    if pe == 1:
        return PermutationGroup([], degree=G.degree)
    p_elems: list[bytes] = []
    seen = set()
    for b in G.element_bytes():
        m = Permutation._from_bytes(b).order()
        mp = _p_part(m, p)
        if mp == 1:
            continue
        q = Permutation._from_bytes(b) ** (m // mp)
        if q._b not in seen:
            seen.add(q._b)
            p_elems.append(q._b)
    current = PermutationGroup([Permutation._from_bytes(p_elems[0])], G.degree)
    while current.order < pe:
        for cand in p_elems:
            c = Permutation._from_bytes(cand)
            if c not in current and current.is_normalized_by(c):
                current = PermutationGroup([*current.generators, c], G.degree)
                break
        else:
            raise AssertionError("no p-element extends the p-subgroup")
    return current


def recursive_order_complex(poset: FinitePoset) -> FaceComplex:
    """Every chain of a poset, found by extending one chain at a time, depth
    first, by each element above its top."""
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    path: list[int] = []

    def extend(v: int) -> None:
        path.append(v)
        by_dim.setdefault(len(path) - 1, []).append(tuple(path))
        for w in poset.above[v]:
            extend(w)
        path.pop()

    for v in range(poset.n):
        extend(v)
    return FaceComplex(by_dim, poset.n)


def scan_phi_invariant_sylow2(A7: PermutationGroup, x: Permutation) -> PermutationGroup:
    """P0^g for the element scan's Sylow 2-subgroup P0 of A_7 and the first g
    in A_7's element table that makes P0^g invariant under conjugation by x,
    each distinct conjugate tested once."""
    P0 = _scan_sylow_subgroup(A7, 2)
    p_set = subgroup_indices(A7, P0)
    seen: set[frozenset[int]] = set()
    for g in A7.element_bytes():
        conj = conjugate_indices(A7, p_set, g)
        if conj in seen:
            continue
        seen.add(conj)
        if conjugate_indices(A7, conj, x._b) == conj:
            g_perm = Permutation._from_bytes(g)
            return PermutationGroup([gen ** g_perm for gen in P0.generators], 7)
    raise AssertionError("no phi-invariant Sylow 2-subgroup found")


def scan_phi_invariant_seven_cycle(A7: PermutationGroup, x: Permutation) -> Permutation:
    """The least generator, in A_7's element table, of the first cyclic
    subgroup of order 7 in least-generator order that is invariant under
    conjugation by x, from a scan of every cyclic subgroup of A_7."""
    for fs, gens in A7._cyclic_table()[0].items():
        if len(fs) == 7 and conjugate_indices(A7, fs, x._b) == fs:
            return Permutation._from_bytes(A7.element_bytes()[gens[0]])
    raise AssertionError("no phi-invariant Sylow 7-subgroup found")


def seven_cycle_pgl_overgroups(env: A7Environment) -> list[SubgroupRecord]:
    """The proper overgroups of P in A_7 that contain an element of cycle
    type (7,), from a scan of A_7's element table."""
    elems = env.A7.element_bytes()
    sevens = frozenset(i for i, b in enumerate(elems)
                       if Permutation._from_bytes(b).cycle_type() == (7,))
    return [rec for rec in overgroups_of_sylow2(env)
            if rec.order < env.A7.order and rec.elements & sevens]
