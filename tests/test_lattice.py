import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cosetposets import a7, lattice
from cosetposets.catalog import load_catalog
from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    conjugate_indices,
    cyclic_group,
    intermediate_subgroups,
    symmetric_group,
    sylow_subgroup,
)
from cosetposets.lattice import (
    SubgroupLattice,
    enumerate_subgroups,
    lattice_dump,
    maximal_subgroups,
    moebius_to_top,
)
from cosetposets.perm import Permutation, parse_permutation
from cosetposets.zeta import brute_force_generation_probability, hall_polynomial
from oracles import (conj_element, flat_enumeration, flat_subgroup_records,
                     normalizer_orbit_count, pairwise_inclusion, product_table)

CATALOG = {e.name: e for e in load_catalog(verify=False)}
RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def brute_force_subgroups(G):
    """Every multiplication-closed nonempty subset; the independent oracle."""
    elems = G.elements()
    n = len(elems)
    table = {(i, j): elems.index(elems[i] * elems[j]) for i in range(n) for j in range(n)}
    out = []
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            s = set(combo)
            if all(table[(i, j)] in s for i in s for j in s):
                out.append(frozenset(combo))
    return out


def _closure(mul, gens):
    """<gens> by breadth-first search from the identity, one element at a time."""
    seen = {0}
    stack = [0]
    while stack:
        row = mul[stack.pop()]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def pairwise_join_subgroups(lat):
    """Close the cyclic subgroups under pairwise join, each join a fresh
    closure; the reference for the class-by-class enumeration."""
    records = [(frozenset({0}), ())]
    by_fs = {records[0][0]}
    for fs, gens in lat.group._cyclic_table()[0].items():
        if fs not in by_fs:
            by_fs.add(fs)
            records.append((fs, (gens[0],)))
    qi = 1  # trivial subgroup joins to nothing new
    while qi < len(records):
        fa, ga = records[qi]
        for b in range(1, qi):
            fb, gb = records[b]
            if fa <= fb or fb <= fa:
                continue
            gens = ga + tuple(g for g in gb if g not in ga)
            joined = _closure(product_table(lat.group)[0], gens)
            if joined not in by_fs:
                by_fs.add(joined)
                records.append((joined, gens))
        qi += 1
    return by_fs


@pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.expected_order <= 60]
                         + ["S5", "PSL(2,7)"])
def test_class_enumeration_matches_pairwise_join_oracle(name):
    lat = enumerate_subgroups(CATALOG[name].build())
    assert set(lat.subgroup_index) == pairwise_join_subgroups(lat)
    for e in lat.subgroups:
        assert lat._span(e.generators) == e.elements


def _relabelled(G, seed):
    points = list(range(G.degree))
    random.Random(seed).shuffle(points)
    return G.conjugate_by(Permutation(points))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.expected_order <= 360])
def test_lattice_matches_flat_enumeration_and_pairwise_inclusion(name, seed):
    """Joins by normalizer orbits, stopped at half of G, give the records of
    joining every cyclic subgroup to the end, generators included; the
    inclusion masks give the relation of the pairwise subset test."""
    G = _relabelled(CATALOG[name].build(), seed)
    lat = enumerate_subgroups(G)
    assert lat.subgroups == flat_subgroup_records(G)
    assert (lat.below, lat.above) == pairwise_inclusion(lat.subgroups)


@pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.expected_order <= 168])
def test_one_join_per_normalizer_orbit(name, monkeypatch):
    """The enumeration joins each class representative H with one cyclic
    subgroup per orbit of N_G(H), the orbits counted by conjugating with
    every element of G."""
    G = CATALOG[name].build()
    joins = []
    span = SubgroupLattice._span
    monkeypatch.setattr(SubgroupLattice, "_span",
                        lambda self, *args: joins.append(args) or span(self, *args))
    enumerate_subgroups(G)
    _, reps = flat_enumeration(G)
    assert len(joins) == sum(normalizer_orbit_count(G, H) for H in reps)


def _interval_above(lat, H):
    i = lat.find(H)
    return {lat.subgroups[j].elements for j in (i, *lat.above[i])}


@pytest.mark.parametrize("name", ["S4", "A5", "S5", "PSL(2,7)", "A6"])
def test_interval_above_sylow_matches_overgroup_census(name):
    """The two subgroup searches agree: the lattice interval above each
    Sylow subgroup P is the overgroup census of P."""
    G = CATALOG[name].build()
    lat = enumerate_subgroups(G)
    for p in (q for q in range(2, G.order + 1) if G.order % q == 0
              and all(q % d for d in range(2, q))):
        P = sylow_subgroup(G, p)
        assert _interval_above(lat, P) == {
            r.elements for r in intermediate_subgroups(G, P)}, (name, p)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_a7_lattice_certificates(monkeypatch):
    """The A7 lattice: 3,786 subgroups in 40 classes, each class size
    dividing |G : K|; the interval above the fixed Sylow 2-subgroup is the
    A_7 census; P(2) is the tuple oracle's 229/315."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 2520)
    env = a7.build_environment()
    G = env.A7
    lat = SubgroupLattice(G)
    assert len(lat) == 3786
    unclassed = set(lat.subgroup_index)
    classes = 0
    while unclassed:
        rec = lat.subgroups[lat.subgroup_index[next(iter(unclassed))]]
        orbit = {fs for fs, _, _ in conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)}
        assert (G.order // rec.order) % len(orbit) == 0
        unclassed -= orbit
        classes += 1
    assert classes == 40
    census = env.overgroups("A7")
    assert len(census) == 12
    assert _interval_above(lat, env.P) == {r.elements for r in census}
    poly = hall_polynomial(lat, moebius_to_top(lat))
    assert poly.evaluate(2) == brute_force_generation_probability(G, 2) == Fraction(229, 315)
    assert poly.evaluate(-1) == -1377600


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_s7_lattice_interval_matches_overgroup_census(monkeypatch):
    """The S7 lattice (11,300 subgroups) certifies the S_7 census from an
    independent search: the interval above the fixed Sylow 2-subgroup is
    the census's 20 records."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 5040)
    env = a7.build_environment()
    lat = SubgroupLattice(env.S7)
    assert len(lat) == 11300
    census = env.overgroups("S7")
    assert len(census) == 20
    assert _interval_above(lat, env.P) == {r.elements for r in census}


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,subgroups,classes", [
    ("S4", 30, 11), ("A5", 59, 9), ("S5", 156, 19), ("PSL(2,7)", 179, 15), ("A6", 501, 22)])
def test_known_subgroup_and_class_counts(name, subgroups, classes, relabel):
    G = CATALOG[name].build()
    if relabel:
        G = _relabelled(G, seed=7)
    lat = enumerate_subgroups(G)
    assert len(lat) == subgroups
    unclassed = set(lat.subgroup_index)
    orbits = 0
    while unclassed:
        rec = lat.subgroups[lat.subgroup_index[next(iter(unclassed))]]
        orbit = {fs for fs, _, _ in conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)}
        assert orbit <= unclassed
        unclassed -= orbit
        orbits += 1
    assert orbits == classes


def test_conjugacy_orbit_matches_conjugation_by_every_element():
    """The class walk under G's generators gives {H^g : g in G}, with H^g
    from the product table, for every subgroup of every catalog group of
    order <= 24. It starts at (H, H's generators, the identity); each
    entry's generators close to its set, its conjugator carries H to it,
    and the class size divides |G : H|."""
    for entry in CATALOG.values():
        if entry.expected_order > 24:
            continue
        G = entry.build()
        identity = G.element_bytes()[0]
        mul, _ = product_table(G)
        for rec in enumerate_subgroups(G).subgroups:
            orbit = conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)
            assert orbit[0] == (rec.elements, rec.generators, identity)
            expected = {frozenset(conj_element(G, x, g) for x in rec.elements)
                        for g in range(G.order)}
            assert {fs for fs, _, _ in orbit} == expected, (entry.name, rec.order)
            assert len(orbit) == len(expected)
            for fs, gens, g in orbit:
                assert _closure(mul, gens) == fs, (entry.name, rec.order)
                assert conjugate_indices(G, rec.elements, g) == fs, (entry.name, rec.order)
            assert (G.order // rec.order) % len(orbit) == 0


def test_cyclic_prime_has_two_subgroups():
    assert len(enumerate_subgroups(cyclic_group(5))) == 2
    assert len(enumerate_subgroups(cyclic_group(7))) == 2


def test_s3_subgroups_match_exhaustive_oracle():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    assert len(lat) == 6
    brute = brute_force_subgroups(S3)
    assert sorted(e.elements for e in lat.subgroups) == sorted(brute)


def test_s4_has_thirty_subgroups():
    lat = enumerate_subgroups(symmetric_group(4))
    assert len(lat) == 30
    by_order = {}
    for e in lat.subgroups:
        by_order[e.order] = by_order.get(e.order, 0) + 1
    # census: 1, 9 C2, 4 C3, 3 C4 + 4 V4, 4 S3, 3 D8, 1 A4, 1 S4
    assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}


def test_a5_subgroup_and_maximal_census():
    lat = enumerate_subgroups(alternating_group(5))
    assert len(lat) == 59
    maxi = maximal_subgroups(lat)
    assert len(maxi) == 21
    indices = sorted(lat.index_in_group(i) for i in maxi)
    assert indices == [5] * 5 + [6] * 6 + [10] * 10


def test_maximal_of_z4():
    lat = enumerate_subgroups(cyclic_group(4))
    maxi = maximal_subgroups(lat)
    assert [lat.subgroups[i].order for i in maxi] == [2]


def test_moebius_values_s3():
    lat = enumerate_subgroups(symmetric_group(3))
    mu = moebius_to_top(lat)
    assert mu[lat.index_of_parent] == 1
    assert mu[lat.subgroup_index[frozenset({0})]] == 3
    for i, e in enumerate(lat.subgroups):
        if e.order == 2:
            assert mu[i] == -1


def test_moebius_defining_identity():
    for G in [symmetric_group(3), symmetric_group(4), cyclic_group(12),
              alternating_group(4)]:
        lat = enumerate_subgroups(G)
        mu = moebius_to_top(lat)
        for h in range(len(lat.subgroups)):
            interval = [k for k in lat.above[h]] + [h]
            total = sum(mu[k] for k in interval)
            assert total == (1 if h == lat.index_of_parent else 0)


def test_join_closure_invariant():
    lat = enumerate_subgroups(symmetric_group(4))
    subs = lat.subgroups
    for i in range(0, len(subs), 3):
        for j in range(0, len(subs), 5):
            gens = subs[i].generators + subs[j].generators
            assert lat._span(gens) in lat.subgroup_index


def test_conjugation_permutes_subgroup_list():
    G = alternating_group(5)
    lat = enumerate_subgroups(G)
    all_sets = set(lat.subgroup_index)
    for g in G.generators:
        gi = G.element_index()[g._b]
        for fs in all_sets:
            image = frozenset(conj_element(G, x, gi) for x in fs)
            assert image in all_sets


def test_cyclic_phi_weights_reconstruct_order():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)

    for G in [symmetric_group(4), cyclic_group(12), alternating_group(5)]:
        lat = enumerate_subgroups(G)
        cyclic_sizes = []
        for e in lat.subgroups:
            if any(_cyclic_span_size(lat, x) == e.order for x in e.elements):
                cyclic_sizes.append(e.order)
        assert sum(phi(s) for s in cyclic_sizes) == G.order


def _cyclic_span_size(lat, x):
    if x == 0:
        return 1
    mul = product_table(lat.group)[0]
    size = 1  # identity
    j = x
    while j != 0:
        size += 1
        j = mul[j][x]
    return size


def test_inclusion_respects_lagrange():
    lat = enumerate_subgroups(symmetric_group(4))
    for j, entry in enumerate(lat.subgroups):
        for i in lat.below[j]:
            assert entry.order % lat.subgroups[i].order == 0
            assert lat.subgroups[i].elements < entry.elements


def test_order_bound_enforced():
    with pytest.raises(BudgetExceededError):
        SubgroupLattice(alternating_group(7))


def test_lattice_dump_is_stable():
    lat = enumerate_subgroups(symmetric_group(3))
    mu = moebius_to_top(lat)
    d1 = lattice_dump(lat, mu)
    d2 = lattice_dump(enumerate_subgroups(symmetric_group(3)), mu)
    assert d1 == d2
    assert d1.splitlines()[0] == "1;0;3"


def test_find_subgroup():
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    V4 = PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                           parse_permutation("(1,3)(2,4)", 4)])
    i = lat.find(V4)
    assert lat.subgroups[i].order == 4
    with pytest.raises(ValueError):
        lat.find(PermutationGroup([parse_permutation("(1,2)", 2)]))
