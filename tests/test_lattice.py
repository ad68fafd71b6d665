import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cosetposets import a7, groups, lattice
from cosetposets.catalog import load_catalog
from cosetposets.groups import (
    BudgetExceededError,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    conjugate_indices,
    cyclic_group,
    intermediate_subgroups,
    minimal_normal_subgroups,
    subgroup_indices,
    symmetric_group,
    sylow_subgroup,
)
from cosetposets.lattice import (
    SubgroupLattice,
    enumerate_subgroups,
    lattice_dump,
    maximal_subgroups,
    moebius_to_top,
    proper_order_ceiling,
)
from cosetposets.perm import Permutation
from cosetposets.zeta import brute_force_generation_probability, hall_polynomial
from oracles import (conj_element, coset_orbit_count, flat_enumeration,
                     flat_subgroup_records, lattice_ids, normalizer_orbit_count,
                     normalizer_orbit_lattice, pairwise_inclusion, product_table,
                     relation_moebius)

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
    assert set(lattice_ids(lat)) == pairwise_join_subgroups(lat)
    for e in lat.subgroups:
        assert lat._span(e.generators) == e.elements


def _relabelled(G, seed):
    points = list(range(G.degree))
    random.Random(seed).shuffle(points)
    return G.conjugate_by(Permutation(points))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.expected_order <= 360])
def test_lattice_matches_flat_enumeration_and_pairwise_inclusion(name, seed):
    """Joins by normalizer orbits, stopped at the proper-order ceiling
    (|G| // k for a simple G, k the least integer with |G| dividing k!;
    half of G otherwise), give the records of joining every cyclic subgroup
    to the end, generators included; ``overgroups`` gives the relation of
    the pairwise subset test, and the Moebius values and the maximal
    subgroups, read one class at a time, are that relation's."""
    G = _relabelled(CATALOG[name].build(), seed)
    lat = enumerate_subgroups(G)
    assert lat.subgroups == flat_subgroup_records(G)
    _, above = pairwise_inclusion(lat.subgroups)
    assert [tuple(lat.overgroups(i)) for i in range(len(lat))] == above
    assert moebius_to_top(lat) == relation_moebius(above)
    assert maximal_subgroups(lat) == [i for i, up in enumerate(above)
                                      if up == (lat.index_of_parent,)]


def _record_joins(monkeypatch) -> list[tuple[tuple[int, ...], frozenset[int], frozenset[int]]]:
    """Record (generators, start, result) of each ``SubgroupLattice._span``."""
    joins = []
    span = SubgroupLattice._span

    def recorded(self, gens, start):
        K = span(self, gens, start)
        joins.append((gens, start, K))
        return K

    monkeypatch.setattr(SubgroupLattice, "_span", recorded)
    return joins


def _least_prime(m):
    return next(p for p in range(2, m + 1) if m % p == 0)


def _prime_power_generators(G):
    """The least generator of each cyclic subgroup of prime-power order > 1."""
    return [gens[0] for fs, gens in G._cyclic_table()[0].items()
            if len(fs) > 1 and groups._p_part(len(fs), _least_prime(len(fs))) == len(fs)]


@pytest.mark.parametrize("name", [e.name for e in CATALOG.values() if e.expected_order <= 168])
def test_one_join_per_normalizer_orbit(name, monkeypatch):
    """The enumeration joins each class representative H once per orbit of
    N_G(H) on the cosets Hz of a prime-power z not in H that it takes, the
    orbits found by conjugating with every element of G, and never more
    often than once per orbit of N_G(H) on the prime-power cyclic subgroups;
    it passes over, and joins nothing to, exactly the representatives that
    come after the first one with a join equal to G and have |H| p above the
    ceiling, p the least prime dividing |G : H|."""
    G = CATALOG[name].build()
    joins = _record_joins(monkeypatch)
    ceiling = enumerate_subgroups(G).ceiling
    records, reps = flat_enumeration(G)
    gens = {r.elements: r.generators for r in records}
    full = records[-1].elements
    mul = product_table(G)[0]
    first = next((i for i, H in enumerate(reps)
                  if any(_closure(mul, gens[H] + (z,)) == full
                         for z in _prime_power_generators(G) if z not in H)), len(reps))
    passed_over = {H for H in reps[first + 1:]
                   if H != full and len(H) * _least_prime(G.order // len(H)) > ceiling}
    per_start = Counter(start for _, start, _ in joins)
    assert set(per_start) == set(reps) - passed_over - {full}
    for H, count in per_start.items():
        assert count == coset_orbit_count(G, H) <= normalizer_orbit_count(G, H), len(H)


@pytest.mark.parametrize("name", [
    *(e.name for e in CATALOG.values() if e.expected_order <= 168),
    *(pytest.param(name, marks=pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1"))
      for name in ("A7", "S7"))])
def test_lattice_matches_the_normalizer_orbit_join_loop(name, monkeypatch):
    """Joining once per orbit of cosets finds every class by the same join
    as joining once per orbit of cyclic subgroups: the records, their
    generators and ``class_of`` are equal."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 5040)
    G = CATALOG[name].build()
    lat = enumerate_subgroups(G)
    records, class_of = normalizer_orbit_lattice(G)
    assert [(r.order, r.elements, r.generators) for r in lat.subgroups] == [
        (r.order, r.elements, r.generators) for r in records]
    assert lat.class_of == class_of


@pytest.mark.parametrize("name", [e.name for e in CATALOG.values()
                                  if e.expected_order <= lattice.LATTICE_ORDER_BOUND])
def test_proper_order_ceiling_bounds_the_lattice(name):
    """No proper subgroup passes the ceiling, and a simple group has one of
    the ceiling's order (A5 12, PSL(2,7) 24, A6 60, C_p 1); the ceiling's
    verdict on simplicity is that G is its one minimal normal subgroup."""
    G = CATALOG[name].build()
    lat = enumerate_subgroups(G)
    largest = max((r.order for r in lat.subgroups[:-1]), default=0)
    assert lat.ceiling == proper_order_ceiling(G)
    assert largest <= lat.ceiling
    simple = G.order > 1 and minimal_normal_subgroups(G) == [G]
    assert lattice._is_simple(G) == simple
    if simple:
        assert largest == lat.ceiling
    if name in ("A5", "PSL(2,7)", "A6"):
        assert simple and lat.ceiling == {"A5": 12, "PSL(2,7)": 24, "A6": 60}[name]


@pytest.mark.parametrize("name", [
    "A5", "PSL(2,7)", "A6",
    *(pytest.param(name, marks=pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1"))
      for name in ("A7", "S7"))])
def test_bounded_joins_match_unbounded_closures(name, monkeypatch):
    """Each join the lattice makes, closed up to the ceiling, is the set
    ``_closure`` gives without it; and for each class whose representative
    the skip rule passes over, every join with a prime-power cyclic subgroup
    closes to G without the ceiling."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 5040)
    G = CATALOG[name].build()
    joins = _record_joins(monkeypatch)
    lat = SubgroupLattice(G)
    for gens, start, K in joins:
        assert groups._closure(G, gens, start) == K
    full = G._full_set()
    starts = {start for _, start, _ in joins}
    ids = lattice_ids(lat)
    unclassed = set(ids) - {full}
    passed_over = 0
    while unclassed:
        rec = lat.subgroups[ids[next(iter(unclassed))]]
        orbit = {fs for fs, _, _ in conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)}
        unclassed -= orbit
        if orbit.isdisjoint(starts):
            passed_over += 1
            for z in _prime_power_generators(G):
                if z not in rec.elements:
                    assert groups._closure(G, rec.generators + (z,), rec.elements) == full
    assert passed_over > 0


def _interval_above(lat, H):
    i = lattice_ids(lat)[subgroup_indices(lat.group, H)]
    return {lat.subgroups[j].elements for j in (i, *lat.overgroups(i))}


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


def test_lattice_refuses_a_class_that_does_not_divide_the_index(monkeypatch):
    """A class walk that drops one of S4's six subgroups generated by a
    transposition leaves a class of 5, which does not divide |S4 : K| = 12."""
    walk = lattice.conjugacy_orbit_of_subgroup

    def dropping(G, K, gens):
        orbit = walk(G, K, gens)
        return orbit[:-1] if (len(K), len(orbit)) == (2, 6) else orbit

    monkeypatch.setattr(lattice, "conjugacy_orbit_of_subgroup", dropping)
    with pytest.raises(RuntimeError, match=r"^class of a subgroup of order 2 has 5 members, "
                                           r"which does not divide \|G : K\| = 12$"):
        SubgroupLattice(symmetric_group(4))


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_a7_lattice_certificates(monkeypatch):
    """The A7 lattice: 3,786 subgroups in 40 classes, each class size
    dividing |G : K|; the largest proper ones, the A6s, have the ceiling's
    order 360; its 93 maximal subgroups are the members of the ATLAS's five
    classes (7 A6, 15 and 15 PSL(2,7), 21 S5, 35 (A4 x 3):2); the interval
    above the fixed Sylow 2-subgroup is the A_7 census; P(2) is the tuple
    oracle's 229/315."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 2520)
    env = a7.build_environment()
    G = env.A7
    lat = SubgroupLattice(G)
    assert len(lat) == 3786
    assert lat.subgroups[-2].order == lat.ceiling == 360
    ids = lattice_ids(lat)
    unclassed = set(ids)
    classes = 0
    while unclassed:
        rec = lat.subgroups[ids[next(iter(unclassed))]]
        orbit = {fs for fs, _, _ in conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)}
        assert (G.order // rec.order) % len(orbit) == 0
        unclassed -= orbit
        classes += 1
    assert classes == len(set(lat.class_of)) == 40
    assert len(maximal_subgroups(lat)) == 93
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
    the census's 20 records. S_7 is not simple, and A_7 has the ceiling's
    order |S_7| // 2. Its 184 maximal subgroups are the members of the
    ATLAS's five classes (1 A7, 7 S6, 21 S5 x 2, 35 S4 x S3, 120 7:6), and
    P(-1) = 2,662,800."""
    monkeypatch.setattr(lattice, "LATTICE_ORDER_BOUND", 5040)
    env = a7.build_environment()
    lat = SubgroupLattice(env.S7)
    assert len(lat) == 11300
    assert lat.subgroups[-2].order == lat.ceiling == 2520
    census = env.overgroups("S7")
    assert len(census) == 20
    assert _interval_above(lat, env.P) == {r.elements for r in census}
    assert len(maximal_subgroups(lat)) == 184
    assert hall_polynomial(lat, moebius_to_top(lat)).evaluate(-1) == 2662800


_A8_LATTICE_IN_A_CHILD = """
import sys, time
from cosetposets import lattice
from cosetposets.groups import alternating_group
from cosetposets.zeta import evaluate, hall_polynomial
lattice.LATTICE_ORDER_BOUND = 20160
started = time.process_time()
lat = lattice.SubgroupLattice(alternating_group(8))
seconds = time.process_time() - started
p = evaluate(hall_polynomial(lat, lattice.moebius_to_top(lat)), -1)
print(len(lat), len(set(lat.class_of)), p, f"{seconds:.1f}")
sys.stderr.write(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_a8_lattice_at_size():
    """The A8 lattice, built in a fresh process with the order bound lifted
    there: 48,337 subgroups in 137 classes, P(-1) = 51,073,680, and the
    child's own peak RSS, which it reports itself, under 300 MB."""
    if not Path("/proc/self/status").exists():
        pytest.skip("the child reads its peak RSS from /proc/self/status, absent here")
    run = subprocess.run(
        [sys.executable, "-c", _A8_LATTICE_IN_A_CHILD], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(Path(lattice.__file__).parents[1])})
    subgroups, classes, p, seconds = run.stdout.split()
    peak_mb = int(run.stderr.split("VmHWM:")[1].split()[0]) / 1024  # kB
    print(f"A8 lattice: {seconds} s of CPU, the child's peak RSS {peak_mb:.0f} MB")
    assert (int(subgroups), int(classes), int(p)) == (48337, 137, 51073680)
    assert peak_mb < 300


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,subgroups,classes", [
    ("S4", 30, 11), ("A5", 59, 9), ("S5", 156, 19), ("PSL(2,7)", 179, 15), ("A6", 501, 22)])
def test_known_subgroup_and_class_counts(name, subgroups, classes, relabel):
    G = CATALOG[name].build()
    if relabel:
        G = _relabelled(G, seed=7)
    lat = enumerate_subgroups(G)
    assert len(lat) == subgroups
    assert len(set(lat.class_of)) == classes
    for h in set(lat.class_of):  # each class is its least member's conjugacy orbit
        ids = [i for i, c in enumerate(lat.class_of) if c == h]
        rec = lat.subgroups[h]
        orbit = {fs for fs, _, _ in conjugacy_orbit_of_subgroup(G, rec.elements, rec.generators)}
        assert ids[0] == h and {lat.subgroups[i].elements for i in ids} == orbit


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
    assert mu[lattice_ids(lat)[frozenset({0})]] == 3
    for i, e in enumerate(lat.subgroups):
        if e.order == 2:
            assert mu[i] == -1


def test_moebius_defining_identity():
    for G in [symmetric_group(3), symmetric_group(4), cyclic_group(12),
              alternating_group(4)]:
        lat = enumerate_subgroups(G)
        mu = moebius_to_top(lat)
        _, above = pairwise_inclusion(lat.subgroups)
        for h in range(len(lat.subgroups)):
            interval = [*above[h], h]
            total = sum(mu[k] for k in interval)
            assert total == (1 if h == lat.index_of_parent else 0)


def test_join_closure_invariant():
    lat = enumerate_subgroups(symmetric_group(4))
    subs, ids = lat.subgroups, lattice_ids(lat)
    for i in range(0, len(subs), 3):
        for j in range(0, len(subs), 5):
            gens = subs[i].generators + subs[j].generators
            assert lat._span(gens) in ids


def test_conjugation_permutes_subgroup_list():
    G = alternating_group(5)
    lat = enumerate_subgroups(G)
    all_sets = set(lattice_ids(lat))
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
    """Each overgroup is a proper superset of order divisible by |H|; among
    given ids, ``overgroups`` keeps those of the full query, in their order."""
    lat = enumerate_subgroups(symmetric_group(4))
    evens = range(0, len(lat), 2)[::-1]
    for i, entry in enumerate(lat.subgroups):
        for j in lat.overgroups(i):
            assert lat.subgroups[j].order % entry.order == 0
            assert entry.elements < lat.subgroups[j].elements
        assert lat.overgroups(i, evens) == [j for j in evens if j in lat.overgroups(i)]


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

