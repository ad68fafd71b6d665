import os
import pickle
import random
from functools import lru_cache
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    SubgroupRecord,
    _closure,
    alternating_group,
    conjugate_indices,
    cyclic_group,
    diagonal_embedding,
    direct_power,
    embed_in_power,
    generated_order,
    intermediate_subgroups,
    is_normal_subgroup,
    minimal_normal_subgroups,
    normal_closure,
    quotient_representation,
    right_coset_reps,
    subgroup_indices,
    symmetric_group,
    sylow_subgroup,
)
from cosetposets import a7, groups
from cosetposets.catalog import load_catalog
from cosetposets import generation
from cosetposets.generation import universally_p_generates
from cosetposets.perm import Permutation, _ID256, _inv_bytes, _mul_bytes, parse_permutation
from cosetposets.lattice import enumerate_subgroups
import oracles
from oracles import (chain_normal_closure, full_scan_sylow_subgroup, is_abelian, product_table,
                     reference_build_chain, translate_intermediate_subgroups)


def perms(*texts, degree):
    return [parse_permutation(t, degree) for t in texts]


CATALOG = {e.name: e for e in load_catalog(verify=False)}
SMALL_CATALOG = {name: e for name, e in CATALOG.items() if e.expected_order <= 60}
RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


@lru_cache(maxsize=None)
def _catalog_group(name):
    return CATALOG[name].build()


@lru_cache(maxsize=None)
def _symmetric(n):
    return symmetric_group(n)


def test_empty_generators_give_trivial_group():
    G = PermutationGroup([], degree=3)
    assert G.order == 1
    assert Permutation.identity(3) in G


def test_single_transposition():
    G = PermutationGroup(perms("(1,2)", degree=2))
    assert G.order == 2


def test_a9_order_with_orbit_product_crosscheck():
    G = PermutationGroup(perms("(1,2,3)", "(1,2,3,4,5,6,7,8,9)", degree=9))
    assert G.order == 181440
    prod = 1
    for lv in G._levels:
        prod *= len(lv.orbit)
    assert prod == G.order


def test_membership():
    A4 = alternating_group(4)
    assert parse_permutation("(1,2,3)", 4) in A4
    assert parse_permutation("(1,2)", 4) not in A4
    C5 = cyclic_group(5)
    assert parse_permutation("(1,3,5,2,4)", 5) in C5
    with pytest.raises(ValueError):
        C5.contains(parse_permutation("(1,2)", 2))


def test_membership_matches_exhaustive_enumeration():
    for G in [symmetric_group(4), alternating_group(4), cyclic_group(6)]:
        elems = set(G.elements())
        n = G.degree
        from itertools import permutations as iterperms

        for images in iterperms(range(n)):
            p = Permutation(images)
            assert (p in G) == (p in elems)


def test_named_group_orders():
    assert symmetric_group(5).order == 120
    assert alternating_group(6).order == 360
    assert alternating_group(7).order == 2520
    assert cyclic_group(12).order == 12


def test_deterministic_construction():
    gens = perms("(1,2,3,4,5)", "(3,4,5)", degree=5)
    G1 = PermutationGroup(gens)
    G2 = PermutationGroup(gens)
    assert G1.base == G2.base
    assert [lv.gens for lv in G1._levels] == [lv.gens for lv in G2._levels]
    assert [b for b in G1.element_bytes()] == [b for b in G2.element_bytes()]


def test_conjugate_group():
    K = PermutationGroup(perms("(1,2)", degree=3))
    conj = K.conjugate_by(parse_permutation("(2,3)", 3))
    assert parse_permutation("(1,3)", 3) in conj
    assert conj.order == 2
    rng = random.Random(3)
    S7 = symmetric_group(7)
    elems = S7.elements()
    K = sylow_subgroup(alternating_group(7), 2)
    for _ in range(5):
        g = elems[rng.randrange(len(elems))]
        assert K.conjugate_by(g).order == K.order


def test_identity_conjugation_is_identity():
    K = PermutationGroup(perms("(1,2,3)", degree=4))
    assert K.conjugate_by(Permutation.identity(4)) == K


def test_sylow_small_groups():
    assert sylow_subgroup(alternating_group(4), 2).order == 4
    assert sylow_subgroup(symmetric_group(3), 3).order == 3
    assert sylow_subgroup(alternating_group(7), 2).order == 8
    assert sylow_subgroup(cyclic_group(5), 3).order == 1


def test_sylow_divides_exactly():
    for G, p in [(symmetric_group(4), 2), (symmetric_group(4), 3),
                 (alternating_group(5), 2), (alternating_group(5), 5),
                 (alternating_group(6), 3)]:
        P = sylow_subgroup(G, p)
        cofactor = G.order // P.order
        assert P.order * cofactor == G.order
        assert cofactor % p != 0
        assert P.is_subgroup_of(G)


def test_sylow_wreath_construction_for_large_alternating():
    P9 = sylow_subgroup(alternating_group(9), 2)
    assert P9.order == 64
    assert P9.is_subgroup_of(alternating_group(9))
    P10 = sylow_subgroup(alternating_group(10), 2)
    assert P10.order == 128
    P8s = sylow_subgroup(symmetric_group(9), 2)
    assert P8s.order == 128


@pytest.mark.parametrize("build", [alternating_group, symmetric_group], ids=["A8", "S8"])
def test_degree_8_sylow2_is_the_scanned_subgroup_on_other_generators(build):
    """At degree 8 one dyadic block covers every point, so the wreath
    construction builds the element scan's subgroup, but not on the scan's
    generators."""
    G = build(8)
    P, Q = sylow_subgroup(G, 2), full_scan_sylow_subgroup(G, 2)
    assert P == Q
    assert P.generators != Q.generators


def test_direct_power():
    A5 = alternating_group(5)
    assert direct_power(A5, 1).order == 60
    sq = direct_power(cyclic_group(2), 2)
    assert sq.order == 4 and sq.degree == 4
    A7sq = direct_power(alternating_group(7), 2)
    assert A7sq.order == 2520 ** 2 and A7sq.degree == 14
    g = embed_in_power(parse_permutation("(1,2,3)", 7), 1, 2)
    assert g in A7sq


def test_diagonal_embedding():
    C5 = cyclic_group(5)
    D = diagonal_embedding(C5, 2)
    assert D.order == 5 and D.degree == 10
    K = sylow_subgroup(alternating_group(5), 2)
    D3 = diagonal_embedding(K, 3)
    assert D3.order == K.order
    assert diagonal_embedding(K, 1) == K


def test_diagonal_inside_direct_power():
    A5 = alternating_group(5)
    K = PermutationGroup(perms("(1,2,3,4,5)", degree=5))
    power = direct_power(A5, 2)
    diag = diagonal_embedding(K, 2)
    assert diag.is_subgroup_of(power)


def test_subgroup_record_is_a_value_of_its_three_fields():
    """Census comparisons (``lift_census``, the A_7 census) read records as
    values: equal and hashed by order, elements and generators, immutable,
    and shown field by field."""
    rec = SubgroupRecord(2, frozenset({0, 1}), (1,))
    same = SubgroupRecord(2, frozenset({1, 0}), (1,))
    assert rec == same and hash(rec) == hash(same) and len({rec, same}) == 1
    for other in (SubgroupRecord(3, frozenset({0, 1}), (1,)),
                  SubgroupRecord(2, frozenset({0, 2}), (1,)),
                  SubgroupRecord(2, frozenset({0, 1}), (1, 1))):
        assert rec != other
    assert rec != (2, frozenset({0, 1}), (1,))
    assert repr(rec) == "SubgroupRecord(order=2, elements=frozenset({0, 1}), generators=(1,))"
    with pytest.raises(AttributeError):
        rec.order = 3
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_quotient_representation():
    S3 = symmetric_group(3)
    A3 = PermutationGroup(perms("(1,2,3)", degree=3))
    q = quotient_representation(S3, A3)
    assert q.group.order == 2 and q.group.degree == 2

    Z4 = cyclic_group(4)
    Z2 = PermutationGroup(perms("(1,3)(2,4)", degree=4))
    assert quotient_representation(Z4, Z2).group.order == 2

    S4 = symmetric_group(4)
    V4 = PermutationGroup(perms("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    q = quotient_representation(S4, V4)
    assert q.group.order == 6 and q.group.degree == 6
    assert not is_abelian(q.group)
    assert q.group.order * V4.order == S4.order


def test_quotient_requires_normality():
    S3 = symmetric_group(3)
    C2 = PermutationGroup(perms("(1,2)", degree=3))
    with pytest.raises(ValueError):
        quotient_representation(S3, C2)


def test_quotient_refuses_an_order_that_is_not_the_index(monkeypatch):
    """A quotient of S4 by V4 built on its first generator's image alone,
    the image of (1,2) in S3, a transposition, has order 2, not 6."""
    S4 = symmetric_group(4)
    V4 = PermutationGroup(perms("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    whole = groups.PermutationGroup
    monkeypatch.setattr(groups, "PermutationGroup",
                        lambda gens, degree: whole(gens[:1], degree))
    with pytest.raises(RuntimeError, match=r"^\|G/N\| \|N\| = 2 \* 4 is not \|G\| = 24$"):
        quotient_representation(S4, V4)


def test_quotient_generator_images_respect_multiplication():
    """For each catalog group of order <= 60 and each minimal normal N != G:
    with the cosets labelled in the order a breadth-first walk from N under
    G's generators meets them (``oracles.quotient_coset_reps``), the image
    of each generator, and of each product of two, maps N r to N r g."""
    for entry in SMALL_CATALOG.values():
        G = _catalog_group(entry.name)
        if G.order == 1:
            continue
        elems, index = G.element_bytes(), G.element_index()
        for N in minimal_normal_subgroups(G):
            if N.order == G.order:
                continue
            q = quotient_representation(G, N)
            # same deterministic labelling
            assert quotient_representation(G, N).group.generators == q.group.generators
            reps = [Permutation._from_bytes(elems[x]) for x in oracles.quotient_coset_reps(G, N)]
            cosets = [{index[(m * r)._b] for m in N.elements()} for r in reps]
            assert len({frozenset(c) for c in cosets}) == G.order // N.order
            assert [index[r._b] for r in reps] == [min(c) for c in cosets], entry.name
            pairs = list(zip(G.generators, q.group.generators))
            for (a, qa), (b, qb) in product(pairs, repeat=2):
                for g, qg in ((a, qa), (a * b, qa * qb)):
                    for j, r in enumerate(reps):
                        assert N.contains(r * g * reps[qg(j + 1) - 1].inverse()), entry.name


def test_normal_closure_and_normality():
    S4 = symmetric_group(4)
    v = parse_permutation("(1,2)(3,4)", 4)
    V4 = normal_closure(S4, [v])
    assert V4.order == 4
    assert is_normal_subgroup(S4, V4)


def test_normal_closure_matches_chain_oracle():
    """Same generators, hence the same group, as the stabilizer-chain closure,
    for every cyclic subgroup of every catalog group of order <= 60."""
    for entry in SMALL_CATALOG.values():
        G = _catalog_group(entry.name)
        for gens in G._cyclic_table()[0].values():
            seed = [Permutation._from_bytes(G.element_bytes()[gens[0]])]
            expected = chain_normal_closure(G, seed)
            got = normal_closure(G, seed)
            assert got.generators == expected.generators, entry.name
            assert got.order == expected.order and is_normal_subgroup(G, got)


def test_minimal_normal_subgroups():
    S4 = symmetric_group(4)
    mins = minimal_normal_subgroups(S4)
    assert [m.order for m in mins] == [4]
    Z6 = cyclic_group(6)
    assert sorted(m.order for m in minimal_normal_subgroups(Z6)) == [2, 3]
    A5 = alternating_group(5)
    assert [m.order for m in minimal_normal_subgroups(A5)] == [60]
    with pytest.raises(ValueError):
        minimal_normal_subgroups(PermutationGroup([], degree=2))


def test_minimal_normal_subgroups_match_per_cyclic_oracle():
    """One closure per class of cyclic subgroups gives the generator lists of
    one closure per cyclic subgroup, on every catalog group below A_7 (A_7
    and S_7 are compared under RUN_SLOW)."""
    for name, entry in CATALOG.items():
        G = _catalog_group(name)
        if 1 < G.order < 2520:
            got = minimal_normal_subgroups(G)
            expected = oracles.per_cyclic_minimal_normal_subgroups(G)
            assert [m.generators for m in got] == [m.generators for m in expected], name


def _count_normal_closures(monkeypatch) -> list[list[int]]:
    """Record the seeds of each ``groups._normal_closure`` call."""
    calls = []
    closure = groups._normal_closure

    def counted(G, gens):
        calls.append(list(gens))
        return closure(G, gens)

    monkeypatch.setattr(groups, "_normal_closure", counted)
    return calls


def test_minimal_normal_subgroups_close_one_cyclic_subgroup_per_class(monkeypatch):
    calls = _count_normal_closures(monkeypatch)
    for name in CATALOG:
        G = _catalog_group(name)
        if 1 < G.order < 2520:
            calls.clear()
            minimal_normal_subgroups(G)
            subgroups, _, classes = G._cyclic_table()
            least = [gens[0] for gens in subgroups.values()]
            assert len(calls) == len(classes) - 1, name
            assert [seeds[0] for seeds in calls] == [least[j] for j, _ in classes[1:]], name


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_minimal_normal_subgroups_at_size(monkeypatch):
    """A_7 and S_7 against the per-cyclic-subgroup oracle; A_8 is simple, with
    11 classes of nontrivial cyclic subgroups."""
    for G in (alternating_group(7), symmetric_group(7)):
        got = minimal_normal_subgroups(G)
        expected = oracles.per_cyclic_minimal_normal_subgroups(G)
        assert [m.generators for m in got] == [m.generators for m in expected]
    calls = _count_normal_closures(monkeypatch)
    A8 = alternating_group(8)
    assert minimal_normal_subgroups(A8) == [A8]
    assert len(calls) == 11


@pytest.mark.parametrize("name", [*SMALL_CATALOG, "PSL(2,7)", "A6"])
def test_cyclic_table_certificates(name):
    """The classes of the cached cyclic table partition the cyclic subgroups;
    each class size divides |G|, each representative is the least position
    in its class, and each class is the set of conjugates of its
    representative by every element of G."""
    G = _catalog_group(name)
    subgroups, position, classes = G._cyclic_table()
    assert G._cyclic_table() is G._cyclic_table()
    assert groups._conjugation_rows(G) is groups._conjugation_rows(G)
    keys = list(subgroups)
    where = {fs: j for j, fs in enumerate(keys)}
    assert all(position[i] == where[fs] for fs, gens in subgroups.items() for i in gens)
    assert sum(size for _, size in classes) == len(subgroups)
    assert all(G.order % size == 0 for _, size in classes)
    seen: set[int] = set()
    for j, size in classes:
        cls = {where[conjugate_indices(G, keys[j], g)] for g in G.element_bytes()}
        assert len(cls) == size and min(cls) == j and not cls & seen, name
        seen |= cls
    assert seen == set(range(len(keys)))


def test_normal_closure_refuses_a_seed_outside_the_group():
    A4 = alternating_group(4)
    with pytest.raises(ValueError, match=r"^seed \(1,2\) of degree 4 is not in G of degree 4$"):
        normal_closure(A4, [parse_permutation("(1,2)", 4)])
    with pytest.raises(ValueError, match=r"^seed \(1,2,3\) of degree 5 is not in G of degree 4$"):
        normal_closure(A4, [parse_permutation("(1,2,3)", 5)])


def test_generated_order_early_stop():
    target = factorial(9) // 2
    c = parse_permutation("(1,2,3,4,5,6,7,8,9)", 9)
    P = sylow_subgroup(alternating_group(9), 2)
    got = generated_order([c, *P.generators], stop_at=target)
    assert got == target


def test_generated_order_proper_subgroup_unaffected_by_stop():
    got = generated_order(perms("(1,2)(3,4)", "(1,3)(2,4)", degree=4), stop_at=24)
    assert got == 4


def test_intermediate_subgroups_of_v4_in_s4():
    S4 = symmetric_group(4)
    V4 = PermutationGroup(perms("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    overgroups = intermediate_subgroups(S4, V4)
    # V4 < A4 < S4 and V4 < D8 (three copies) < S4
    assert sorted(r.order for r in overgroups) == [4, 8, 8, 8, 12, 24]


def _prime(q):
    return all(q % d for d in range(2, q))


def _census_cases():
    """The named cases, then every catalog group of order 2..360 over each
    of its Sylow subgroups, and over the trivial subgroup up to order 60."""
    cases = ["S4/V4", "A5/P", "A7/P", "S7/P", "A5^2/P"]
    for e in CATALOG.values():
        n = e.expected_order
        if 1 < n <= 360:
            cases += [f"{e.name}/Sylow{p}" for p in range(2, n + 1) if n % p == 0 and _prime(p)]
            if n <= 60:
                cases.append(f"{e.name}/1")
    return cases


def _census_case(case):
    if case == "S4/V4":
        return symmetric_group(4), PermutationGroup(perms("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    if case == "A5/P":
        A5 = alternating_group(5)
        return A5, sylow_subgroup(A5, 2)
    if case in ("A7/P", "S7/P"):
        env = a7.build_environment()
        return (env.A7 if case == "A7/P" else env.S7), env.P
    if case == "A5^2/P":
        # the suite's diagonal check: a Sylow 2-subgroup of A5 on each block
        A5 = alternating_group(5)
        return direct_power(A5, 2), PermutationGroup(
            [embed_in_power(g, b, 2) for b in range(2) for g in sylow_subgroup(A5, 2).generators],
            10)
    name, sub = case.rsplit("/", 1)
    G = _catalog_group(name)
    if sub == "1":
        return G, PermutationGroup([], degree=G.degree)
    return G, sylow_subgroup(G, int(sub.removeprefix("Sylow")))


def _counted_census(G, H, monkeypatch):
    """The census records, its closures, and its joins settled as a known
    record by an order test that reached the order it stopped at."""
    calls = {"closures": 0, "known": 0}
    closure, order = groups._closure, groups._generated_order

    def counted_closure(*args, **kwargs):
        calls["closures"] += 1
        return closure(*args, **kwargs)

    def order_test(gens, degree, stop_at=None):
        got = order(gens, degree, stop_at=stop_at)
        calls["known"] += got == stop_at
        return got

    monkeypatch.setattr(groups, "_closure", counted_closure)
    monkeypatch.setattr(groups, "_generated_order", order_test)
    records = intermediate_subgroups(G, H)
    monkeypatch.undo()
    return records, calls["closures"], calls["known"]


@pytest.mark.parametrize("case", _census_cases())
def test_intermediate_subgroups_match_translate_oracle(case, monkeypatch):
    """Double cosets found as orbits of K on its right cosets give the same
    records, generators included, as marking them by translated image
    tables, with one join per class of double cosets under g -> g^e (e prime
    to |g|), counted by the oracle: the census closes only the joins that
    give a new record, and settles every other join by an order test that
    reaches the order of a record already found."""
    G, H = _census_case(case)
    records, closures, known = _counted_census(G, H, monkeypatch)
    expected, joins = translate_intermediate_subgroups(G, H)
    assert records == expected
    assert closures == len(records)
    # every join but those giving a new record (all but the start's closure)
    assert closures - 1 + known == joins


@pytest.mark.parametrize("case, joins", [("A7/P", 77), ("S7/P", 216)])
def test_census_makes_one_join_per_power_class(case, joins, monkeypatch):
    """The A_7 and S_7 censuses over P join once per class of double cosets
    under g -> g^e, not once per double coset (99 and 275 of those)."""
    G, H = _census_case(case)
    _, closures, known = _counted_census(G, H, monkeypatch)
    assert closures - 1 + known == joins


def test_census_refuses_a_closure_that_repeats_a_record(monkeypatch):
    """With every order test failing, a join that is a known record is closed
    again, and the census's own certificate raises."""
    monkeypatch.setattr(groups, "_generated_order", lambda gens, degree, stop_at=None: 0)
    G, H = _census_case("S4/V4")
    with pytest.raises(RuntimeError, match="gave a record already found"):
        intermediate_subgroups(G, H)


def _lift_case(case):
    """(G, G0, H): G0 of index 2 in G, and H <= G0 the census's base."""
    if case == "S7/P":
        env = a7.build_environment()
        return env.S7, env.A7, env.P
    if case == "S3/C3":
        C3 = PermutationGroup(perms("(1,2,3)", degree=3))
        return symmetric_group(3), C3, C3
    if case == "S5/Sylow2(A5)":
        A5 = alternating_group(5)
        return symmetric_group(5), A5, sylow_subgroup(A5, 2)
    # over the trivial group a 4-cycle normalizes L = 1 with its square outside L
    H = _census_case("S4/V4")[1] if case == "S4/V4" else PermutationGroup([], degree=4)
    return symmetric_group(4), alternating_group(4), H


@pytest.mark.parametrize("case", ["S7/P", "S4/V4", "S4/1", "S3/C3", "S5/Sylow2(A5)"])
def test_lift_census_matches_census(case):
    """Lifting H's census over G0 gives H's census over G, record for record
    in the census's order, and each lifted record's generators close to its
    elements."""
    G, G0, H = _lift_case(case)
    lifted = groups.lift_census(G, G0, intermediate_subgroups(G0, H))
    assert ([(r.order, r.elements) for r in lifted]
            == [(r.order, r.elements) for r in intermediate_subgroups(G, H)])
    assert all(_closure(G, r.generators) == r.elements for r in lifted)


def test_lift_census_certifies_each_lift(monkeypatch):
    """A record that misstates its order lifts to a K of less than twice
    that order; with every element labelled as its own coset, each lift comes
    once per element of its coset, and the census repeats a record."""
    G, G0, H = _lift_case("S4/V4")
    V4 = intermediate_subgroups(G0, H)[0]
    with pytest.raises(RuntimeError, match="does not double it"):
        groups.lift_census(G, G0, [SubgroupRecord(8, V4.elements, V4.generators)])
    monkeypatch.setattr(groups, "right_coset_reps",
                        lambda G, members, finer=None, finer_reps=None: range(G.order))
    with pytest.raises(RuntimeError, match="repeats a record"):
        groups.lift_census(G, G0, [V4])


def test_lift_census_refuses_a_subgroup_not_of_index_2():
    G, H = _census_case("S4/V4")
    with pytest.raises(ValueError, match="not of index 2"):
        groups.lift_census(G, H, [])


def test_lift_census_refuses_a_subgroup_outside_g():
    C4 = cyclic_group(4)  # whose involution is (1,3)(2,4)
    with pytest.raises(ValueError, match="G0 is not a subgroup of G"):
        groups.lift_census(C4, PermutationGroup(perms("(1,2)(3,4)", degree=4)), [])


def test_lift_census_refuses_a_record_outside_g0():
    """A census over G is no census over G0: its records reach past G0's
    table."""
    G, G0, H = _lift_case("S4/V4")
    lifted = groups.lift_census(G, G0, intermediate_subgroups(G0, H))
    with pytest.raises(ValueError, match="does not lie inside G0"):
        groups.lift_census(G, G0, lifted)


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if e.expected_order > 1])
def test_sylow_subgroup_matches_full_scan(name):
    """The lazy p-element scan extends P by the same elements as a scan of
    the p-parts of the whole element table, for every prime of |G|."""
    G = CATALOG[name].build()
    for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and _prime(q)):
        assert (groups._scan_sylow_subgroup(G, p).generators
                == full_scan_sylow_subgroup(G, p).generators)


@pytest.mark.parametrize("build", [symmetric_group, alternating_group], ids=["S", "A"])
@pytest.mark.parametrize("n", range(2, 13))
def test_wreath_sylow2_of_symmetric_and_alternating_groups(build, n):
    """The wreath Sylow 2-subgroup of S_n and A_n has order |G|_2 and lies in
    G, and G's element table is never listed; up to degree 8 it is, as a
    set, the element scan's P."""
    G = build(n)
    P = sylow_subgroup(G, 2)
    assert P.order == groups._p_part(G.order, 2)
    assert P.is_subgroup_of(G)
    assert G._elements is None
    if n <= 8 and P.order > 1:
        scanned = groups._scan_sylow_subgroup(G, 2)
        assert set(P.element_bytes()) == set(scanned.element_bytes())


def test_element_budget_guard():
    big = symmetric_group(11)
    with pytest.raises(BudgetExceededError):
        big.element_bytes()


@pytest.mark.parametrize("call", [
    lambda G, c: sylow_subgroup(G, 3),
    lambda G, c: minimal_normal_subgroups(G),
    lambda G, c: intermediate_subgroups(G, c),
    lambda G, c: universally_p_generates(G, c, 2),
], ids=["sylow_subgroup", "minimal_normal_subgroups", "intermediate_subgroups",
        "universally_p_generates"])
def test_enumerating_calls_exceed_the_element_budget(call):
    """Each call that lists the elements of S_11 fails in element_bytes."""
    G = _symmetric(11)
    cycle = PermutationGroup([Permutation.from_cycles([tuple(range(1, 12))], 11)])
    with pytest.raises(BudgetExceededError):
        call(G, cycle)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
def test_generated_order_matches_closure(case):
    """Schreier-Sims order and the coset closure in S_n against breadth-first
    products."""
    n, images = case
    perms = [Permutation(p) for p in images]
    gens = [g._b for g in perms]
    expected = _bfs_closure(gens, n)
    assert generated_order(perms, n) == len(expected)
    Sn = _symmetric(n)
    index = Sn.element_index()
    assert _closure(Sn, [index[g] for g in gens]) == {index[b] for b in expected}


def _assert_chain_matches_reference(levels, reference, degree):
    """Level by level: base, generators, transversal, inverses and cursors
    in walk order, the inverses with their padding removed; and each
    level's padded tables against its generators."""
    tail = _ID256[degree:]
    unpadded = [{p: u[:degree] for p, u in lv.inverse.items()} for lv in levels]
    assert [(lv.base, lv.gens, [*lv.orbit.items()], [*inverse.items()], [*lv.checked.items()])
            for lv, inverse in zip(levels, unpadded)] == [
        (lv.base, lv.gens, [*lv.orbit.items()], [*lv.inverse.items()], [*lv.checked.items()])
        for lv in reference]
    for lv in levels:
        assert all(u[degree:] == tail for u in lv.inverse.values())
        assert lv.pads == [g + tail for g in lv.gens]
        assert lv.inverse_pads == [_inv_bytes(g) + tail for g in lv.gens]


def _chain_order_matching_reference(gens, degree, stop_at=None, start=()):
    """``_build_chain``'s order after checking its chain against
    ``reference_build_chain``'s. A start chain is first checked against the
    reference chain of its level-0 generators, which the reference then
    extends."""
    reference_start = reference_build_chain(start[0].gens, degree) if start else []
    _assert_chain_matches_reference(start, reference_start, degree)
    levels = groups._build_chain(gens, degree, stop_at=stop_at, start=start)
    reference = reference_build_chain(gens, degree, stop_at=stop_at, start=reference_start)
    _assert_chain_matches_reference(levels, reference, degree)
    return groups._chain_order(levels)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_chain_matches_reference_on_catalog_generators(name):
    """Every catalog group's chain, the chain grown by its other generators
    from the chain of its first, and a chain stopped at each divisor of its
    order: the divisors the transversal product passes through return there,
    the others return the true order."""
    G = _catalog_group(name)
    gens = G._gens_bytes()
    assert _chain_order_matching_reference(gens, G.degree) == G.order
    start = PermutationGroup(G.generators[:1], G.degree)._levels
    assert _chain_order_matching_reference(gens[1:], G.degree, start=start) == G.order
    for d in (d for d in range(1, G.order + 1) if G.order % d == 0):
        assert _chain_order_matching_reference(gens, G.degree, stop_at=d) in (d, G.order)


def test_chain_stop_at_passed_through_and_jumped_over():
    """S_4 from (1,2) and (1,2,3,4): the transversal product goes 4, 12, 24,
    so a stop at 4 returns a partial chain of that order, a stop at 8 is
    jumped over and the true order 24 comes back, as it does with none."""
    gens = [g._b for g in perms("(1,2)", "(1,2,3,4)", degree=4)]
    assert _chain_order_matching_reference(gens, 4, stop_at=4) == 4
    assert len(groups._build_chain(gens, 4, stop_at=4)) == 1
    assert _chain_order_matching_reference(gens, 4, stop_at=8) == 24
    assert _chain_order_matching_reference(gens, 4, stop_at=None) == 24


def _order_tests(module, call, monkeypatch):
    """The arguments of every ``_generated_order`` call that ``call()`` makes
    through ``module``, the start chain included."""
    tests, order = [], module._generated_order

    def captured(gens, degree, stop_at=None, start=()):
        tests.append((list(gens), degree, stop_at, start))
        return order(gens, degree, stop_at=stop_at, start=start)

    monkeypatch.setattr(module, "_generated_order", captured)
    call()
    monkeypatch.undo()
    return tests


@pytest.mark.parametrize("case", ["A7/P", "S7/P"])
def test_chain_matches_reference_on_census_order_tests(case, monkeypatch):
    """The order tests of the A_7 and S_7 censuses over P, each stopped at
    the order of the smallest record found that holds the join."""
    G, H = _census_case(case)
    tests = _order_tests(groups, lambda: intermediate_subgroups(G, H), monkeypatch)
    assert len(tests) == {"A7/P": 72, "S7/P": 212}[case]
    for gens, degree, stop_at, start in tests:
        assert start == ()
        _chain_order_matching_reference(gens, degree, stop_at)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_chain_matches_reference_at_size(monkeypatch):
    """A_n and S_n for n = 8..10 from their generators, and the 61 and 277
    order tests of the A_9 and A_10 long-cycle sweeps, each extending the
    chain of P."""
    for n in range(8, 11):
        for G in (alternating_group(n), symmetric_group(n)):
            assert _chain_order_matching_reference(G._gens_bytes(), n) == G.order
    for n, count in ((9, 61), (10, 277)):
        tests = _order_tests(generation, lambda: generation.check_alternating_claims(n),
                             monkeypatch)
        assert len(tests) == count
        for gens, degree, stop_at, start in tests:
            assert len(gens) == 1 and start
            assert _chain_order_matching_reference(gens, degree, stop_at, start) == stop_at


def _assert_chain_invariants(levels, degree):
    """What any Schreier-Sims walk leaves on every level: base^u_p = p and
    u_p u_p^-1 = 1 for each orbit point p, an orbit closed under the
    level's generators, and generators that fix every earlier base point."""
    ident = _ID256[:degree]
    for k, lv in enumerate(levels):
        assert lv.orbit.keys() == lv.inverse.keys() == lv.checked.keys()
        for p, u in lv.orbit.items():
            assert u[lv.base] == p
            assert _mul_bytes(u, lv.inverse[p][:degree]) == ident
        assert all(g[p] in lv.orbit for g in lv.gens for p in lv.orbit)
        assert all(g[earlier.base] == earlier.base for g in lv.gens for earlier in levels[:k])


def _chain_snapshot(levels):
    return [(lv.base, lv.gens[:], lv.pads[:], lv.inverse_pads[:], [*lv.orbit.items()],
             [*lv.inverse.items()], [*lv.checked.items()]) for lv in levels]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_chain_invariants_on_catalog_generators(name):
    """Each catalog group's chain, and its chain grown from the chain of its
    first generator by the others: the invariants hold on both, both have
    G's order and hold G's generators, and the start chain is untouched."""
    G = _catalog_group(name)
    gens = G._gens_bytes()
    _assert_chain_invariants(G._levels, G.degree)
    start = PermutationGroup(G.generators[:1], G.degree)._levels
    before = _chain_snapshot(start)
    levels = groups._build_chain(gens[1:], G.degree, start=start)
    _assert_chain_invariants(levels, G.degree)
    assert groups._chain_order(levels) == G.order
    assert all(groups._strip(g, levels, 0)[0] == _ID256[:G.degree] for g in gens)
    assert _chain_snapshot(start) == before


@pytest.mark.parametrize("n", [7, 8, 9])
def test_sweep_order_tests_seeded_from_p_match_unseeded(n, monkeypatch):
    """The 9, 9 and 61 order tests of the A_7, A_8 and A_9 long-cycle
    sweeps each extend P's chain by one cycle c: the invariants hold, the
    order is that of <c, P> built from no start chain, and P's chain is
    the one a fresh P builds."""
    tests = _order_tests(generation, lambda: generation.check_alternating_claims(n),
                         monkeypatch)
    assert len(tests) == {7: 9, 8: 9, 9: 61}[n]
    P = sylow_subgroup(alternating_group(n), 2)
    start = tests[0][3]
    assert all(t[3] is start for t in tests)
    for gens, degree, stop_at, _ in tests:
        levels = groups._build_chain(gens, degree, stop_at=stop_at, start=start)
        _assert_chain_invariants(levels, degree)
        assert groups._chain_order(levels) == groups._generated_order(
            [*gens, *P._gens_bytes()], degree)
    assert _chain_snapshot(start) == _chain_snapshot(P._levels)


def _bfs_closure(gens, degree):
    """Oracle: the generated subgroup by breadth-first right multiplication."""
    out = {_ID256[:degree]}
    queue = list(out)
    for x in queue:
        for g in gens:
            y = _mul_bytes(x, g)
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


def test_closure_of_the_group_is_its_full_set():
    """A closure that reaches G returns G's one cached full index set, and
    S_4's index-2 subgroup A_4 is grown exactly."""
    S4 = symmetric_group(4)
    index = S4.element_index()
    full = _closure(S4, [index[g._b] for g in S4.generators])
    assert full is S4._full_set() and full == frozenset(range(24))
    assert _closure(S4, [index[parse_permutation("(1,2)", 4)._b]], full) is full
    A4 = _closure(S4, [index[g._b] for g in alternating_group(4).generators])
    assert A4 == {index[b] for b in alternating_group(4).element_bytes()}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_closure_from_subgroup_matches_breadth_first(data):
    """<gens> grown from <gens[:k]> in a catalog group, against breadth-first
    products; when <gens> is G the result is G's cached full index set."""
    G = _catalog_group(data.draw(st.sampled_from(sorted(SMALL_CATALOG))))
    elems, index = G.element_bytes(), G.element_index()
    gens = data.draw(st.lists(st.integers(0, len(elems) - 1), max_size=4))
    k = data.draw(st.integers(0, len(gens)))
    start = frozenset(index[b] for b in _bfs_closure([elems[i] for i in gens[:k]], G.degree))
    expected = {index[b] for b in _bfs_closure([elems[i] for i in gens], G.degree)}
    got = _closure(G, gens, start)
    assert got == expected
    assert (got is G._full_set()) == (len(expected) == len(elems))


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_subgroup_indices_match_element_table(name):
    """Every subgroup H of a catalog group of order <= 60, closed from its
    generators on G's table, is the map of H's element table into G's; H's
    own table is not built by the closure, and once it is built the map of
    it gives the same set. A group outside G raises KeyError."""
    G = _catalog_group(name)
    index = G.element_index()
    for rec in enumerate_subgroups(G).subgroups:
        H = PermutationGroup([Permutation._from_bytes(G.element_bytes()[i])
                              for i in rec.generators], G.degree)
        got = subgroup_indices(G, H)
        assert H._elements is None
        assert got == rec.elements == {index[b] for b in H.element_bytes()}
        assert subgroup_indices(G, H) == got
    Sn = _symmetric(G.degree)
    if G.order < Sn.order:
        with pytest.raises(KeyError):
            subgroup_indices(G, Sn)


def test_subgroup_indices_map_a_built_table_without_a_closure(monkeypatch):
    """A_7 in S_7: the closure from A_7's generators and the map of A_7's
    built table give the same set, the second with no closure; a built
    table outside G raises KeyError, as an unbuilt one does."""
    S7 = symmetric_group(7)
    closed = subgroup_indices(S7, alternating_group(7))
    A7 = alternating_group(7)
    A7.element_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("_closure was called")

    monkeypatch.setattr(groups, "_closure", refuse)
    assert subgroup_indices(S7, A7) == closed
    assert len(closed) == 2520
    transposition = PermutationGroup(perms("(1,2)", degree=7), 7)
    transposition.element_bytes()
    with pytest.raises(KeyError):
        subgroup_indices(alternating_group(7), transposition)


def test_subgroup_indices_of_g_order_makes_no_closure(monkeypatch):
    """An H of G's order is G: its index set is G's full set, with no
    closure, once H's generators are found in G's table."""
    def refuse(*args, **kwargs):
        raise AssertionError("_closure was called")

    A7 = alternating_group(7)
    monkeypatch.setattr(groups, "_closure", refuse)
    assert subgroup_indices(A7, alternating_group(7)) is A7._full_set()


def test_subgroup_indices_of_g_order_outside_g_raises():
    """A group of G's order outside G raises KeyError, before any shortcut."""
    G = PermutationGroup(perms("(1,2,3)", degree=4), 4)
    with pytest.raises(KeyError):
        subgroup_indices(G, PermutationGroup(perms("(1,2,4)", degree=4), 4))


def test_right_coset_reps_match_sorted_cosets():
    """Each element's label is the first entry of its sorted coset Hx, for
    every subgroup of every catalog group of order <= 24."""
    for entry in SMALL_CATALOG.values():
        if entry.expected_order > 24:
            continue
        G = entry.build()
        mul = product_table(G)[0]
        for rec in enumerate_subgroups(G).subgroups:
            expected = [sorted(mul[h][x] for h in rec.elements)[0] for x in range(G.order)]
            assert right_coset_reps(G, rec.elements) == expected, (entry.name, rec.order)


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if e.expected_order <= 60])
def test_right_coset_reps_read_off_a_finer_labelling(name):
    """For every pair of subgroups H <= K of a catalog group of order <= 60,
    H = 1 and H = K included, K's labels read off H's, label[fine[x]],
    equal K's labels made over the whole table, and passing H's sorted
    representatives gives the labels that reading them off ``fine`` gives."""
    G = CATALOG[name].build()
    records = enumerate_subgroups(G).subgroups
    for H in records:
        fine = right_coset_reps(G, H.elements)
        fine_reps = sorted(set(fine))
        for K in records:
            if H.elements <= K.elements:
                coarse = right_coset_reps(G, K.elements, fine)
                assert [coarse[f] for f in fine] == right_coset_reps(G, K.elements), \
                    (name, H.order, K.order)
                assert right_coset_reps(G, K.elements, fine, fine_reps) == coarse


def test_element_table_is_built_once():
    G = symmetric_group(4)
    elems = G.element_bytes()
    assert isinstance(elems, tuple) and G.element_bytes() is elems
    assert list(elems) == sorted(elems) and elems[0] == _ID256[:4]
    index = G.element_index()
    assert G.element_index() is index
    assert all(index[b] == i for i, b in enumerate(elems))


def test_cyclic_subgroups_match_power_loop():
    for entry in load_catalog(verify=False):
        if entry.expected_order > 60:
            continue
        G = entry.build()
        elems = G.element_bytes()
        ident = elems[0]
        by_subgroup = {}
        for i, b in enumerate(elems):
            powers, x = {ident}, b
            while x != ident:
                powers.add(x)
                x = _mul_bytes(x, b)
            by_subgroup.setdefault(frozenset(elems.index(y) for y in powers), []).append(i)
        got = G._cyclic_table()[0]
        assert got == by_subgroup, entry.name
        assert list(got) == list(by_subgroup), entry.name
