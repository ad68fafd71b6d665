import os
from functools import reduce
from itertools import combinations, permutations
from math import factorial
from operator import mul

import pytest

from cosetposets import generation
from cosetposets.generation import (
    GenerationReport,
    _CycleGenerators,
    _cycle_permutation,
    _long_cycle_rank,
    check_alternating_claims,
    check_diagonal_universal,
    imprimitive_parity_identity,
    sylow2_fixed_point_free_element,
    univ_gen_via_maximal_indices,
    universally_p_generates,
)
from cosetposets.cosets import build_relative_poset, fixed_cosets
from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    _generated_order,
    _is_prime,
    alternating_group,
    diagonal_embedding,
    direct_power,
    embed_in_power,
    generated_order,
    cyclic_group,
    intermediate_subgroups,
    symmetric_group,
    sylow_subgroup,
)
from cosetposets.catalog import load_catalog
from cosetposets.lattice import enumerate_subgroups
from cosetposets.perm import Permutation, _mul_bytes, cycle_string, parse_permutation
from oracles import (_long_cycle_unrank, action_fixed_points, cycle_flood_sweep,
                     every_generator_witnesses, full_scan_sylow_subgroup,
                     generator_walk_p_orbits, lattice_ids, normalizing_transposition,
                     scan_conjugate_sweep, translation_action_group, vertex_index)

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def _group(*texts, degree):
    return PermutationGroup([parse_permutation(t, degree) for t in texts], degree)


def all_cycles_of_length(points, length):
    """All distinct cyclic orderings of `length` points drawn from `points`.

    Each cycle is yielded once, anchored at its smallest chosen point.
    """
    for chosen in combinations(points, length):
        first, rest = chosen[0], chosen[1:]
        for tail in permutations(rest):
            yield (first, *tail)


# long cycles c of A_n with <c, P> != A_n; checked by _brute_sweep
FAILING_CYCLES = {5: 0, 6: 0, 7: 96, 8: 768, 9: 0}


def _brute_sweep(n):
    """Reference for check_alternating_claims: one generation test per long
    cycle, in enumeration order. Returns (verdict, witnesses, tests, failing)."""
    L = alternating_group(n)
    P = sylow_subgroup(L, 2)
    length = n if n % 2 == 1 else n - 1
    verdict, witnesses, tests, failing = True, [], 0, 0
    for cyc in all_cycles_of_length(range(1, n + 1), length):
        c = Permutation.from_cycles([cyc], n)
        tests += 1
        got = generated_order([c, *P.generators], n, stop_at=L.order)
        if got != L.order:
            verdict, failing = False, failing + 1
            if len(witnesses) < 4:
                witnesses.append({"cycle": cycle_string(c), "generated_order": got})
    return verdict, witnesses, tests, failing


def test_all_cycles_of_length_counts():
    # (k-1)! distinct k-cycles on k points, anchored at the smallest point
    assert sum(1 for _ in all_cycles_of_length(range(1, 6), 5)) == 24
    assert sum(1 for _ in all_cycles_of_length(range(1, 5), 3)) == 8


def test_five_cycle_universally_2_generates_a5():
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    report = universally_p_generates(A5, K, 2)
    assert report.verdict
    assert report.tests == report.order_tests == 6  # six Sylow 5-subgroups of A5


def test_seven_cycle_fails_in_a7():
    A7 = alternating_group(7)
    K = _group("(1,2,3,4,5,6,7)", degree=7)
    report = universally_p_generates(A7, K, 2)
    assert not report.verdict
    assert report.witnesses[0]["generated_order"] == 168


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if e.expected_order <= 360], ids=lambda e: e.name)
def test_conjugate_sweep_matches_element_scan(entry):
    """Walking the class of K under G's generators makes as many tests and
    reaches the same verdict as conjugating K by every element of G, for K
    a Sylow r-subgroup and every prime pair (p, r); each witness conjugator
    g gives <K^g, P> of the order it reports."""
    G = entry.build()
    primes = [p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)]
    for p in primes:
        P = sylow_subgroup(G, p)
        for r in primes:
            K = sylow_subgroup(G, r)
            report = universally_p_generates(G, K, p)
            scan = scan_conjugate_sweep(G, K, p)
            assert (report.verdict, report.tests, len(report.witnesses)) == (
                scan.verdict, scan.tests, len(scan.witnesses)), (p, r)
            for w in report.witnesses:
                g = parse_permutation(w["conjugator"], G.degree)
                assert g in G
                got = generated_order([*K.conjugate_by(g).generators, *P.generators])
                assert got == w["generated_order"] < G.order, (p, r, w)


def test_c3_universally_2_generates_z6():
    Z6 = cyclic_group(6)
    C3 = _group("(1,3,5)(2,4,6)", degree=6)
    assert universally_p_generates(Z6, C3, 2).verdict


def test_universal_generation_preconditions():
    A5 = alternating_group(5)
    with pytest.raises(ValueError):
        universally_p_generates(A5, _group("(1,2)", degree=5), 2)  # odd, not in A5
    with pytest.raises(ValueError):
        universally_p_generates(A5, _group("(1,2,3)", degree=5), 7)  # 7 does not divide 60


def test_conjugation_invariance_of_verdict():
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    g = parse_permutation("(1,2,3)", 5)
    assert (universally_p_generates(A5, K, 2).verdict
            == universally_p_generates(A5, K.conjugate_by(g), 2).verdict)


def test_maximal_index_remark_a5():
    A5 = alternating_group(5)
    lat = enumerate_subgroups(A5)
    assert univ_gen_via_maximal_indices(A5, 5, 2, lat)
    assert (univ_gen_via_maximal_indices(A5, 5, 2, lat)
            == universally_p_generates(A5, sylow_subgroup(A5, 5), 2).verdict)


def test_maximal_index_remark_s3():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    assert univ_gen_via_maximal_indices(S3, 3, 2, lat)


def test_remark_equivalence_sweep():
    """Index condition on maximal subgroups == direct Sylow sweep verdict."""
    groups = [symmetric_group(3), symmetric_group(4), alternating_group(4),
              alternating_group(5), cyclic_group(12)]
    for G in groups:
        lat = enumerate_subgroups(G)
        primes = sorted({p for p in range(2, G.order + 1)
                         if G.order % p == 0 and _is_prime(p)})
        for p in primes:
            for r in primes:
                direct = universally_p_generates(G, sylow_subgroup(G, r), p).verdict
                assert univ_gen_via_maximal_indices(G, r, p, lat) == direct


def test_generation_reports_do_not_share_witnesses():
    a, b = GenerationReport(True), GenerationReport(True)
    a.witnesses.append({"conjugator": "()", "generated_order": 1})
    assert b.witnesses == [] and (b.tests, b.cycles) == (0, 0)


def test_alternating_claims_small():
    assert check_alternating_claims(5).verdict
    assert check_alternating_claims(6).verdict
    report7 = check_alternating_claims(7)
    assert not report7.verdict
    assert report7.cycles == 720
    assert report7.tests == 15
    assert {w["generated_order"] for w in report7.witnesses} == {168}
    with pytest.raises(ValueError):
        check_alternating_claims(4)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_orbit_sweep_matches_brute_sweep(n):
    verdict, witnesses, tests, failing = _brute_sweep(n)
    report = check_alternating_claims(n)
    assert report.verdict == verdict
    assert report.witnesses == witnesses
    assert report.cycles == tests
    assert failing == FAILING_CYCLES[n]


def test_a8_sweep_against_the_constructed_sylow_matches_the_scanned_one(monkeypatch):
    """The A_8 sweep reads P only as a subgroup: the wreath-built P gives the
    report the element scan's P gives."""
    built = check_alternating_claims(8)
    monkeypatch.setattr(generation, "sylow_subgroup", full_scan_sylow_subgroup)
    scanned = check_alternating_claims(8)
    assert (built.tests, built.cycles) == (scanned.tests, scanned.cycles) == (15, 5760)
    assert built.verdict is scanned.verdict is False
    assert built.witnesses == scanned.witnesses


@pytest.mark.parametrize("call", [
    lambda: sylow_subgroup(alternating_group(8), 2),
    lambda: sylow_subgroup(symmetric_group(8), 2),
    lambda: check_alternating_claims(8),
], ids=["sylow_A8", "sylow_S8", "sweep_A8"])
def test_degree_8_sylow2_builds_no_element_table(call, monkeypatch):
    """No element table past S_7's order is listed for A_8's or S_8's
    Sylow 2-subgroup, nor by the A_8 sweep that uses it."""
    listed = PermutationGroup.element_bytes

    def small_only(G):
        if G.order > 5040:
            raise AssertionError(f"element table of a group of order {G.order}")
        return listed(G)

    monkeypatch.setattr(PermutationGroup, "element_bytes", small_only)
    call()


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, pytest.param(
    10, marks=pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1"))])
def test_subgroup_flood_matches_cycle_flood(n):
    report = check_alternating_claims(n)
    flood = cycle_flood_sweep(n)
    assert (report.verdict, report.tests, report.cycles, report.witnesses) == (
        flood.verdict, flood.tests, flood.cycles, flood.witnesses)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_witnesses_match_ranking_every_failing_generator(n):
    """Ranking the generators of the four least-ranked failing subgroups
    finds the witnesses that ranking every failing generator finds."""
    assert check_alternating_claims(n).witnesses == every_generator_witnesses(n)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_flood_ranks_each_cyclic_subgroup_once(n, monkeypatch):
    """One rank per cyclic subgroup <c> in the flood (A_9: 40,320 / phi(9) =
    6,720), and for the witnesses one per generator of each of the four
    least-ranked failing subgroups, or of every failing one if fewer."""
    ranked = []

    def counting_rank(cyc, n):
        ranked.append(cyc)
        return _long_cycle_rank(cyc, n)

    monkeypatch.setattr(generation, "_long_cycle_rank", counting_rank)
    report = check_alternating_claims(n)
    assert report.cycles == {7: 720, 8: 5760, 9: 40320}[n]
    # phi(7) = phi(9) = 6 generators per cyclic subgroup
    assert len(ranked) == report.cycles // 6 + 6 * min(4, FAILING_CYCLES[n] // 6)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_table_orbits_match_generator_walk(n, monkeypatch):
    """Each orbit the sweep reads off P's element table, from the least
    ranked canonical cycle not yet covered, and extends by its t-image
    when that is a second P-orbit, is the orbit of <P, t> that a breadth
    first walk under P's generators and t reaches from the same cycle, and
    the union of the walked P-orbits it meets."""
    read = []
    table_orbit = _CycleGenerators.orbit

    def recording(self, cyc, tables):
        read.append(table_orbit(self, cyc, tables))  # the sweep extends this list
        return read[-1]

    monkeypatch.setattr(_CycleGenerators, "orbit", recording)
    report = check_alternating_claims(n)
    walked = generator_walk_p_orbits(n, (normalizing_transposition(n),))
    p_orbits = generator_walk_p_orbits(n)
    p_orbit_of = {cyc: i for i, orbit in enumerate(p_orbits) for cyc in orbit}
    assert len(read) == report.order_tests == len(walked)
    for got, want in zip(read, walked):
        assert got[0] == want[0] and sorted(got) == sorted(want)
        met = {p_orbit_of[cyc] for cyc in want}
        assert sorted(want) == sorted(cyc for i in met for cyc in p_orbits[i])


# (P-orbits decided, order tests) of the A_n sweeps
SWEEP_COUNTS = {5: (3, 2), 6: (7, 4), 7: (15, 9), 8: (15, 9), 9: (122, 61)}


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_sweep_reads_a_p_orbit_or_a_pair(n, monkeypatch):
    """Each orbit the sweep reads is one P-orbit of the generator walk, read
    from its least-ranked member, or two, the second the t-image of the
    first; every P-orbit is read once, and each orbit read takes one order
    test: 2, 4, 9, 9 and 61 for A_5 to A_9, which decide 3, 7, 15, 15
    and 122 P-orbits."""
    read = []
    table_orbit = _CycleGenerators.orbit

    def recording(self, cyc, tables):
        members = table_orbit(self, cyc, tables)
        read.append((members[:], members))  # the sweep extends members by the pair
        return members

    monkeypatch.setattr(_CycleGenerators, "orbit", recording)
    report = check_alternating_claims(n)
    gens = _CycleGenerators(n if n % 2 == 1 else n - 1)
    t = normalizing_transposition(n)
    walked = generator_walk_p_orbits(n)
    index = {frozenset(orbit): i for i, orbit in enumerate(walked)}
    decided = []
    for first, members in read:
        assert members[:len(first)] == first and frozenset(first) in index
        decided.append(index[frozenset(first)])
        assert first[0] == walked[decided[-1]][0]
        images = {gens.canonical(cyc.translate(t)) for cyc in first}
        second = members[len(first):]
        if second:
            assert set(second) == images != set(first) and frozenset(second) in index
            decided.append(index[frozenset(second)])
        else:
            assert images == set(first)
    assert sorted(decided) == list(range(len(walked)))
    assert (report.tests, report.order_tests) == (len(decided), len(read)) == SWEEP_COUNTS[n]


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, pytest.param(
    10, marks=pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1"))])
def test_paired_p_orbits_give_the_paired_order(n, monkeypatch):
    """Every order test is on the least cycle of a walked P-orbit, and every
    P-orbit the sweep settles without one of its own is the t-image of a
    tested one: an order test on its least cycle, from P's chain, gives
    the order the tested one gave."""
    tested = {}

    def recording(gens, degree, stop_at=None, start=()):
        tested[gens[0]] = _generated_order(gens, degree, stop_at=stop_at, start=start)
        return tested[gens[0]]

    monkeypatch.setattr(generation, "_generated_order", recording)
    report = check_alternating_claims(n)
    L = alternating_group(n)
    P = sylow_subgroup(L, 2)
    gens = _CycleGenerators(n if n % 2 == 1 else n - 1)
    t = normalizing_transposition(n)
    walked = generator_walk_p_orbits(n)
    orbit_of = {cyc: i for i, orbit in enumerate(walked) for cyc in orbit}
    least = [_cycle_permutation(orbit[0], n)._b for orbit in walked]
    order = {i: tested[b] for i, b in enumerate(least) if b in tested}
    assert len(order) == len(tested) == report.order_tests
    untested = [i for i in range(len(walked)) if i not in order]
    assert len(untested) == report.tests - report.order_tests
    for i in untested:
        pair = orbit_of[gens.canonical(walked[i][0].translate(t))]
        got = _generated_order([least[i]], n, stop_at=L.order, start=P._levels)
        assert got == order[pair], (i, pair)


def test_sweep_refuses_a_t_that_does_not_normalize_p(monkeypatch):
    """A first wreath generator that does not normalize P makes the sweep
    raise before its first order test."""
    P = set(sylow_subgroup(alternating_group(7), 2).element_bytes())
    t = bytes([1, 0, 2, 3, 4, 5, 6])  # (1,2), which does not keep P's orbit {2, 3}
    assert {_mul_bytes(_mul_bytes(t, g), t) for g in P} != P
    calls = []
    monkeypatch.setattr(generation, "_sylow2_wreath_gens", lambda n: [t])
    monkeypatch.setattr(generation, "_generated_order", lambda *args, **kw: calls.append(args))
    with pytest.raises(RuntimeError, match="does not normalize P"):
        check_alternating_claims(7)
    assert calls == []


def test_sweep_refuses_orbits_that_meet(monkeypatch):
    """A canonical form that sends each member of every orbit after the
    first onto the rank-0 cycle, which the first orbit marked, makes the
    sweep's disjointness certificate raise."""
    canonical = _CycleGenerators.canonical
    first_orbit = sylow_subgroup(alternating_group(7), 2).order  # one call per element of P
    calls = []

    def merging(self, cyc):
        calls.append(cyc)
        return canonical(self, cyc) if len(calls) <= first_orbit else bytes(range(len(cyc)))

    monkeypatch.setattr(_CycleGenerators, "canonical", merging)
    with pytest.raises(RuntimeError, match="meets an earlier orbit"):
        check_alternating_claims(7)


def test_a9_scan_stops_once_the_orbits_cover_every_cycle(monkeypatch):
    """The 122 P-orbits of A_9, read in 61 pairs, cover its 40,320 9-cycles
    once the last pair starts, at rank 1,808, so the scan tests 61 tails
    for canonicity, one per pair; scanning all 40,320 tails tested the
    33,722 unseen ones."""
    tested = []
    is_canonical = _CycleGenerators.is_canonical

    def counting(self, tail):
        tested.append(tail)
        return is_canonical(self, tail)

    monkeypatch.setattr(_CycleGenerators, "is_canonical", counting)
    report = check_alternating_claims(9)
    assert (report.tests, report.order_tests, report.cycles) == (122, 61, 40320)
    assert len(tested) == 61
    assert _long_cycle_rank(bytes([0, *tested[-1]]), 9) == 1808


class _SweepStarted(Exception):
    pass


def test_sweep_budget_admits_a11_and_refuses_a12(monkeypatch):
    """A_11 has 362,880 cyclic subgroups of 11-cycles, A_12 4,354,560 of
    11-cycles and A_13 39,916,800 of 13-cycles; the guard reads only n."""
    def started(n):
        raise _SweepStarted

    monkeypatch.setattr(generation, "alternating_group", started)
    with pytest.raises(_SweepStarted):
        check_alternating_claims(11)
    for n in (12, 13):
        with pytest.raises(BudgetExceededError):
            check_alternating_claims(n)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_canonical_generator_is_least_ranked(n):
    """Each of <c>'s phi(m) generators gives the same canonical generator,
    the one _long_cycle_rank ranks least, and the scan's skip test keeps
    exactly that one."""
    length = n if n % 2 == 1 else n - 1
    gens = _CycleGenerators(length)
    kept = 0
    for cyc in map(bytes, all_cycles_of_length(range(n), length)):
        generators = gens.all(cyc)
        assert len(set(generators)) == gens.count and cyc in generators
        least = min(generators, key=lambda g: _long_cycle_rank(g, n))
        assert {gens.canonical(g) for g in generators} == {least}
        assert gens.canonical(cyc[3:] + cyc[:3]) == least  # any rotation
        assert gens.is_canonical(cyc[1:]) == (cyc == least)
        kept += cyc == least
    assert kept * gens.count == factorial(length - 1) * (n if length < n else 1)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_long_cycle_rank_is_enumeration_order(n):
    length = n if n % 2 == 1 else n - 1
    cycles = all_cycles_of_length(range(n), length)
    for rank, cyc in enumerate(cycles):
        cyc = bytes(cyc)
        assert _long_cycle_rank(cyc, n) == rank
        assert _long_cycle_unrank(rank, n, length) == cyc
    assert rank + 1 == factorial(length - 1) * (n if length < n else 1)


def test_diagonal_universal_a5():
    """A5 passes, so A5^2 is swept against P^2: 72 conjugates of the
    diagonal <(1,2,3,4,5)>, whose normalizer has order 50."""
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    for t, tests in ((1, 6), (2, 72)):
        report = check_diagonal_universal(A5, K, 2, t)
        assert (report.verdict, report.tests, report.witnesses) == (True, tests, [])


def test_diagonal_universal_a7_power_fails():
    """A7 fails, so every power fails through the factor sweep: each
    witness g in A7 stands for (g, ..., g), and the diagonal conjugate by
    it with P^t generates a proper subgroup of A7^t."""
    A7 = alternating_group(7)
    K = _group("(1,2,3,4,5,6,7)", degree=7)
    for t in (2, 3):
        report = check_diagonal_universal(A7, K, 2, t)
        assert not report.verdict and report.tests == 120
        assert report.witnesses[0] == {"conjugator": "(2,4,5,6,7)", "generated_order": 168}
        Kd = diagonal_embedding(K, t)
        p_gens = direct_power(sylow_subgroup(A7, 2), t).generators
        for witness in report.witnesses:
            g = parse_permutation(witness["conjugator"], 7)
            g_diag = reduce(mul, (embed_in_power(g, b, t) for b in range(t)))
            got = generated_order([k ** g_diag for k in Kd.generators] + list(p_gens), 7 * t)
            assert got < 2520 ** t


def test_diagonal_requires_a_prime_dividing_the_order():
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    with pytest.raises(ValueError, match="7 does not divide"):
        check_diagonal_universal(A5, K, 7, 1)


def test_diagonal_power_past_the_element_table_is_refused_before_any_test(monkeypatch):
    """A5 passes, and A5^4 (order 12,960,000) has no element table: six
    tests on A5, none on the power."""
    degrees = []

    def counting_order(gens, degree, stop_at=None, start=()):
        degrees.append(degree)
        return _generated_order(gens, degree, stop_at=stop_at, start=start)

    monkeypatch.setattr(generation, "_generated_order", counting_order)
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    with pytest.raises(BudgetExceededError):
        check_diagonal_universal(A5, K, 2, 4)
    assert degrees == [5] * 6


def test_diagonal_requires_proper_subgroup():
    A5 = alternating_group(5)
    with pytest.raises(ValueError):
        check_diagonal_universal(A5, A5, 2, 2)


def test_sylow2_fixed_point_free_even_degrees():
    for n in (10, 12):
        witness = sylow2_fixed_point_free_element(n)
        assert witness is not None
        assert witness.fixed_points() == ()
        assert witness in sylow_subgroup(alternating_group(n), 2)


def test_sylow2_no_fixed_point_free_element_odd_degree():
    assert sylow2_fixed_point_free_element(7) is None
    assert sylow2_fixed_point_free_element(9) is None


def test_parity_identity_examples():
    assert imprimitive_parity_identity(9, 3) == (280, "even")
    assert imprimitive_parity_identity(15, 5) == (126126, "even")
    assert imprimitive_parity_identity(15, 3) == (1401400, "even")


def test_parity_identity_sweep():
    for n in range(4, 41):
        for d in range(2, n):
            if n % d == 0 and d != n:
                value, parity = imprimitive_parity_identity(n, d)
                if n % 2 == 1 and n <= 35:
                    assert parity == "even"


def test_parity_identity_raises_when_its_sides_differ(monkeypatch):
    monkeypatch.setattr(generation, "comb", lambda a, b: 1)
    with pytest.raises(RuntimeError, match="factorization identity fails at n=9, d=3"):
        imprimitive_parity_identity(9, 3)


def test_parity_identity_rejects_bad_divisor():
    with pytest.raises(ValueError):
        imprimitive_parity_identity(9, 4)
    with pytest.raises(ValueError):
        imprimitive_parity_identity(9, 9)


def test_relative_fixed_cosets_empty_for_a5():
    A5 = alternating_group(5)
    K = _group("(1,2,3,4,5)", degree=5)
    P = sylow_subgroup(A5, 2)
    assert fixed_cosets(A5, A5, intermediate_subgroups(A5, P), K) == []


def test_relative_fixed_cosets_nonempty_example():
    # C3 x C3 on C(S3): exactly the two cosets of A3 are fixed
    S3 = symmetric_group(3)
    C3 = _group("(1,2,3)", degree=3)
    fixed = fixed_cosets(S3, S3, intermediate_subgroups(S3, C3), C3)
    assert len(fixed) == 2
    assert all(rec.order == 3 for rec, _ in fixed)


def test_universal_generation_forces_empty_fixed_sets_on_posets():
    """When K universally p-generates N and N is normal in G, the
    translation action of sylow(N, p) x K leaves no coset of C(G, N) fixed;
    checked on materialized posets."""
    cases = [
        (symmetric_group(3), symmetric_group(3), _group("(1,2,3)", degree=3)),
        (alternating_group(5), alternating_group(5), _group("(1,2,3,4,5)", degree=5)),
        (symmetric_group(4),
         _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4),
         _group("(1,2)(3,4)", degree=4)),
    ]
    for G, N, K in cases:
        assert universally_p_generates(N, K, 2).verdict
        P = sylow_subgroup(N, 2)
        lat = enumerate_subgroups(G)
        rel = build_relative_poset(G, N, lat)
        by_action = action_fixed_points(rel, translation_action_group(P, K))
        index = vertex_index(rel)
        by_criterion = [index[lattice_ids(lat)[rec.elements], r]
                        for rec, r in fixed_cosets(G, N, intermediate_subgroups(G, P), K)]
        assert by_criterion == by_action == []
