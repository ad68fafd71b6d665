import os
from fractions import Fraction
from itertools import product

import pytest

from cosetposets import zeta
from cosetposets.catalog import load_catalog
from cosetposets.complexes import poset_reduced_euler_characteristic
from cosetposets.cosets import build_coset_poset, supplement_ids
from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    alternating_group,
    cyclic_group,
    symmetric_group,
)
from cosetposets.lattice import enumerate_subgroups, moebius_to_top
from cosetposets.perm import parse_permutation
from cosetposets.posets import FinitePoset
from cosetposets.zeta import (DirichletPolynomial, brute_force_generation_probability, evaluate,
                              hall_polynomial)
from oracles import (conj_element, product_table, tuple_generation_probability,
                     vertex_chi_and_hat)

CATALOG = {e.name: e for e in load_catalog(verify=False)}
RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def _hall(G):
    lat = enumerate_subgroups(G)
    return hall_polynomial(lat, moebius_to_top(lat)), lat


def test_hall_polynomial_cyclic_prime():
    poly, _ = _hall(cyclic_group(5))
    assert poly.as_dict() == {1: 1, 5: -1}


def test_hall_polynomial_s3():
    poly, _ = _hall(symmetric_group(3))
    assert poly.as_dict() == {1: 1, 2: -1, 3: -3, 6: 3}


def test_hall_polynomial_klein_four():
    V4 = PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                           parse_permutation("(1,3)(2,4)", 4)])
    poly, _ = _hall(V4)
    assert poly.as_dict() == {1: 1, 2: -3, 4: 2}


def test_hall_polynomial_takes_one_mu_per_lattice_id():
    """``hall_polynomial`` sums a mu tuple indexed by lattice id: the one
    ``moebius_to_top`` returns, and one masked to G and the supplements of
    V4 as ``compute zeta --relative-to`` builds it (Brown's P_{S4,V4},
    P(-1) = -15); a tuple shorter or longer than the lattice is refused."""
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    mu = moebius_to_top(lat)
    assert type(mu) is tuple and len(mu) == len(lat) == 30
    assert hall_polynomial(lat, mu).as_dict() == {
        1: 1, 2: -1, 3: -3, 4: -4, 6: 3, 8: 4, 12: 12, 24: -12}
    V4 = PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                           parse_permutation("(1,3)(2,4)", 4)])
    kept = {*supplement_ids(S4, V4, lat), lat.index_of_parent}
    poly = hall_polynomial(lat, tuple(m if i in kept else 0 for i, m in enumerate(mu)))
    assert poly.as_dict() == {1: 1, 4: -4}
    assert evaluate(poly, -1) == -15
    for wrong in (mu[:-1], mu + (0,), ()):
        with pytest.raises(ValueError, match=f"^mu has {len(wrong)} values for a lattice of 30 "):
            hall_polynomial(lat, wrong)


def test_evaluate_s3():
    poly, _ = _hall(symmetric_group(3))
    assert evaluate(poly, 1) == 0
    assert evaluate(poly, -1) == 8
    assert evaluate(poly, 2) == Fraction(1, 2)
    assert evaluate(poly, 0) == 1 - 1 - 3 + 3 == 0
    assert evaluate(poly, -2) == 1 - 4 - 3 * 9 + 3 * 36 == 78


def test_evaluate_z2():
    poly, _ = _hall(cyclic_group(2))
    assert evaluate(poly, 1) == Fraction(1, 2)


def test_leading_coefficient_and_zero_sum():
    for G in [symmetric_group(3), symmetric_group(4), cyclic_group(6)]:
        poly, _ = _hall(G)
        assert poly.as_dict()[1] == 1
        assert evaluate(poly, 0) == 0  # nontrivial group: coefficients sum to zero


def test_brute_force_probabilities():
    assert brute_force_generation_probability(cyclic_group(2), 1) == Fraction(1, 2)
    assert brute_force_generation_probability(symmetric_group(3), 2) == Fraction(1, 2)
    assert brute_force_generation_probability(cyclic_group(6), 1) == Fraction(1, 3)


def test_brute_force_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_generation_probability(symmetric_group(6), 3)


def test_formula_matches_brute_force():
    groups = [cyclic_group(4), cyclic_group(6), symmetric_group(3),
              PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                                parse_permutation("(1,3)(2,4)", 4)]),
              alternating_group(4)]
    for G in groups:
        poly, _ = _hall(G)
        for k in (1, 2):
            assert evaluate(poly, k) == brute_force_generation_probability(G, k)


@pytest.mark.parametrize("name,k", [(e.name, k) for e in CATALOG.values() for k in (1, 2, 3)
                                     if e.expected_order <= (24 if k == 3 else 60)])
def test_orbit_oracle_matches_per_tuple_oracle(name, k):
    G = CATALOG[name].build()
    assert brute_force_generation_probability(G, k) == tuple_generation_probability(G, k)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
@pytest.mark.parametrize("name", ["S5", "PSL(2,7)", "A6"])
def test_orbit_oracle_matches_per_tuple_oracle_at_workload_sizes(name):
    G = CATALOG[name].build()
    assert brute_force_generation_probability(G, 2) == tuple_generation_probability(G, 2)


def _orbits_of_cyclic_tuples(G, k):
    """G-orbits, under conjugation by every element, of the ordered k-tuples
    of cyclic subgroups."""
    mul, _ = product_table(G)

    def cyclic(x):
        members, y = {0}, x
        while y:
            members.add(y)
            y = mul[y][x]
        return frozenset(members)

    conj = [[conj_element(G, x, g) for x in range(G.order)] for g in range(G.order)]
    subgroups = {cyclic(x) for x in range(G.order)}
    return {frozenset(tuple(frozenset(row[x] for x in C) for C in tup) for row in conj)
            for tup in product(subgroups, repeat=k)}


@pytest.mark.parametrize("G,k,tests", [
    (cyclic_group(1), 1, 0), (cyclic_group(1), 2, 1),
    (cyclic_group(6), 1, 0), (cyclic_group(6), 2, 16),
    (symmetric_group(3), 3, 37),
    (symmetric_group(4), 1, 0), (symmetric_group(4), 2, 38),
    (alternating_group(5), 1, 0), (alternating_group(5), 2, 36),
], ids=["C1-1", "C1-2", "C6-1", "C6-2", "S3-3", "S4-1", "S4-2", "A5-1", "A5-2"])
def test_one_chain_test_per_orbit_of_ordered_tuples(G, k, tests, monkeypatch):
    """One chain test per G-orbit of ordered k-tuples of cyclic subgroups,
    counted independently on the product table; none at k = 1, where the
    test is |<r>| = |G|."""
    calls = []
    real = zeta._generated_order

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zeta, "_generated_order", counting)
    brute_force_generation_probability(G, k)
    assert len(calls) == tests
    assert tests == (len(_orbits_of_cyclic_tuples(G, k)) if k > 1 else 0)


def test_poset_moebius_hat_small():
    assert FinitePoset.from_pairs(0, []).moebius_bottom_to_top() == -1
    assert FinitePoset.from_pairs(3, []).moebius_bottom_to_top() == 2
    chain2 = FinitePoset.from_pairs(2, [(0, 1)])
    assert chain2.moebius_bottom_to_top() == 0
    # S3's proper subgroups 1 < C2 (three) and 1 < C3, weighted by index: mu
    # sums to -6 over the cosets of 1, 3 over each C2's and 4 over C3's
    subgroups = FinitePoset.from_pairs(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert subgroups.moebius_bottom_to_top([6, 3, 3, 3, 2]) == -(1 - 6 + 9 + 4) == -8


def test_triple_identity():
    """chi-tilde of the order complex, the hat-Moebius value, and -P(-1)
    agree on every group tested, each computed by its own code path: chi and
    hat from the subgroup chains and from the relation of nested cosets,
    and P from the lattice's Moebius function."""
    groups = [symmetric_group(3), symmetric_group(4), cyclic_group(4),
              cyclic_group(12), alternating_group(4), alternating_group(5)]
    for G in groups:
        lat = enumerate_subgroups(G)
        poly = hall_polynomial(lat, moebius_to_top(lat))
        poset = build_coset_poset(G, lat)
        chi = poset_reduced_euler_characteristic(poset)
        assert poset.moebius_bottom_to_top() == chi
        assert vertex_chi_and_hat(poset) == (chi, chi)
        assert evaluate(poly, -1) == -chi


def test_s3_hat_moebius_is_minus_eight():
    S3 = symmetric_group(3)
    poset = build_coset_poset(S3, enumerate_subgroups(S3))
    assert poset.moebius_bottom_to_top() == -8


def test_dirichlet_polynomial_repr_lists_its_terms():
    poly = DirichletPolynomial.from_dict({2: -3, 1: 1, 6: 0})
    assert repr(poly) == "<DirichletPolynomial 1*1^-s + -3*2^-s>"
