"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (run pytest with -s to see them all).
Every comparison is exact; the only tolerances are the stated runtime caps.
Entries beyond the subgroup-lattice order bound (A7, S7) are exercised by
the dedicated structure criteria rather than the lattice-based sweeps.
"""

import os
import time

import pytest

from cosetposets.a7 import (
    build_environment,
    build_smith_spec,
    check_pgl_strong_generation,
    check_phi_properties,
    pgl_overgroups,
    smith_fixed_point_check,
)
from cosetposets.catalog import load_catalog
from cosetposets.complexes import (
    is_acyclic,
    kunneth_join_betti,
    order_complex,
    poset_reduced_euler_characteristic,
    reduced_betti,
)
from cosetposets.cosets import build_coset_poset, build_relative_poset, fixed_cosets
from cosetposets.generation import (
    check_alternating_claims,
    check_diagonal_universal,
    imprimitive_parity_identity,
    univ_gen_via_maximal_indices,
    universally_p_generates,
)
from cosetposets.groups import (
    PermutationGroup,
    _is_prime,
    alternating_group,
    diagonal_embedding,
    direct_power,
    embed_in_power,
    intermediate_subgroups,
    minimal_normal_subgroups,
    quotient_representation,
    sylow_subgroup,
)
from cosetposets.lattice import LATTICE_ORDER_BOUND, enumerate_subgroups
from cosetposets.perm import parse_permutation_list
from cosetposets.suite import _Workspace
from cosetposets.zeta import (
    TUPLE_BUDGET,
    brute_force_generation_probability,
    evaluate,
    hall_polynomial,
    poset_moebius_hat,
)
from oracles import betti_euler

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


@pytest.fixture(scope="module")
def ws():
    return _Workspace(load_catalog(verify=False))


_BETTI = {}


def _betti(ws, name, p=2):
    """Reduced GF(p) Betti numbers of C(G), memoized across criteria."""
    if (name, p) not in _BETTI:
        _BETTI[name, p] = reduced_betti(order_complex(ws.coset_poset(name)), p)
    return _BETTI[name, p]


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_reciprocity(ws):
    """P(-1) = -chi = -moebius-hat for every catalog group of order <= 120."""
    start = time.perf_counter()
    checked = 0
    for entry in ws.entries:
        if entry.expected_order > 120:
            continue
        lat, mu = ws.lattice(entry.name)
        poly = hall_polynomial(lat, mu)
        poset = ws.coset_poset(entry.name)
        chi = poset_reduced_euler_characteristic(poset)
        hat = poset_moebius_hat(poset)
        value = evaluate(poly, -1)
        assert value == -chi, f"{entry.name}: P(-1)={value} vs chi={chi}"
        assert hat == chi, f"{entry.name}: moebius-hat={hat} vs chi={chi}"
        checked += 1
    elapsed = time.perf_counter() - start
    _report(1, checked >= 45 and elapsed < 300,
            f"three-way reciprocity on {checked} groups in {elapsed:.1f}s")


def test_criterion_2_worked_values(ws):
    s3_chi = poset_reduced_euler_characteristic(ws.coset_poset("S3"))
    s3_betti = _betti(ws, "S3")
    lat3, mu3 = ws.lattice("S3")
    s3_p = evaluate(hall_polynomial(lat3, mu3), -1)

    v4_chi = poset_reduced_euler_characteristic(ws.coset_poset("C2xC2"))
    v4_betti = _betti(ws, "C2xC2")

    z4_chi = poset_reduced_euler_characteristic(ws.coset_poset("C4"))
    z4_betti = _betti(ws, "C4")
    Z4 = ws.group("C4")
    lat4, _ = ws.lattice("C4")
    Z2 = PermutationGroup(parse_permutation_list("(1,3)(2,4)", 4), 4)
    rel = build_relative_poset(Z4, Z2, lat4)
    rel_complex = order_complex(rel)

    ok = (s3_chi == -8 and s3_betti.as_dict() == {1: 8} and s3_p == 8
          and v4_chi == -3 and v4_betti.as_dict() == {1: 3}
          and z4_chi == 1 and z4_betti.as_dict() == {0: 1}
          and len(rel) == 0 and rel_complex.f_vector() == [1])
    _report(2, ok,
            f"S3: chi={s3_chi}, betti={s3_betti.as_dict()}, P(-1)={s3_p}; "
            f"C2xC2: chi={v4_chi}, betti={v4_betti.as_dict()}; "
            f"C4: chi={z4_chi}, betti={z4_betti.as_dict()}, C(C4,C2) empty")


def test_criterion_3_main_theorem_desk_scale(ws):
    """Nonzero reduced GF(2) homology for C(G), and non-acyclic C(G, N) for
    every minimal normal N, over all catalog groups of order 2..60."""
    start = time.perf_counter()
    checked = relatives = 0
    for entry in ws.entries:
        if not 1 < entry.expected_order <= 60:
            continue
        betti = _betti(ws, entry.name)
        assert not betti.is_zero(), f"{entry.name}: C(G) is GF(2)-acyclic"
        G = ws.group(entry.name)
        lat, _ = ws.lattice(entry.name)
        for N in minimal_normal_subgroups(G):
            rel = build_relative_poset(G, N, lat)
            assert not is_acyclic(order_complex(rel), 2), \
                f"{entry.name}: C(G,N) acyclic for |N|={N.order}"
            relatives += 1
        checked += 1
    elapsed = time.perf_counter() - start
    _report(3, checked >= 44 and elapsed < 600,
            f"{checked} groups and {relatives} minimal normal subgroups "
            f"in {elapsed:.1f}s")


def test_criterion_3_main_theorem_every_prime(ws):
    """Nonzero reduced GF(p) homology of C(G) for every prime p dividing |G|,
    over all catalog groups of order 2..60; the Euler characteristic of each
    Betti vector must equal -P(-1)."""
    start = time.perf_counter()
    computed = []
    for entry in ws.entries:
        if not 1 < entry.expected_order <= 60:
            continue
        lat, mu = ws.lattice(entry.name)
        p_at_minus_one = evaluate(hall_polynomial(lat, mu), -1)
        order = entry.expected_order
        for p in (q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)):
            betti = _betti(ws, entry.name, p)
            assert not betti.is_zero(), f"{entry.name}: C(G) is GF({p})-acyclic"
            assert betti_euler(betti) == -p_at_minus_one, f"{entry.name}: GF({p})"
            computed.append(f"{entry.name}@{p}")
    elapsed = time.perf_counter() - start
    _report(3, len(computed) >= 60,
            f"{len(computed)} (group, prime) pairs with nonzero homology and "
            f"Euler characteristic -P(-1) in {elapsed:.1f}s")


def test_criterion_4_brown_join_kunneth(ws):
    pairs = [("S3", "(1,2,3)"), ("C4", "(1,3)(2,4)"),
             ("S4", "(1,2)(3,4),(1,3)(2,4)"), ("Q8", "(1,3)(2,4)(5,7)(6,8)"),
             ("C6", "(1,3,5)(2,4,6)")]
    details = []
    ok = True
    for name, normal_text in pairs:
        G = ws.group(name)
        lat, _ = ws.lattice(name)
        N = PermutationGroup(parse_permutation_list(normal_text, G.degree), G.degree)
        whole = _betti(ws, name)
        rel = reduced_betti(order_complex(build_relative_poset(G, N, lat)), 2)
        Q = quotient_representation(G, N).group
        quot = reduced_betti(order_complex(build_coset_poset(Q, enumerate_subgroups(Q))), 2)
        combined = kunneth_join_betti(quot, rel)
        ok = ok and combined == whole
        details.append(f"{name}/{N.order}")
    _report(4, ok, "join factorization of Betti vectors for " + ", ".join(details))


def test_criterion_5_oracle_equivalence(ws):
    start = time.perf_counter()
    checked = []
    for entry in ws.entries:
        if entry.expected_order > LATTICE_ORDER_BOUND:
            continue
        lat, mu = ws.lattice(entry.name)
        poly = hall_polynomial(lat, mu)
        for k in (1, 2):
            if entry.expected_order**k > TUPLE_BUDGET:
                continue
            formula = evaluate(poly, k)
            oracle = brute_force_generation_probability(ws.group(entry.name), k)
            assert formula == oracle, \
                f"{entry.name} k={k}: {formula} != {oracle}"
            checked.append(f"{entry.name}@{k}")
    elapsed = time.perf_counter() - start
    _report(5, len(checked) >= 90,
            f"{len(checked)} formula-vs-enumeration comparisons in {elapsed:.1f}s")


def test_criterion_6_alternating_claims():
    start = time.perf_counter()
    r9 = check_alternating_claims(9)
    elapsed9 = time.perf_counter() - start
    r7 = check_alternating_claims(7)
    ok = (r9.verdict and r9.cycles == 40320 and r9.tests == 122 and elapsed9 < 600
          and not r7.verdict
          and [w["generated_order"] for w in r7.witnesses[:1]] == [168])
    detail = (f"n=9 true over {r9.cycles} cycles in {r9.tests} orbit tests "
              f"in {elapsed9:.1f}s; n=7 false with order-168 witness")
    if RUN_SLOW:
        r10 = check_alternating_claims(10)
        ok = ok and r10.verdict and r10.cycles == 403200
        detail += f"; n=10 true over {r10.cycles} cycles in {r10.tests} orbit tests"
    else:
        detail += "; n=10 skipped (set RUN_SLOW=1)"
    _report(6, ok, detail)


def test_criterion_7_a7_structure():
    start = time.perf_counter()
    env = build_environment()
    report = check_phi_properties(env)
    pgls = pgl_overgroups(env)
    strong = all(check_pgl_strong_generation(env, rec) for rec in pgls)
    elapsed = time.perf_counter() - start
    ok = (report["pgl_count"] == 2
          and report["pgl_orders"] == [168, 168]
          and report["pgl_indices"] == [15, 15]
          and report["classes_disjoint"]
          and report["phi_swaps_classes"]
          and strong
          and elapsed < 120)
    _report(7, ok,
            f"2 order-168 index-15 overgroups, classes swapped by phi, "
            f"strong generation holds, in {elapsed:.1f}s")


def test_criterion_8_smith_action():
    results = {}
    for ambient in ("A7", "S7"):
        spec = build_smith_spec(ambient)
        results[ambient] = smith_fixed_point_check(spec)
    a7r, s7r = results["A7"], results["S7"]
    shapes_ok = all(a7r["shape"].values()) and all(s7r["shape"].values())
    ok = (len(a7r["translation_fixed"]) == 2
          and a7r["fully_fixed"] == []
          and s7r["translation_fixed"] == []
          and s7r["fully_fixed"] == []
          and shapes_ok)
    _report(8, ok,
            f"A7: {len(a7r['translation_fixed'])} translation-fixed cosets, "
            f"none after adjoining the involution; S7: none at all; "
            f"series shape asserted")


def test_criterion_9_arithmetic_identities():
    start = time.perf_counter()
    count = 0
    for n in range(4, 41):
        for d in range(2, n):
            if n % d == 0 and d != n:
                value, parity = imprimitive_parity_identity(n, d)
                if n % 2 == 1 and n <= 35:
                    assert parity == "even", f"odd n={n}, d={d}: value {value}"
                count += 1
    elapsed = time.perf_counter() - start
    _report(9, count >= 50 and elapsed < 10,
            f"{count} factorization identities verified in {elapsed:.2f}s")


def test_criterion_10_universal_generation_instances(ws):
    start = time.perf_counter()
    A5 = alternating_group(5)
    K = PermutationGroup(parse_permutation_list("(1,2,3,4,5)", 5), 5)
    ok = True
    for t in (1, 2):
        report = check_diagonal_universal(A5, K, 2, t)
        ok = ok and report.verdict
        N = direct_power(A5, t)
        Kd = diagonal_embedding(K, t)
        P = PermutationGroup(
            [embed_in_power(g, b, t) for b in range(t)
             for g in sylow_subgroup(A5, 2).generators], 5 * t)
        ok = ok and fixed_cosets(N, N, intermediate_subgroups(N, P), Kd) == []

    pairs = 0
    for entry in ws.entries:
        if entry.expected_order < 2 or entry.expected_order > LATTICE_ORDER_BOUND:
            continue
        lat, _ = ws.lattice(entry.name)
        G = ws.group(entry.name)
        primes = [p for p in range(2, G.order + 1)
                  if G.order % p == 0 and _is_prime(p)]
        for p in primes:
            for r in primes:
                direct = universally_p_generates(G, sylow_subgroup(G, r), p).verdict
                via = univ_gen_via_maximal_indices(G, r, p, lat)
                assert direct == via, f"{entry.name}: p={p}, r={r}"
                pairs += 1
    elapsed = time.perf_counter() - start
    _report(10, ok and pairs >= 60,
            f"A5 diagonal instances true with empty fixed sets (t=1,2); "
            f"maximal-index equivalence on {pairs} prime pairs in {elapsed:.1f}s")
