import sys

import pytest

from cosetposets import a7, cosets, groups
from cosetposets.a7 import (
    A7Environment,
    build_environment,
    build_smith_spec,
    check_pgl_strong_generation,
    check_phi_properties,
    check_rho_on_power,
    overgroups_of_sylow2,
    pgl_overgroups,
    smith_fixed_point_check,
)
from cosetposets.complexes import order_complex, reduced_betti
from cosetposets.cosets import build_relative_poset
from cosetposets.groups import (
    PermutationGroup,
    SubgroupRecord,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    cyclic_group,
    generated_order,
    intermediate_subgroups,
    minimal_normal_subgroups,
    sylow_subgroup,
    symmetric_group,
)
from cosetposets.lattice import enumerate_subgroups, proper_order_ceiling
from cosetposets.perm import Permutation, parse_permutation
from oracles import (action_fixed_points, is_abelian, relation_pairs, scan_phi_invariant_seven_cycle,
                     scan_phi_invariant_sylow2, seven_cycle_pgl_overgroups, smith_action_group,
                     vertex_relation)


@pytest.fixture(scope="module")
def env():
    return build_environment()


def test_environment_invariants(env):
    assert env.A7.order == 2520
    assert env.S7.order == 5040
    assert env.P.order == 8
    assert env.seven_cycle.order() == 7
    assert env.P.is_subgroup_of(env.A7)
    assert env.seven_cycle in env.A7
    assert env.phi.squares_to_identity()
    assert not env.phi.fixes_group_elementwise()


def test_phi_invariant_sylow2_matches_table_scan(env):
    """The stated P is the first phi-invariant conjugate of the library's
    Sylow 2-subgroup in the table-order scan, with the same generators."""
    scanned = scan_phi_invariant_sylow2(env.A7, env.phi.conjugator)
    assert env.P.generators == scanned.generators
    assert [str(g) for g in env.P.generators] == ["(3,4)(5,6)", "(3,5)(4,6)", "(1,2)(5,6)"]
    assert str(env.seven_cycle) == "(1,2,3,5,7,6,4)"


def test_seven_cycle_matches_cyclic_subgroup_scan(env):
    """The stated 7-cycle is the least generator of the first phi-invariant
    cyclic subgroup of order 7 of the scan, and the environment is built
    without A_7's cyclic table."""
    assert env.seven_cycle == scan_phi_invariant_seven_cycle(env.A7, env.phi.conjugator)
    assert build_environment.__wrapped__().A7._cyclic is None


def test_census_contains_p_itself_without_seven_cycle(env):
    census = overgroups_of_sylow2(env)
    smallest = min(census, key=lambda r: r.order)
    assert smallest.order == 8
    elems = env.A7.element_bytes()
    assert all(Permutation._from_bytes(elems[i]).cycle_type() != (7,)
               for i in smallest.elements)


def test_largest_proper_census_record_attains_the_ceiling(env):
    """A_6 lies above P, so the census's largest proper record has the
    order the index argument allows a proper subgroup of A_7: 2520 / 7."""
    census = overgroups_of_sylow2(env)
    largest = max(r.order for r in census if r.order < env.A7.order)
    assert largest == proper_order_ceiling(env.A7) == 360


def _conjugate_of_p(env):
    """P^(1,2,7): a Sylow 2-subgroup of A_7 that phi does not normalize."""
    c = parse_permutation("(1,2,7)", 7)
    Pc = PermutationGroup([g ** c for g in env.P.generators], 7)
    assert Pc.order == 8 and Pc.is_subgroup_of(env.A7)
    assert not Pc.is_normalized_by(env.phi.conjugator)
    return Pc


def test_environment_with_another_p_gets_its_own_census(env):
    """A census belongs to its environment: replacing P gives a fresh census,
    shared with no other environment, of the new P's overgroups, and leaves
    the census of env as it was."""
    before = list(overgroups_of_sylow2(env))
    Pc = _conjugate_of_p(env)
    other = A7Environment(A7=env.A7, S7=env.S7, P=Pc, seven_cycle=env.seven_cycle, phi=env.phi)
    assert other.censuses == {} and other.censuses is not env.censuses
    census = overgroups_of_sylow2(other)
    assert census == intermediate_subgroups(env.A7, Pc)
    assert census != before
    assert other.censuses == {"A7": census}
    assert overgroups_of_sylow2(env) == before
    assert env.censuses["A7"] is not census


def _conjugate_of_p_gens(env):
    return tuple(str(g) for g in _conjugate_of_p(env).generators)


def _seven_cycle_phi_does_not_normalize(env):
    h = parse_permutation("(1,2,3,4,5,6,7)", 7)
    assert not PermutationGroup([h]).is_normalized_by(env.phi.conjugator)
    return str(h)


def _phi_of_order_three(env):
    return "(1,2,3)"  # normalizes A_7, but is no involution


def _order_four_subgroup_of_p(env):
    gens = a7.SYLOW2_GENERATORS[:2]
    Q = PermutationGroup([parse_permutation(g, 7) for g in gens])
    assert Q.order == 4 and Q.is_subgroup_of(env.P) and Q.is_normalized_by(env.phi.conjugator)
    return gens


@pytest.mark.parametrize("name,bad", [
    ("SYLOW2_GENERATORS", _conjugate_of_p_gens),
    ("SYLOW2_GENERATORS", _order_four_subgroup_of_p),
    ("SEVEN_CYCLE", _seven_cycle_phi_does_not_normalize),
    ("PHI", _phi_of_order_three),
], ids=["P-conjugate-not-phi-invariant", "P-of-order-4", "seven-cycle-not-phi-invariant",
        "phi-not-an-involution"])
def test_build_environment_refuses_a_failing_witness(env, monkeypatch, name, bad):
    """Each stated witness is certified on every build: one replaced by a
    value that fails one check is named in a RuntimeError."""
    monkeypatch.setattr(a7, name, bad(env))
    with pytest.raises(RuntimeError, match=f"a7.{name} fails"):
        build_environment.__wrapped__()


def test_pgl_overgroups_match_seven_cycle_scan(env):
    """Order divisible by 7 picks the same overgroups, in the same order,
    as containing a 7-cycle of A_7's element table."""
    assert pgl_overgroups(env) == seven_cycle_pgl_overgroups(env)


def test_exactly_two_proper_overgroups_with_seven_cycle(env):
    pgls = pgl_overgroups(env)
    assert len(pgls) == 2
    assert all(rec.order == 168 for rec in pgls)
    assert all(env.A7.order // rec.order == 15 for rec in pgls)


def test_pgl_simplicity_fingerprint(env):
    """Both overgroups are nonabelian and have no nontrivial proper normal
    subgroup reachable as a normal closure, matching the simple-group shape."""
    elems = env.A7.element_bytes()
    for rec in pgl_overgroups(env):
        K = PermutationGroup([Permutation._from_bytes(elems[i]) for i in rec.generators], 7)
        assert not is_abelian(K)
        assert [m.order for m in minimal_normal_subgroups(K)] == [168]


def test_classes_not_conjugate_but_swapped_by_phi(env):
    report = check_phi_properties(env)
    assert report["classes_disjoint"]
    assert report["class_sizes"] == (15, 15)
    assert report["phi_swaps_classes"]
    assert report["phi_normalizes_P"]
    assert report["phi_normalizes_seven_cycle_subgroup"]
    assert report["phi_squares_to_identity"]


def test_each_class_has_fifteen_members(env):
    for rec in pgl_overgroups(env):
        orbit = conjugacy_orbit_of_subgroup(env.A7, rec.elements, rec.generators)
        assert len({fs for fs, _, _ in orbit}) == 15


def test_strong_generation_for_both_pgls(env):
    for rec in pgl_overgroups(env):
        assert check_pgl_strong_generation(env, rec)


def test_strong_generation_refuses_generators_of_another_order(env):
    """A PGL(2,7) record cut down to its first generator gives the cyclic
    group of that generator's order, not 168."""
    rec = pgl_overgroups(env)[0]
    g = Permutation._from_bytes(env.A7.element_bytes()[rec.generators[0]])
    cut = SubgroupRecord(rec.order, rec.elements, rec.generators[:1])
    with pytest.raises(RuntimeError,
                       match=f"^the record's generators give order {g.order()}, not 168$"):
        check_pgl_strong_generation(env, cut)


def test_strong_generation_negative_control():
    # in A4 the Sylow 2-subgroup V4 is normal, so its Sylow-3 conjugates
    # close on V4 itself, not on A4
    A4 = alternating_group(4)
    V4 = sylow_subgroup(A4, 2)
    R = sylow_subgroup(A4, 3)
    conj_gens = []
    for r in R.elements():
        conj_gens.extend(g ** r for g in V4.generators)
    assert generated_order(conj_gens, 4) == 4


def test_rho_on_power_t1_reduces_to_phi(env):
    report = check_rho_on_power(1)
    assert report["factor_property_3"]
    assert report["invariant_overgroups_with_seven_cycle"] == [2520]
    assert report["rho_order"] == 2
    assert report["normalizes_P_product"] and report["normalizes_K"]


def test_rho_on_power_t2(env):
    report = check_rho_on_power(2)
    assert report["rho_order"] == 2
    assert report["normalizes_factors"]
    assert report["normalizes_P_product"]
    assert report["normalizes_each_factor_sylow2"]
    assert report["normalizes_K"]
    assert report["factor_property_3"]
    with pytest.raises(ValueError):
        check_rho_on_power(3)


def test_smith_check_a7(env):
    spec = build_smith_spec("A7")
    result = smith_fixed_point_check(spec)
    # translation action alone fixes exactly the two special cosets
    assert len(result["translation_fixed"]) == 2
    assert {order for order, _ in result["translation_fixed"]} == {168}
    # adjoining theta leaves nothing fixed
    assert result["fully_fixed"] == []
    assert all(result["shape"].values())


def test_smith_check_s7(env):
    spec = build_smith_spec("S7")
    result = smith_fixed_point_check(spec)
    assert result["translation_fixed"] == []
    assert result["fully_fixed"] == []
    assert all(result["shape"].values())


def test_smith_checks_label_no_coset(env, monkeypatch):
    """Once the censuses are built, neither Smith check labels a coset of G."""
    expected = {ambient: smith_fixed_point_check(build_smith_spec(ambient))
                for ambient in ("A7", "S7")}

    def refuse(G, members):
        raise AssertionError("right_coset_reps was called")

    for module in (cosets, groups):
        monkeypatch.setattr(module, "right_coset_reps", refuse)
    for ambient in ("A7", "S7"):
        assert smith_fixed_point_check(build_smith_spec(ambient)) == expected[ambient]


def test_each_overgroup_census_runs_once(monkeypatch):
    """The census item, both Smith checks and both rho checks run the
    overgroup census once, on A_7, and get the S_7 overgroups from one lift
    of that census across the index-2 extension."""
    censuses, lifts = [], []

    def counting_census(G, H):
        censuses.append(G.order)
        return census(G, H)

    def counting_lift(G, G0, records0):
        lifts.append((G.order, G0.order, records0))
        return lift(G, G0, records0)

    census, lift = groups.intermediate_subgroups, groups.lift_census
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cosetposets":
            for attr, counting in (("intermediate_subgroups", counting_census),
                                   ("lift_census", counting_lift)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counting)
    env = build_environment.__wrapped__()  # an environment with no census yet
    monkeypatch.setattr(a7, "build_environment", lambda: env)
    check_phi_properties(env)
    for rec in pgl_overgroups(env):
        check_pgl_strong_generation(env, rec)
    for ambient in ("A7", "S7"):
        smith_fixed_point_check(build_smith_spec(ambient))
    for t in (1, 2):
        check_rho_on_power(t)
    assert censuses == [2520]
    assert len(lifts) == 1
    assert lifts[0][:2] == (5040, 2520) and lifts[0][2] is env.censuses["A7"]


def test_census_and_lift_each_label_a7_once(monkeypatch):
    """The A_7 census over P and its S_7 lift each label A_7's whole table
    once, by P's cosets, and read every record's right cosets off P's: one
    full labelling each, and one labelling of P's 315 cosets per record
    they scan (11 by the census, whose record A_7 needs none, and 12 by
    the lift), where each of those 23 labelled all 2,520 elements. Each
    labelling over P's cosets is given P's one labelling of the census or
    lift, 315 representatives, and gives a position for each of P's 315
    cosets."""
    calls = []

    def counting(G, members, finer=None):
        calls.append((G.order, finer is None))
        got = label(G, members, finer)
        if finer is not None:
            assert len(finer[0]) == len(got[1]) == 315
            fines.append(finer)  # held, so their ids stay distinct
        return got

    label = groups.right_coset_reps
    fines = []
    monkeypatch.setattr(groups, "right_coset_reps", counting)
    env = build_environment.__wrapped__()  # an environment with no census yet
    env.overgroups("A7")
    assert calls == [(2520, True)] + [(2520, False)] * 11 and len(set(map(id, fines))) == 1
    calls.clear()
    assert len(env.overgroups("S7")) == 20
    assert calls == [(2520, True)] + [(2520, False)] * 12 and len(set(map(id, fines))) == 2


def test_census_and_lift_coset_representatives_match_the_sorted_labels(monkeypatch):
    """For every record the A_7 census and its S_7 lift label over P's
    cosets, the record's coset representatives are increasing, each lies in
    the coset at its own position, and none is above an element of its
    coset, each element's coset read off its P-coset."""
    checked = []

    def checking(G, members, finer=None):
        got = label(G, members, finer)
        if finer is not None:
            reps, where = got
            position = [where[f] for f in finer[1]]
            assert reps == sorted(set(reps))
            assert [position[x] for x in reps] == list(range(len(reps)))
            assert all(reps[position[x]] <= x for x in range(G.order))
            checked.append(G.order)
        return got

    label = groups.right_coset_reps
    monkeypatch.setattr(groups, "right_coset_reps", checking)
    env = build_environment.__wrapped__()  # an environment with no census yet
    env.overgroups("A7")
    env.overgroups("S7")
    assert checked == [2520] * (11 + 12)


def test_smith_fixed_set_invariant_under_conjugate_spec(env):
    """Replacing P, K, theta by a conjugate triple gives the same counts."""
    from cosetposets.cosets import OvergroupAutomorphism
    from cosetposets.a7 import SmithActionSpec

    g = parse_permutation("(1,2,3,4,5)", 7)
    spec = build_smith_spec("A7")
    P = spec.P.conjugate_by(g)
    conj_spec = SmithActionSpec(
        G=spec.G,
        N=spec.N,
        P=P,
        K=spec.K.conjugate_by(g),
        theta=OvergroupAutomorphism(group=spec.G, overgroup=env.S7,
                                    conjugator=spec.theta.conjugator ** g),
        overgroups=tuple(intermediate_subgroups(spec.G, P)),
    )
    base = smith_fixed_point_check(spec)
    conj = smith_fixed_point_check(conj_spec)
    assert len(conj["translation_fixed"]) == len(base["translation_fixed"])
    assert conj["fully_fixed"] == base["fully_fixed"] == []


def _abelian_minimal_normal(G, N):
    return is_abelian(N) and any(N == M for M in minimal_normal_subgroups(G))


def _abelian_antichain_report(G, N):
    """C(G, N) for an abelian minimal normal N: an antichain of size
    divisible by |N|, so its complex is disconnected or just {emptyset}."""
    rel = build_relative_poset(G, N, enumerate_subgroups(G))
    betti = reduced_betti(order_complex(rel), 2)
    return {
        "antichain": relation_pairs(vertex_relation(rel)) == [],
        "size": len(rel),
        "size_divisible_by_N": len(rel) % N.order == 0,
        "low_dimensional_homology": betti.get(-1) + betti.get(0) > 0,
        "betti": betti.as_dict(),
    }


def test_abelian_antichain_checks():
    S3 = symmetric_group(3)
    A3 = PermutationGroup([parse_permutation("(1,2,3)", 3)])
    assert _abelian_minimal_normal(S3, A3)
    report = _abelian_antichain_report(S3, A3)
    assert report["antichain"] and report["size"] == 9
    assert report["size_divisible_by_N"]
    assert report["low_dimensional_homology"]

    S4 = symmetric_group(4)
    V4 = PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                           parse_permutation("(1,3)(2,4)", 4)])
    assert _abelian_minimal_normal(S4, V4)
    report = _abelian_antichain_report(S4, V4)
    assert report["antichain"]
    assert report["size"] % 4 == 0
    assert report["low_dimensional_homology"]

    Z4 = cyclic_group(4)
    Z2 = PermutationGroup([parse_permutation("(1,3)(2,4)", 4)])
    assert _abelian_minimal_normal(Z4, Z2)
    report = _abelian_antichain_report(Z4, Z2)
    assert report["antichain"] and report["size"] == 0
    assert report["betti"] == {-1: 1}
    assert report["low_dimensional_homology"]


def test_abelian_antichain_rejects_nonminimal():
    """A_4 is normal in S_4 but neither abelian nor minimal, and C(S_4, A_4)
    is no antichain: <(1,2)> < <(1,2), (3,4)> are both supplements of A_4."""
    S4, A4 = symmetric_group(4), alternating_group(4)
    assert not _abelian_minimal_normal(S4, A4)
    assert not _abelian_antichain_report(S4, A4)["antichain"]


def test_smith_criterion_agrees_with_poset_action_on_small_group():
    """The overgroup-based fixed-point scan equals the materialized
    poset action scan, checked where both are feasible."""
    from cosetposets.a7 import SmithActionSpec
    from cosetposets.cosets import OvergroupAutomorphism, build_coset_poset
    from cosetposets.perm import cycle_string

    S3 = symmetric_group(3)
    C3 = PermutationGroup([parse_permutation("(1,2,3)", 3)])
    theta = OvergroupAutomorphism(group=S3, overgroup=S3,
                                  conjugator=parse_permutation("(1,2)", 3))
    spec = SmithActionSpec(G=S3, N=S3, P=C3, K=C3, theta=theta,
                           overgroups=tuple(intermediate_subgroups(S3, C3)))
    by_criterion = smith_fixed_point_check(spec)

    lat = enumerate_subgroups(S3)
    poset = build_coset_poset(S3, lat)
    fixed = action_fixed_points(poset, smith_action_group(spec))
    by_action = sorted(
        (lat.subgroups[hi].order,
         cycle_string(Permutation._from_bytes(lat.group.element_bytes()[r])))
        for hi, r in (poset.vertices[v] for v in fixed))
    assert by_action == by_criterion["fully_fixed"]
    assert len(by_criterion["translation_fixed"]) == 2
    assert len(by_criterion["fully_fixed"]) == 2  # theta fixes both C3-cosets
