from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets.catalog import load_catalog
from cosetposets.cosets import (
    OvergroupAutomorphism,
    build_coset_poset,
    build_relative_poset,
    fixed_cosets,
)
from cosetposets.groups import (
    PermutationGroup,
    alternating_group,
    cyclic_group,
    intermediate_subgroups,
    is_normal_subgroup,
    minimal_normal_subgroups,
    symmetric_group,
)
from cosetposets.lattice import enumerate_subgroups
from cosetposets.perm import parse_permutation
from oracles import (
    ActionGroup,
    ActionTriple,
    action_fixed_points,
    conj_element,
    coset_inclusion_pairs,
    relation_pairs,
    subgroup_as_group,
    translation_action_group,
    vertex_action_map,
)


def _group(*texts, degree):
    return PermutationGroup([parse_permutation(t, degree) for t in texts], degree)


def _poset(G):
    return build_coset_poset(G, enumerate_subgroups(G))


def test_coset_poset_z2():
    poset = _poset(cyclic_group(2))
    assert len(poset) == 2
    assert relation_pairs(poset) == []


def test_coset_poset_klein_four():
    poset = _poset(_group("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    assert len(poset) == 10
    assert len(poset.cover_pairs()) == 12
    assert len(relation_pairs(poset)) == 12


def test_coset_poset_s3():
    poset = _poset(symmetric_group(3))
    assert len(poset) == 17
    assert len(relation_pairs(poset)) == 24
    # no C2-coset sits inside a C3-coset, so there are no 2-chains of cosets
    assert poset.chain_counts() == [17, 24]


def test_vertex_count_is_sum_of_indices():
    for G in [symmetric_group(3), symmetric_group(4), cyclic_group(8)]:
        lat = enumerate_subgroups(G)
        poset = build_coset_poset(G, lat)
        expected = sum(G.order // e.order for i, e in enumerate(lat.subgroups)
                       if i != lat.index_of_parent)
        assert len(poset) == expected
        for hi in poset.subgroup_ids:
            count = sum(1 for (si, _) in poset.vertices if si == hi)
            assert count == G.order // lat.subgroups[hi].order


def test_cosets_partition_and_are_unique():
    G = symmetric_group(3)
    poset = _poset(G)
    assert len(set(poset.vertices)) == len(poset.vertices)
    for hi in poset.subgroup_ids:
        rep = poset.coset_rep[hi]
        assert all(rep[rep[x]] == rep[x] for x in range(G.order))


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if 1 < e.expected_order <= 60], ids=lambda e: e.name)
def test_relation_is_coset_inclusion(entry):
    """u < v in C(G), and in C(G, N) for each minimal normal N, exactly when
    coset u is a proper subset of coset v as sets of elements."""
    G = entry.build()
    lat = enumerate_subgroups(G)
    posets = [build_coset_poset(G, lat)]
    posets += [build_relative_poset(G, N, lat) for N in minimal_normal_subgroups(G)]
    for poset in posets:
        assert relation_pairs(poset) == coset_inclusion_pairs(poset)


def test_relative_poset_s3():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    A3 = _group("(1,2,3)", degree=3)
    rel = build_relative_poset(S3, A3, lat)
    assert len(rel) == 9
    assert relation_pairs(rel) == []
    # all nine vertices are cosets of the three order-2 subgroups
    assert all(lat.subgroups[hi].order == 2 for hi, _ in rel.vertices)


def test_relative_poset_z4_is_empty():
    Z4 = cyclic_group(4)
    lat = enumerate_subgroups(Z4)
    Z2 = _group("(1,3)(2,4)", degree=4)
    rel = build_relative_poset(Z4, Z2, lat)
    assert len(rel) == 0
    assert relation_pairs(rel) == []


def test_relative_poset_with_n_equal_g_is_full_poset():
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    rel = build_relative_poset(S4, S4, lat)
    full = build_coset_poset(S4, lat)
    assert rel.vertices == full.vertices


def test_relative_poset_requires_normal():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    with pytest.raises(ValueError):
        build_relative_poset(S3, _group("(1,2)", degree=3), lat)


def test_relative_membership_is_conjugation_invariant():
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    V4 = _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)
    rel = build_relative_poset(S4, V4, lat)
    qualifying = set(rel.subgroup_ids)
    for g in S4.generators:
        gi = S4.element_index()[g._b]
        for hi in qualifying:
            image = frozenset(conj_element(S4, x, gi)
                              for x in lat.subgroups[hi].elements)
            assert lat.subgroup_index[image] in qualifying


def _fixed_vertices(poset, fixed):
    """Poset vertex ids of the (SubgroupRecord, r) pairs from fixed_cosets."""
    lat = poset.lattice
    return [poset.vertex_index[(lat.subgroup_index[rec.elements], r)] for rec, r in fixed]


def test_fixed_cosets_z2():
    Z2 = cyclic_group(2)
    trivial = PermutationGroup([], degree=2)
    assert fixed_cosets(Z2, Z2, intermediate_subgroups(Z2, Z2), trivial) == []


def test_fixed_cosets_s3_c3():
    S3 = symmetric_group(3)
    C3 = _group("(1,2,3)", degree=3)
    fixed = fixed_cosets(S3, S3, intermediate_subgroups(S3, C3), C3)
    assert len(fixed) == 2
    assert all(rec.order == 3 for rec, _ in fixed)


def test_fixed_cosets_agree_with_action_orbit():
    """Containment criterion vs the definitional translation action."""
    S4 = symmetric_group(4)
    poset = _poset(S4)
    picks = [
        (_group("(1,2)(3,4)", "(1,3)(2,4)", degree=4), _group("(1,2,3)", degree=4)),
        (_group("(1,2,3)", degree=4), _group("(1,2,3)", degree=4)),
        (_group("(1,2)", degree=4), PermutationGroup([], degree=4)),
        (_group("(1,2,3,4)", degree=4), _group("(1,3)(2,4)", degree=4)),
    ]
    for P, K in picks:
        fixed = fixed_cosets(S4, S4, intermediate_subgroups(S4, P), K)
        by_criterion = _fixed_vertices(poset, fixed)
        by_action = action_fixed_points(poset, translation_action_group(P, K))
        assert by_criterion == by_action


_SMALL_ENTRIES = {e.name: e for e in load_catalog(verify=False) if e.expected_order <= 24}


@lru_cache(maxsize=None)
def _small_lattice(name):
    G = _SMALL_ENTRIES[name].build()
    lat = enumerate_subgroups(G)
    normal = [i for i in range(len(lat)) if is_normal_subgroup(G, subgroup_as_group(lat, i))]
    return G, lat, normal


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_fixed_cosets_match_action_fixed_points(data):
    G, lat, normal = _small_lattice(data.draw(st.sampled_from(list(_SMALL_ENTRIES))))
    P = subgroup_as_group(lat, data.draw(st.integers(0, len(lat) - 1)))
    K = subgroup_as_group(lat, data.draw(st.integers(0, len(lat) - 1)))
    N = subgroup_as_group(lat, data.draw(st.sampled_from(normal)))
    poset = build_relative_poset(G, N, lat)
    by_action = action_fixed_points(poset, translation_action_group(P, K))
    fixed = fixed_cosets(G, N, intermediate_subgroups(G, P), K)
    assert _fixed_vertices(poset, fixed) == by_action


def test_action_fixed_points_identity_triple():
    poset = _poset(symmetric_group(3))
    everything = action_fixed_points(poset, ActionGroup((ActionTriple(),)))
    assert everything == list(range(len(poset)))


def test_action_preserves_order_relation():
    S4 = symmetric_group(4)
    poset = _poset(S4)
    triple = ActionTriple(left=parse_permutation("(1,2,3)", 4),
                          right=parse_permutation("(1,3)(2,4)", 4))
    mapping = vertex_action_map(poset, triple)
    rel = set(relation_pairs(poset))
    assert all((mapping[u], mapping[v]) in rel for u, v in rel)
    assert sorted(mapping) == list(range(len(poset)))


def test_automorphism_triple_on_relative_poset():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    A3 = _group("(1,2,3)", degree=3)
    rel = build_relative_poset(S3, A3, lat)
    phi = OvergroupAutomorphism(group=S3, overgroup=S3,
                                conjugator=parse_permutation("(1,2)", 3))
    fixed = action_fixed_points(rel, ActionGroup((ActionTriple(automorphism=phi),)))
    # conjugation by (1,2) fixes the subgroup <(1,2)> and permutes its cosets;
    # its coset {(1,2), e} maps to itself
    assert len(fixed) >= 1
    for v in fixed:
        hi, r = rel.vertices[v]
        assert lat.subgroups[hi].order == 2


def test_overgroup_automorphism_validation():
    A4 = alternating_group(4)
    S4 = symmetric_group(4)
    phi = OvergroupAutomorphism(group=A4, overgroup=S4,
                                conjugator=parse_permutation("(1,2)", 4))
    assert phi.squares_to_identity()
    assert not phi.fixes_group_elementwise()
    with pytest.raises(ValueError):
        OvergroupAutomorphism(group=A4, overgroup=A4,
                              conjugator=parse_permutation("(1,2)", 4))


def test_antichain_flags():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    assert relation_pairs(build_coset_poset(S3, lat))
    assert not relation_pairs(build_relative_poset(S3, _group("(1,2,3)", degree=3), lat))
    Z4 = cyclic_group(4)
    lat4 = enumerate_subgroups(Z4)
    assert not relation_pairs(
        build_relative_poset(Z4, _group("(1,3)(2,4)", degree=4), lat4))


def test_abelian_minimal_normal_antichain_size_divisible():
    cases = [
        (symmetric_group(3), _group("(1,2,3)", degree=3)),
        (symmetric_group(4), _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)),
    ]
    for G, N in cases:
        lat = enumerate_subgroups(G)
        rel = build_relative_poset(G, N, lat)
        assert relation_pairs(rel) == []
        assert len(rel) % N.order == 0


def test_poset_dump_stable_and_labelled():
    S3 = symmetric_group(3)
    d1 = _poset(S3).dump()
    d2 = _poset(S3).dump()
    assert d1 == d2
    first = d1.splitlines()[0]
    assert first.split(":")[0] == "1"
