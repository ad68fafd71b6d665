import os
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets import cosets
from cosetposets.a7 import build_smith_spec
from cosetposets.catalog import catalog_group, load_catalog
from cosetposets.complexes import poset_reduced_euler_characteristic
from cosetposets.cosets import (
    CosetPoset,
    OvergroupAutomorphism,
    build_coset_poset,
    build_relative_poset,
    fixed_cosets,
    supplement_ids,
)
from cosetposets.groups import (
    PermutationGroup,
    _centralizer,
    alternating_group,
    cyclic_group,
    intermediate_subgroups,
    is_normal_subgroup,
    minimal_normal_subgroups,
    symmetric_group,
    sylow_subgroup,
)
from cosetposets.lattice import enumerate_subgroups
from cosetposets.perm import Permutation, parse_permutation
from oracles import (
    ActionGroup,
    ActionTriple,
    action_fixed_points,
    conj_element,
    coset_inclusion_pairs,
    coset_labels,
    labelled_fixed_cosets,
    lattice_ids,
    relation_pairs,
    subgroup_as_group,
    translation_action_group,
    vertex_action_map,
    vertex_chi_and_hat,
    vertex_index,
    vertex_relation,
)

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def _group(*texts, degree):
    return PermutationGroup([parse_permutation(t, degree) for t in texts], degree)


def _poset(G):
    return build_coset_poset(G, enumerate_subgroups(G))


def test_coset_poset_z2():
    poset = _poset(cyclic_group(2))
    assert len(poset) == 2
    assert relation_pairs(vertex_relation(poset)) == []


def test_coset_poset_klein_four():
    poset = _poset(_group("(1,2)(3,4)", "(1,3)(2,4)", degree=4))
    assert len(poset) == 10
    assert len(vertex_relation(poset).cover_pairs()) == 12
    assert len(relation_pairs(vertex_relation(poset))) == 12


def test_coset_poset_s3():
    poset = _poset(symmetric_group(3))
    assert len(poset) == 17
    assert len(relation_pairs(vertex_relation(poset))) == 24
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
    """Each subgroup's coset table lists the least element of each coset,
    increasing, and places each element in the coset that holds it, as the
    product table says; the vertices are those of the oracle, in its order."""
    for G in [symmetric_group(3), symmetric_group(4), cyclic_group(8)]:
        poset = _poset(G)
        assert len(set(poset.vertices)) == len(poset.vertices)
        labels = coset_labels(poset)
        for hi in poset.subgroup_ids:
            reps, where = poset.coset_table(hi)
            assert reps == sorted(set(labels[hi]))
            assert [reps[w] for w in where] == labels[hi]
        assert poset.vertices == list(vertex_index(poset))


def _coset_posets(G):
    """C(G) and every C(G, N), N minimal normal."""
    lat = enumerate_subgroups(G)
    return [build_coset_poset(G, lat)] + [build_relative_poset(G, N, lat)
                                          for N in minimal_normal_subgroups(G)]


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if 1 < e.expected_order <= 60], ids=lambda e: e.name)
def test_relation_is_coset_inclusion(entry):
    """u < v in C(G), and in C(G, N) for each minimal normal N, exactly when
    coset u is a proper subset of coset v as sets of elements."""
    for poset in _coset_posets(entry.build()):
        assert relation_pairs(vertex_relation(poset)) == coset_inclusion_pairs(poset)


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if 1 < e.expected_order <= 60], ids=lambda e: e.name)
def test_dump_covers_are_the_vertex_relation_covers(entry):
    """The cover lines of ``dump()``, read off the covers among the included
    subgroups, are the cover pairs of the vertex relation, in its order:
    on C(G) and on C(G, N) for each minimal normal N."""
    for poset in _coset_posets(entry.build()):
        lines = poset.dump().splitlines()
        covers = lines[lines.index("--covers--") + 1:]
        assert covers == [f"{u}<{v}" for u, v in vertex_relation(poset).cover_pairs()]


@pytest.mark.parametrize("case", ["repeated", "parent", "unknown"])
def test_coset_poset_refuses_ids_that_name_no_proper_subgroup(case, monkeypatch):
    """A repeated id would list its cosets twice ([1, 1] in S4 gave 24
    vertices for the 12 cosets of an order-2 subgroup), the whole group is
    no proper subgroup, and an id past the lattice names nothing: each is
    refused with a one-line ValueError that names it, before any coset is
    labelled."""
    def unlabelled(*args):
        raise AssertionError("a coset was labelled")

    lat = enumerate_subgroups(symmetric_group(4))
    top, past = lat.index_of_parent, len(lat.subgroups)
    ids, message = {
        "repeated": ([1, 1], "subgroup id 1 is repeated"),
        "parent": ([1, top], f"subgroup id {top} is the whole group, not a proper subgroup"),
        "unknown": ([past, 1], f"subgroup id {past} is not in the lattice"),
    }[case]
    monkeypatch.setattr(cosets, "right_coset_reps", unlabelled)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CosetPoset(lat, ids)


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if 1 < e.expected_order <= 120], ids=lambda e: e.name)
def test_weighted_chi_and_hat_match_the_vertex_oracles(entry):
    """chi-tilde and the hat-Moebius value of C(G) and of every C(G, N),
    read off the subgroup chains, equal those of the vertex relation."""
    for poset in _coset_posets(entry.build()):
        chi, hat = vertex_chi_and_hat(poset)
        assert poset_reduced_euler_characteristic(poset) == chi
        assert poset.moebius_bottom_to_top() == hat == chi


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
@pytest.mark.parametrize("name, chi", [("S5", -1560), ("PSL(2,7)", 2856), ("A6", -95400)])
def test_weighted_chi_and_hat_at_size(name, chi):
    """C(A6)'s order complex is past the face budget; its vertex relation
    (35,245 vertices) is not."""
    G = catalog_group(name)
    poset = build_coset_poset(G, enumerate_subgroups(G))
    assert poset_reduced_euler_characteristic(poset) == poset.moebius_bottom_to_top() == chi
    assert vertex_chi_and_hat(poset) == (chi, chi)


def test_relative_poset_s3():
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    A3 = _group("(1,2,3)", degree=3)
    rel = build_relative_poset(S3, A3, lat)
    assert len(rel) == 9
    assert relation_pairs(vertex_relation(rel)) == []
    # all nine vertices are cosets of the three order-2 subgroups
    assert all(lat.subgroups[hi].order == 2 for hi, _ in rel.vertices)


def test_relative_poset_z4_is_empty():
    Z4 = cyclic_group(4)
    lat = enumerate_subgroups(Z4)
    Z2 = _group("(1,3)(2,4)", degree=4)
    rel = build_relative_poset(Z4, Z2, lat)
    assert len(rel) == 0
    assert relation_pairs(vertex_relation(rel)) == []


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


@pytest.mark.parametrize("build", [build_relative_poset, supplement_ids])
@pytest.mark.parametrize("N, message", [
    (_group("(1,2)(3,4)", "(1,3)(2,4)", degree=5), "degree mismatch"),
    (_group("(1,2)", degree=4), "N is not a subgroup of G"),
    (_group("(1,2)(3,4)", degree=4), "N is not normal in G"),
], ids=["other-degree", "outside-G", "not-normal"])
def test_relative_poset_refuses_n_not_normal_in_g(build, N, message):
    """An N of another degree, an N outside G and an N not normal in G are
    each refused with ``is_normal_subgroup``'s or the normality message."""
    A4 = alternating_group(4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(A4, N, enumerate_subgroups(A4))


def test_relative_membership_is_conjugation_invariant():
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    V4 = _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)
    rel = build_relative_poset(S4, V4, lat)
    qualifying, ids = set(rel.subgroup_ids), lattice_ids(lat)
    for g in S4.generators:
        gi = S4.element_index()[g._b]
        for hi in qualifying:
            image = frozenset(conj_element(S4, x, gi)
                              for x in lat.subgroups[hi].elements)
            assert ids[image] in qualifying


def _fixed_vertices(poset, fixed):
    """Poset vertex ids of the (SubgroupRecord, r) pairs from fixed_cosets."""
    index, ids = vertex_index(poset), lattice_ids(poset.lattice)
    return [index[ids[rec.elements], r] for rec, r in fixed]


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


def _cyclic_class_reps(G):
    """One cyclic subgroup per class of G's cached cyclic table, trivial
    first, each as a group on its least generator."""
    elems = G.element_bytes()
    subgroups, _, classes = G._cyclic_table()
    gens = list(subgroups.values())
    return [PermutationGroup([Permutation._from_bytes(elems[gens[j][0]])], G.degree)
            for j, _ in classes]


@pytest.mark.parametrize("entry", [e for e in load_catalog(verify=False)
                                   if e.expected_order <= 60], ids=lambda e: e.name)
def test_fixed_cosets_match_labelling_oracle(entry):
    """With P a Sylow 2-subgroup, N = G and each minimal normal N, and one
    K per class of cyclic subgroups, the class walk gives the cosets the
    labelling gives, in the same order."""
    G = entry.build()
    overgroups = intermediate_subgroups(G, sylow_subgroup(G, 2))
    for N in [G] + (minimal_normal_subgroups(G) if G.order > 1 else []):
        for K in _cyclic_class_reps(G):
            assert (fixed_cosets(G, N, overgroups, K)
                    == labelled_fixed_cosets(G, N, overgroups, K))


@pytest.mark.parametrize("ambient", ["A7", "S7"])
def test_fixed_cosets_match_labelling_oracle_on_smith_specs(ambient):
    spec = build_smith_spec(ambient)
    args = (spec.G, spec.N, spec.overgroups, spec.K)
    assert fixed_cosets(*args) == labelled_fixed_cosets(*args)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
@pytest.mark.parametrize("ambient", ["A7", "S7"])
def test_fixed_cosets_at_size(ambient):
    """Every class of cyclic K, over the census of the Smith spec's P."""
    spec = build_smith_spec(ambient)
    for K in _cyclic_class_reps(spec.G):
        args = (spec.G, spec.N, spec.overgroups, K)
        assert fixed_cosets(*args) == labelled_fixed_cosets(*args)


def test_fixed_cosets_k_without_generators():
    """A K with no generators fixes every coset of every proper supplement:
    the intersection over K's generators starts from all of G."""
    S4 = symmetric_group(4)
    overgroups = intermediate_subgroups(S4, _group("(1,2)", degree=4))
    trivial = PermutationGroup([], degree=4)
    fixed = fixed_cosets(S4, S4, overgroups, trivial)
    assert fixed == labelled_fixed_cosets(S4, S4, overgroups, trivial)
    assert len(fixed) == sum(S4.order // rec.order for rec in overgroups
                             if rec.order < S4.order)


def test_fixed_cosets_k_with_two_generators():
    """Each generator of V4 alone fixes 5 cosets above <(1,2)>; both fix 3."""
    S4 = symmetric_group(4)
    overgroups = intermediate_subgroups(S4, _group("(1,2)", degree=4))
    K = _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)
    fixed = fixed_cosets(S4, S4, overgroups, K)
    assert fixed == labelled_fixed_cosets(S4, S4, overgroups, K)
    assert len(fixed) == 3
    for text in ("(1,2)(3,4)", "(1,3)(2,4)"):
        assert len(fixed_cosets(S4, S4, overgroups, _group(text, degree=4))) == 5


def test_fixed_cosets_centralizer_larger_than_k():
    """An involution of S5 has a centralizer of order 12, grown from <k>."""
    S5 = symmetric_group(5)
    k = _group("(1,2)", degree=5)
    assert len(_centralizer(S5, S5.element_index()[k.generators[0]._b], 12)) == 12
    for P in (_group("(1,2)", degree=5), sylow_subgroup(S5, 2)):
        overgroups = intermediate_subgroups(S5, P)
        fixed = fixed_cosets(S5, S5, overgroups, k)
        assert fixed and fixed == labelled_fixed_cosets(S5, S5, overgroups, k)


def test_fixed_cosets_refuse_a_broken_class_walk(monkeypatch):
    """A class walk that loses a member breaks |class| |C_G(k)| = |G|."""
    walk = cosets._orbit
    monkeypatch.setattr(cosets, "_orbit", lambda seed, step: walk(seed, step)[:-1])
    S4 = symmetric_group(4)
    with pytest.raises(RuntimeError, match="do not multiply to"):
        fixed_cosets(S4, S4, intermediate_subgroups(S4, _group("(1,2)", degree=4)),
                     _group("(1,2,3)", degree=4))


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
    rel = set(relation_pairs(vertex_relation(poset)))
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
    assert relation_pairs(vertex_relation(build_coset_poset(S3, lat)))
    assert not relation_pairs(vertex_relation(
        build_relative_poset(S3, _group("(1,2,3)", degree=3), lat)))
    Z4 = cyclic_group(4)
    lat4 = enumerate_subgroups(Z4)
    assert not relation_pairs(vertex_relation(
        build_relative_poset(Z4, _group("(1,3)(2,4)", degree=4), lat4)))


def test_abelian_minimal_normal_antichain_size_divisible():
    cases = [
        (symmetric_group(3), _group("(1,2,3)", degree=3)),
        (symmetric_group(4), _group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)),
    ]
    for G, N in cases:
        lat = enumerate_subgroups(G)
        rel = build_relative_poset(G, N, lat)
        assert relation_pairs(vertex_relation(rel)) == []
        assert len(rel) % N.order == 0


def test_poset_dump_stable_and_labelled():
    S3 = symmetric_group(3)
    d1 = _poset(S3).dump()
    d2 = _poset(S3).dump()
    assert d1 == d2
    first = d1.splitlines()[0]
    assert first.split(":")[0] == "1"
