import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from itertools import compress, count
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets import complexes, cosets
from cosetposets.catalog import catalog_group, load_catalog
from cosetposets.complexes import (
    BettiVector,
    CosetComplex,
    _boundary_ranks,
    kunneth_join_betti,
    order_complex,
    poset_f_vector,
    poset_reduced_euler_characteristic,
    rank_gf2,
    rank_gfp,
    reduced_betti,
)
from cosetposets.cosets import (
    CosetPoset,
    build_coset_poset,
    build_relative_poset,
    proper_subgroup_ids,
)
from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    _is_prime,
    alternating_group,
    cyclic_group,
    minimal_normal_subgroups,
    symmetric_group,
)
from cosetposets.lattice import enumerate_subgroups, moebius_to_top
from cosetposets.perm import parse_permutation
from cosetposets.posets import FinitePoset
from cosetposets.zeta import evaluate, hall_polynomial
from oracles import (
    FaceComplex,
    betti_euler,
    boundary_square_is_zero,
    complex_from_faces,
    coset_complex_faces,
    dense_boundary_ranks,
    full_row_pivots,
    join,
    lattice_ids,
    recursive_order_complex,
    reduced_euler_characteristic,
    stong_core,
    transposed_boundary_rows,
    vertex_relation,
)

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def _coset_complex(G):
    return order_complex(build_coset_poset(G, enumerate_subgroups(G)))


def _klein_four():
    return PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                             parse_permutation("(1,3)(2,4)", 4)])


def test_order_complex_of_empty_poset_is_empty_face_only():
    """No proper subgroup of C4 supplements its Frattini subgroup, so
    C(C4, C2) has no vertex."""
    Z4 = cyclic_group(4)
    Z2 = PermutationGroup([parse_permutation("(1,3)(2,4)", 4)])
    X = order_complex(build_relative_poset(Z4, Z2, enumerate_subgroups(Z4)))
    assert (X.f_vector(), X.dimension) == ([1], -1)
    assert reduced_betti(X, 2).as_dict() == {-1: 1}
    empty = recursive_order_complex(FinitePoset.from_pairs(0, []))
    assert reduced_euler_characteristic(empty) == -1


def test_order_complex_two_comparable_elements():
    X = recursive_order_complex(FinitePoset.from_pairs(2, [(0, 1)]))
    assert X.f_vector() == [1, 2, 1]


def test_order_complex_refuses_past_the_face_budget():
    """C(A6) has 5,456,457 chains; the chain count refuses it before any
    block is built."""
    A6 = alternating_group(6)
    poset = build_coset_poset(A6, enumerate_subgroups(A6))
    with pytest.raises(BudgetExceededError, match="5456457 nonempty faces"):
        order_complex(poset)


def test_face_budget_bounds_the_nonempty_faces(monkeypatch):
    """C(S3) has 17 + 24 = 41 nonempty faces."""
    S3 = symmetric_group(3)
    poset = build_coset_poset(S3, enumerate_subgroups(S3))
    monkeypatch.setattr(complexes, "FACE_BUDGET", 41)
    assert order_complex(poset).f_vector() == [1, 17, 24]
    monkeypatch.setattr(complexes, "FACE_BUDGET", 40)
    with pytest.raises(BudgetExceededError, match="41 nonempty faces"):
        order_complex(poset)


def test_order_complex_refuses_a_poset_that_is_not_a_coset_poset():
    with pytest.raises(TypeError, match="^order_complex takes a CosetPoset, not a FinitePoset$"):
        order_complex(FinitePoset.from_pairs(2, [(0, 1)]))


def test_order_complex_coset_poset_s3():
    X = _coset_complex(symmetric_group(3))
    assert X.f_vector() == [1, 17, 24]
    assert X.dimension == 1


def test_join_with_empty_face_complex_is_identity():
    X = coset_complex_faces(_coset_complex(symmetric_group(3)))
    E = FaceComplex({}, 0)
    assert join(X, E) == X
    assert join(E, X).f_vector() == X.f_vector()


def test_join_two_pairs_of_points_is_a_square():
    two = FaceComplex({0: [(0,), (1,)]}, 2)
    sq = join(two, two)
    assert sq.f_vector() == [1, 4, 4]
    b = reduced_betti(sq, 2)
    assert b.as_dict() == {1: 1}


def test_join_is_complete_bipartite():
    two = FaceComplex({0: [(0,), (1,)]}, 2)
    nine = FaceComplex({0: [(i,) for i in range(9)]}, 9)
    X = join(two, nine)
    assert X.f_vector() == [1, 11, 18]


def test_join_f_vector_is_convolution():
    rng = random.Random(5)
    for _ in range(10):
        X = _random_complex(rng, 5)
        Y = _random_complex(rng, 4)
        fx, fy = X.f_vector(), Y.f_vector()
        fj = join(X, Y).f_vector()
        for k in range(-1, len(fj) - 1):
            expected = 0
            for i in range(-1, len(fx) - 1):
                j = k - 1 - i
                if -1 <= j < len(fy) - 1:
                    expected += fx[i + 1] * fy[j + 1]
            assert fj[k + 1] == expected


def test_reduced_euler_characteristic_values():
    assert reduced_euler_characteristic(FaceComplex({}, 0)) == -1
    for G, chi in [(_klein_four(), -3), (symmetric_group(3), -8)]:
        assert reduced_euler_characteristic(coset_complex_faces(_coset_complex(G))) == chi


def test_poset_f_vector_matches_materialized():
    """Plain posets, and coset posets walked on their vertex relation."""
    small = [FinitePoset.from_pairs(0, []), FinitePoset.from_pairs(1, []),
             FinitePoset.from_pairs(3, []),
             FinitePoset.from_pairs(5, [(i, j) for j in range(5) for i in range(j)])]
    cosets = [build_coset_poset(G, enumerate_subgroups(G)) for G in
              [symmetric_group(3), symmetric_group(4), cyclic_group(8), _klein_four()]]
    for poset, relation in [(P, P) for P in small] + [(P, vertex_relation(P)) for P in cosets]:
        walked = recursive_order_complex(relation)
        assert poset_f_vector(poset) == walked.f_vector()
        assert poset_reduced_euler_characteristic(poset) == reduced_euler_characteristic(walked)


def test_betti_isolated_points():
    three = FaceComplex({0: [(0,), (1,), (2,)]}, 3)
    assert reduced_betti(three, 2).as_dict() == {0: 2}


def test_betti_coset_complexes_gf2():
    assert reduced_betti(_coset_complex(_klein_four()), 2).as_dict() == {1: 3}
    assert reduced_betti(_coset_complex(symmetric_group(3)), 2).as_dict() == {1: 8}


def test_betti_of_empty_face_complex():
    E = FaceComplex({}, 0)
    assert reduced_betti(E, 2).as_dict() == {-1: 1}
    assert not reduced_betti(E, 2).is_zero()


def test_full_simplex_is_acyclic():
    X = complex_from_faces([(0, 1, 2)])
    assert reduced_betti(X, 2).is_zero()
    assert reduced_betti(X, 3).is_zero()


def test_coset_complex_s3_not_acyclic():
    assert not reduced_betti(_coset_complex(symmetric_group(3)), 2).is_zero()


def test_circle_betti_all_primes():
    circle = complex_from_faces([(0, 1), (1, 2), (0, 2)])
    for p in (2, 3, 5):
        assert reduced_betti(circle, p).as_dict() == {1: 1}


def test_projective_plane_distinguishes_characteristic():
    # minimal 6-vertex triangulation; GF(2) sees homology, GF(3) does not
    rp2 = complex_from_faces(
        [(0, 1, 3), (0, 3, 4), (0, 4, 2), (0, 2, 5), (0, 5, 1),
         (1, 2, 3), (2, 3, 5), (3, 5, 4), (4, 5, 1), (1, 2, 4)])
    assert reduced_betti(rp2, 2).as_dict() == {1: 1, 2: 1}
    assert reduced_betti(rp2, 3).as_dict() == {}
    assert reduced_betti(rp2, 3).is_zero()
    assert not reduced_betti(rp2, 2).is_zero()


def test_betti_vector_repr_lists_the_nonzero_numbers():
    assert repr(BettiVector.from_dict(2, {1: 2, 0: 3, 4: 0})) == "<Betti GF(2): b0=3, b1=2>"
    assert repr(BettiVector.from_dict(3, {})) == "<Betti GF(3): 0>"


def test_kunneth_identity_element():
    delta = BettiVector.from_dict(2, {-1: 1})
    b = BettiVector.from_dict(2, {0: 3, 1: 2})
    assert kunneth_join_betti(delta, b) == b


def test_kunneth_two_point_pairs():
    b0 = BettiVector.from_dict(2, {0: 1})
    assert kunneth_join_betti(b0, b0).as_dict() == {1: 1}


def test_kunneth_against_s3():
    b0 = BettiVector.from_dict(2, {0: 1})
    b8 = BettiVector.from_dict(2, {0: 8})
    expected = reduced_betti(_coset_complex(symmetric_group(3)), 2)
    assert kunneth_join_betti(b0, b8) == expected


def test_kunneth_rejects_mismatched_fields():
    with pytest.raises(ValueError):
        kunneth_join_betti(BettiVector.from_dict(2, {0: 1}),
                           BettiVector.from_dict(3, {0: 1}))


def _random_complex(rng, n_vertices):
    faces = []
    for _ in range(rng.randrange(1, 6)):
        size = rng.randrange(1, min(4, n_vertices) + 1)
        faces.append(tuple(rng.sample(range(n_vertices), size)))
    return complex_from_faces(faces, n_vertices)


def test_euler_poincare_and_boundary_square():
    rng = random.Random(11)
    for _ in range(15):
        X = _random_complex(rng, 6)
        chi = reduced_euler_characteristic(X)
        for p in (2, 3, 5):
            assert boundary_square_is_zero(X, p)
            assert betti_euler(reduced_betti(X, p)) == chi


def test_boundary_square_zero_on_coset_complexes():
    for G in [symmetric_group(3), symmetric_group(4)]:
        X = _coset_complex(G)
        T = coset_complex_faces(X)
        for p in (2, 3):
            assert boundary_square_is_zero(T, p)
            assert betti_euler(reduced_betti(X, p)) == reduced_euler_characteristic(T)


def test_join_betti_matches_kunneth_on_samples():
    rng = random.Random(23)
    for _ in range(10):
        X = _random_complex(rng, 4)
        Y = _random_complex(rng, 4)
        direct = reduced_betti(join(X, Y), 2)
        via_formula = kunneth_join_betti(reduced_betti(X, 2), reduced_betti(Y, 2))
        assert direct == via_formula


def _kernel_claims(rows, p=2, columns=3):
    """The pivot columns a rank kernel claims on ``rows`` (int bitsets at
    p = 2, else dicts), each row's pivot given with its index, and the
    indices of the rows it built, in the order it built them."""
    built = []

    def row(face):
        built.append(face)
        return rows[face] if p == 2 else dict(rows[face])

    pivots = [(i, r.bit_length() - 1 if p == 2 else max(r)) for i, r in enumerate(rows)]
    claimed = (rank_gf2(pivots, row, columns) if p == 2
               else rank_gfp(pivots, row, columns, p))
    assert len(claimed) == columns
    return set(compress(count(), claimed)), built


def test_rank_helpers():
    """Emergent rows are built only when a later row meets their pivot."""
    assert _kernel_claims([0b011, 0b110, 0b101]) == ({1, 2}, [2, 1, 0])
    assert _kernel_claims([0b011, 0b100]) == ({1, 2}, [])
    assert _kernel_claims([]) == (set(), [])
    assert _kernel_claims([{0: 1, 1: 2}, {0: 2, 1: 4}], 5, 2) == ({1}, [1, 0])
    assert _kernel_claims([{0: 1, 1: 2}, {0: 2, 1: 1}], 3, 2) == ({1}, [1, 0])
    assert _kernel_claims([{0: 1, 1: 1}, {0: 1, 1: 2}], 3, 2) == ({0, 1}, [1, 0])


def _coset_poset_cases(G, name):
    """C(G) and every C(G, N), N minimal normal, each with its name."""
    lat = enumerate_subgroups(G)
    return [(name, build_coset_poset(G, lat))] + [
        (f"{name}/{N.order}", build_relative_poset(G, N, lat))
        for N in minimal_normal_subgroups(G)]


def _catalog_oracle_cases():
    # the dense reduction of C(C2^4) (16,046 faces) alone takes over a minute
    slow = pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
    return [pytest.param(e.name, marks=slow) if e.name == "C2^4" else e.name
            for e in load_catalog(verify=False) if 1 < e.expected_order <= 24]


@pytest.mark.parametrize("name", _catalog_oracle_cases())
def test_boundary_ranks_match_dense_oracle_on_catalog(name):
    """C(G) and every C(G, N), N minimal normal, over every prime dividing |G|."""
    G = catalog_group(name)
    coset_complexes = [order_complex(poset) for _, poset in _coset_poset_cases(G, name)]
    for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and _is_prime(q)):
        for X in coset_complexes:
            assert isinstance(X, CosetComplex)
            assert _boundary_ranks(X, p) == dense_boundary_ranks(coset_complex_faces(X), p), \
                (name, p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(faces=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5),
                      min_size=1, max_size=12),
       p=st.sampled_from([2, 3, 5, 7]))
def test_boundary_ranks_match_dense_oracle_on_random_complexes(faces, p):
    X = complex_from_faces(faces)
    assert _boundary_ranks(X, p) == dense_boundary_ranks(X, p)


def _assert_rows_match_sliced_oracle(X, p, bitsets):
    """A coset complex's coboundary rows equal the transposed sliced
    boundary rows of its faces listed block by block, in the same order and
    entry for entry, sign for sign, in every dimension, for the faces that
    ``_boundary_ranks`` keeps; and the pivot that ``_pivots`` reads off a
    block is the highest column of the oracle's row, for every nonzero
    row. The empty face's row, which ``_boundary_ranks`` does not build,
    holds every vertex."""
    T = coset_complex_faces(X)
    (empty,) = transposed_boundary_rows(T, -1, p, None, False)
    assert empty == dict.fromkeys(range(sum(X.f_vector()[1:2])), 1)  # no vertex: {emptyset}
    keep = b"\x01" * (len(empty) - 1) + b"\x00"  # the last vertex, its pivot, is cleared
    for k in range(X.dimension):
        faces = list(compress(count(), keep))
        expected = list(transposed_boundary_rows(T, k, p, keep, bitsets))
        row, columns = X._coboundary_rows(k, p, bitsets), X.f_vector()[k + 2]
        assert [row(face) for face in faces] == expected
        highest = (lambda r: r.bit_length() - 1) if bitsets else max
        assert list(X._pivots(k, keep)) == [
            (face, highest(r)) for face, r in zip(faces, expected) if r]
        claimed = (rank_gf2(X._pivots(k, keep), row, columns) if bitsets
                   else rank_gfp(X._pivots(k, keep), row, columns, p))
        keep = claimed.translate(b"\x01" + bytes(255))


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if 1 < e.expected_order <= 24])
def test_boundary_rows_match_sliced_oracle_on_catalog(name):
    """C(G) and every C(G, N), N minimal normal, at p = 2 as bitsets and
    as dicts, and at p = 3."""
    for _, poset in _coset_poset_cases(catalog_group(name), name):
        for p, bitsets in ((2, True), (2, False), (3, False)):
            _assert_rows_match_sliced_oracle(order_complex(poset), p, bitsets)


def _assert_pivots_match_full_rows(X, monkeypatch):
    """``_boundary_ranks`` claims the same pivot columns, map by map, as the
    full-row reduction, at p = 2 on int bitsets and on dict rows, and at
    p = 3; the claims are read off the kernels' bytearrays."""
    claims = []
    for name in ("rank_gf2", "rank_gfp"):
        def recording(*args, kernel=getattr(complexes, name)):
            claims.append(kernel(*args))
            return claims[-1]
        monkeypatch.setattr(complexes, name, recording)
    for p, columns in ((2, complexes.GF2_BITSET_COLUMNS), (2, 0), (3, 0)):
        monkeypatch.setattr(complexes, "GF2_BITSET_COLUMNS", columns)
        claims.clear()
        ranks, expected = _boundary_ranks(X, p), full_row_pivots(X, p)
        if expected:  # the empty face's row, built by neither kernel, claims the last vertex
            assert (ranks.pop(0), expected.pop(0)) == (1, {X.f_vector()[1] - 1})
        assert [c.count(1) for c in claims] == list(ranks.values())
        assert {k: set(compress(count(), c)) for k, c in zip(ranks, claims)} == expected, (
            p, columns)


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if 2 <= e.expected_order <= 60])
def test_pivots_match_full_row_reduction_on_catalog(name, monkeypatch):
    """C(G) and every C(G, N), N minimal normal, and their beat-point
    cores."""
    for _, poset in _coset_poset_cases(catalog_group(name), name):
        X = order_complex(poset)
        for Y in (X, X.core()):
            _assert_pivots_match_full_rows(Y, monkeypatch)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
@pytest.mark.parametrize("name", ["S5", "PSL(2,7)"])
def test_pivots_match_full_row_reduction_at_size(name, monkeypatch):
    """The beat-point cores of C(S5) and C(PSL(2,7)), whose maps past
    GF2_BITSET_COLUMNS columns take dict rows at p = 2."""
    _assert_pivots_match_full_rows(_coset_complex(catalog_group(name)).core(), monkeypatch)


def test_join_with_a_coset_complex_matches_kunneth():
    """The join shifts the second factor's labels past the first's
    n_vertices, and the first factor skips labels 0, 1, 3, 4, 7 and 8; its
    Betti numbers are those of the factors, C(S3) read on the block path."""
    X = complex_from_faces([(2, 5), (5, 6, 9)])
    C = _coset_complex(symmetric_group(3))
    J = join(X, coset_complex_faces(C))
    assert [v for (v,) in J.faces[0]][:5] == [2, 5, 6, 9, 10]
    for p in (2, 3):
        assert reduced_betti(J, p) == kunneth_join_betti(reduced_betti(X, p), reduced_betti(C, p))


@lru_cache(maxsize=None)
def _lattice(name):
    return enumerate_subgroups(catalog_group(name))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(["S4", "D8xC2", "SL(2,3)", "C2^2:C4"]),
       picks=st.sets(st.integers(0, 10**6), max_size=12),
       p=st.sampled_from([2, 3]))
def test_boundary_rows_match_sliced_oracle_on_random_complexes(name, picks, p):
    """The coset complex of any set of proper subgroups, not only of those
    of C(G) and C(G, N)."""
    lat = _lattice(name)
    proper = proper_subgroup_ids(lat)
    X = order_complex(CosetPoset(lat, {proper[i % len(proper)] for i in picks}))
    _assert_rows_match_sliced_oracle(X, p, p == 2)


def _order_complex_cases():
    cases = []
    for e in load_catalog(verify=False):
        if 2 <= e.expected_order <= 60:
            cases += _coset_poset_cases(e.build(), e.name)
    return cases


def test_order_complex_matches_recursive_walk():
    """The faces of the coset complex are the chains of the depth-first walk
    on the vertex relation, and as many as the chain count says: on every
    catalog C(G) and C(G, N) of order 2..60."""
    for name, poset in _order_complex_cases():
        got = coset_complex_faces(order_complex(poset))
        assert got == recursive_order_complex(vertex_relation(poset)), name
        assert got.f_vector() == poset_f_vector(poset), name


def test_coset_chain_counts_match_the_coset_poset():
    """Subgroup chains weighted by the index of their least subgroup count
    the chains of the vertex relation of C(G) and C(G, N), and the blocks of
    the coset complex hold that many faces: on every catalog C(G) and
    C(G, N) of order 2..60."""
    for name, poset in _order_complex_cases():
        counts = poset.chain_counts()
        assert counts == vertex_relation(poset).chain_counts(), name
        X = order_complex(poset)
        sizes = [sum(X.block_size[c[0]] for c in blocks) for blocks in X.blocks]
        assert sizes == counts == X.f_vector()[1:], name
        for blocks in X.blocks:  # each block starts where the one before ends
            ends = [o + X.block_size[c[0]] for c, o in blocks.items()]
            assert list(blocks.values()) == [0] + ends[:-1], name


def test_beat_point_core_matches_the_vertex_stong_core():
    """A Stong core found vertex by vertex on the vertex relation keeps
    exactly the cosets of the subgroup-level core, and the core's own
    relation has no beat point: on every catalog C(G) and C(G, N) of order
    2..60."""
    for name, poset in _order_complex_cases():
        core = poset.beat_point_core()
        kept = stong_core(vertex_relation(poset))
        assert {poset.vertices[v] for v in kept} == set(core.vertices), name
        assert stong_core(vertex_relation(core)) == set(range(len(core))), name


def _unlabelled(*args):
    raise AssertionError("a coset was labelled")


@pytest.mark.parametrize("name, faces, core_faces", [
    ("A5", 17095, 12781), ("S5", 320283, 202449), ("PSL(2,7)", 591521, 451837),
    ("A6", 5456457, 4522345)])
def test_beat_point_core_is_read_off_the_subgroups(name, faces, core_faces, monkeypatch):
    """The core and its chain counts label no coset, even past the face
    budget (C(A6))."""
    G = catalog_group(name)
    poset = build_coset_poset(G, enumerate_subgroups(G))
    monkeypatch.setattr(cosets, "right_coset_reps", _unlabelled)
    assert (sum(poset.chain_counts()), sum(poset.beat_point_core().chain_counts())) == (
        faces, core_faces)


def test_betti_numbers_label_and_block_only_the_core(monkeypatch):
    """``reduced_betti`` builds no block of the full complex and labels the
    cosets of the core's subgroups only, each once: C(S4) keeps 20 of its 29
    proper subgroups."""
    S4 = symmetric_group(4)
    lat = enumerate_subgroups(S4)
    poset = build_coset_poset(S4, lat)
    labelled, ids = [], lattice_ids(lat)
    label = cosets.right_coset_reps

    def recording(G, elements):
        labelled.append(ids[elements])
        return label(G, elements)

    monkeypatch.setattr(cosets, "right_coset_reps", recording)
    X = order_complex(poset)
    assert reduced_betti(X, 2).as_dict() == {2: 120}
    assert "blocks" not in vars(X)
    core = poset.beat_point_core()
    assert (len(core.subgroup_ids), len(poset.subgroup_ids)) == (20, 29)
    assert sorted(labelled) == list(core.subgroup_ids)


def test_reduced_betti_refuses_a_core_of_another_euler_characteristic(monkeypatch):
    """A core that also drops C(S4)'s trivial subgroup, which is no beat
    point, has reduced Euler characteristic -168, not 120."""
    honest = CosetPoset.beat_point_core

    def dropping(self):
        core = honest(self)
        return CosetPoset(core.lattice, core.subgroup_ids[1:])

    monkeypatch.setattr(CosetPoset, "beat_point_core", dropping)
    X = _coset_complex(symmetric_group(4))
    with pytest.raises(RuntimeError, match="^the beat-point core has reduced Euler "
                                           "characteristic -168, the order complex 120$"):
        reduced_betti(X, 2)


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if 2 <= e.expected_order <= 60])
def test_coset_complex_matches_the_tuple_complex(name):
    """The block complex of C(G) and of every C(G, N), N minimal normal, has
    the boundary ranks, f-vector and Betti numbers at p = 2 and 3 of the
    tuple complex of its faces, reduced on the sliced oracle's rows."""
    for case, poset in _coset_poset_cases(catalog_group(name), name):
        X = order_complex(poset)
        T = coset_complex_faces(X)
        assert X.f_vector() == T.f_vector(), case
        for p in (2, 3):
            assert _boundary_ranks(X, p) == _boundary_ranks(T, p), (case, p)
            assert reduced_betti(X, p) == reduced_betti(T, p), (case, p)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_coset_complex_of_s5_mod_a5():
    """C(S5, A5) at size: the f-vector and the Betti numbers over GF(2) and
    GF(3) (C(S5)'s b2 and b3, one dimension down), on the block path and on
    the tuple oracle."""
    S5 = symmetric_group(5)
    (A5,) = [N for N in minimal_normal_subgroups(S5) if N.order == 60]
    X = order_complex(build_relative_poset(S5, A5, enumerate_subgroups(S5)))
    T = coset_complex_faces(X)
    assert X.f_vector() == T.f_vector() == [1, 2286, 14825, 15900, 1800]
    for p in (2, 3):
        assert reduced_betti(X, p).as_array() == [0, 0, 864, 2424]
        assert reduced_betti(T, p) == reduced_betti(X, p)


_AT_SIZE_F_VECTORS = {"S5": [1, 4324, 54181, 138838, 106740, 16200],
                      "PSL(2,7)": [1, 6745, 86180, 233996, 208152, 56448]}

# runs cosetposets.cli on argv and, at exit, writes the process's own peak
# RSS (VmHWM, which starts afresh at exec) to stderr
_CLI_REPORTING_PEAK = """
import atexit, sys
from cosetposets.cli import main
atexit.register(lambda: sys.stderr.write(
    next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
@pytest.mark.parametrize("name, p, betti", [
    ("S5", 2, [864, 2424]), ("S5", 3, [864, 2424]), ("S5", 5, [864, 2424]),
    ("PSL(2,7)", 2, [4992, 2136]), ("PSL(2,7)", 3, [4992, 2136])])
def test_coset_complex_homology_at_size(name, p, betti):
    """`compute homology` on C(S5) and C(PSL(2,7)) in a fresh process, each
    within 300 MB of its own peak RSS, which the process reports itself, so
    that no image it was forked from counts: the full f-vector, b2 and b3 of
    the beat-point core, and chi-tilde = b2 - b3 = -P(-1)."""
    if not Path("/proc/self/status").exists():
        pytest.skip("the child reads its peak RSS from /proc/self/status, absent here")
    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", _CLI_REPORTING_PEAK, "compute", "homology", "--group", name,
         "--prime", str(p)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(complexes.__file__).parents[1])})
    seconds, out = time.perf_counter() - started, run.stdout
    peak_mb = int(run.stderr.split("VmHWM:")[1].split()[0]) / 1024  # kB
    print(f"C({name}) over GF({p}): {seconds:.1f} s, the child's peak RSS {peak_mb:.0f} MB")
    assert out == (f"f-vector (from dim -1): {_AT_SIZE_F_VECTORS[name]}\n"
                   f"reduced Betti numbers over GF({p}):\n"
                   f"  dim 2: {betti[0]}\n  dim 3: {betti[1]}\n")
    assert peak_mb < 300
    lat = enumerate_subgroups(catalog_group(name))
    assert betti[0] - betti[1] == -evaluate(hall_polynomial(lat, moebius_to_top(lat)), -1)


def test_weighted_chain_counts_weigh_the_least_element():
    total_order = FinitePoset.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    # singletons 1 + 2 + 3; pairs 01, 02 (weight 1) and 12 (weight 2); 012
    assert total_order.chain_counts([1, 2, 3]) == [6, 4, 1]
    assert FinitePoset.from_pairs(0, []).chain_counts([]) == []
    assert FinitePoset.from_pairs(2, []).chain_counts([5, 7]) == [12]


def test_finite_poset_takes_the_sorted_above_tuples():
    P = FinitePoset([(1, 2), (2,), ()])
    assert (P.above, P.below, len(P)) == ([(1, 2), (2,), ()], [(), (0,), (0, 1)], 3)
    assert FinitePoset.from_pairs(3, [(1, 2), (0, 2), (0, 1)]).above == P.above


def test_finite_poset_refuses_above_tuples_not_transitively_closed():
    with pytest.raises(ValueError, match="not transitively closed"):
        FinitePoset([(1,), (2,), ()])  # 0 < 1 < 2 without 0 < 2


def test_finite_poset_refuses_reflexive_above_tuples():
    # 0 < 0 would make every chain extend forever in chain_counts
    with pytest.raises(ValueError, match="cannot be reflexive"):
        FinitePoset([(0, 1), ()])


def test_finite_poset_from_pairs_refuses_a_reflexive_pair():
    with pytest.raises(ValueError, match="cannot be reflexive"):
        FinitePoset.from_pairs(2, [(0, 1), (1, 1)])
