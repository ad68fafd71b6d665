import os
import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets import complexes
from cosetposets.catalog import catalog_group, load_catalog
from cosetposets.complexes import (
    BettiVector,
    CosetComplex,
    SimplicialComplex,
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
    build_coset_poset,
    build_relative_poset,
    coset_chain_counts,
)
from cosetposets.groups import (
    BudgetExceededError,
    PermutationGroup,
    _is_prime,
    cyclic_group,
    minimal_normal_subgroups,
    symmetric_group,
)
from cosetposets.lattice import enumerate_subgroups
from cosetposets.perm import parse_permutation
from cosetposets.posets import FinitePoset
from oracles import (
    betti_euler,
    boundary_square_is_zero,
    complex_from_faces,
    dense_boundary_ranks,
    join,
    recursive_order_complex,
    reduced_euler_characteristic,
    sliced_boundary_rows,
)

RUN_SLOW = bool(os.environ.get("RUN_SLOW"))


def _coset_complex(G):
    return order_complex(build_coset_poset(G, enumerate_subgroups(G)))


def _klein_four():
    return PermutationGroup([parse_permutation("(1,2)(3,4)", 4),
                             parse_permutation("(1,3)(2,4)", 4)])


def test_order_complex_of_empty_poset_is_empty_face_only():
    X = order_complex(FinitePoset.from_pairs(0, []))
    assert X.f_vector() == [1]
    assert reduced_euler_characteristic(X) == -1


def test_order_complex_two_comparable_elements():
    X = order_complex(FinitePoset.from_pairs(2, [(0, 1)]))
    assert X.f_vector() == [1, 2, 1]


def test_order_complex_refuses_past_the_face_budget():
    """A 21-element total order has 2^21 - 1 chains; the chain count refuses
    it before any face is built."""
    total_order = FinitePoset.from_pairs(21, [(i, j) for j in range(21) for i in range(j)])
    with pytest.raises(BudgetExceededError, match="2097151 nonempty faces"):
        order_complex(total_order)


def test_face_budget_bounds_the_nonempty_faces(monkeypatch):
    monkeypatch.setattr(complexes, "FACE_BUDGET", 3)
    assert order_complex(FinitePoset.from_pairs(2, [(0, 1)])).f_vector() == [1, 2, 1]
    with pytest.raises(BudgetExceededError):
        order_complex(FinitePoset.from_pairs(3, [(0, 1)]))


def test_order_complex_coset_poset_s3():
    X = _coset_complex(symmetric_group(3))
    assert X.f_vector() == [1, 17, 24]
    assert X.dimension == 1


def test_join_with_empty_face_complex_is_identity():
    X = _coset_complex(symmetric_group(3))
    E = SimplicialComplex({}, 0)
    assert join(X, E) == X
    assert join(E, X).f_vector() == X.f_vector()


def test_join_two_pairs_of_points_is_a_square():
    two = SimplicialComplex({0: [(0,), (1,)]}, 2)
    sq = join(two, two)
    assert sq.f_vector() == [1, 4, 4]
    b = reduced_betti(sq, 2)
    assert b.as_dict() == {1: 1}


def test_join_is_complete_bipartite():
    two = SimplicialComplex({0: [(0,), (1,)]}, 2)
    nine = SimplicialComplex({0: [(i,) for i in range(9)]}, 9)
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
    assert reduced_euler_characteristic(SimplicialComplex({}, 0)) == -1
    assert reduced_euler_characteristic(_coset_complex(_klein_four())) == -3
    assert reduced_euler_characteristic(_coset_complex(symmetric_group(3))) == -8


def test_poset_f_vector_matches_materialized():
    small = [FinitePoset.from_pairs(0, []), FinitePoset.from_pairs(1, []),
             FinitePoset.from_pairs(3, []),
             FinitePoset.from_pairs(5, [(i, j) for j in range(5) for i in range(j)])]
    for poset in small + [build_coset_poset(G, enumerate_subgroups(G)) for G in
                          [symmetric_group(3), symmetric_group(4), cyclic_group(8), _klein_four()]]:
        assert poset_f_vector(poset) == order_complex(poset).f_vector()
        assert (poset_reduced_euler_characteristic(poset)
                == reduced_euler_characteristic(order_complex(poset)))


def test_betti_isolated_points():
    three = SimplicialComplex({0: [(0,), (1,), (2,)]}, 3)
    assert reduced_betti(three, 2).as_dict() == {0: 2}


def test_betti_coset_complexes_gf2():
    assert reduced_betti(_coset_complex(_klein_four()), 2).as_dict() == {1: 3}
    assert reduced_betti(_coset_complex(symmetric_group(3)), 2).as_dict() == {1: 8}


def test_betti_of_empty_face_complex():
    E = SimplicialComplex({}, 0)
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
        for p in (2, 3):
            assert boundary_square_is_zero(X, p)
            assert betti_euler(reduced_betti(X, p)) == reduced_euler_characteristic(X)


def test_join_betti_matches_kunneth_on_samples():
    rng = random.Random(23)
    for _ in range(10):
        X = _random_complex(rng, 4)
        Y = _random_complex(rng, 4)
        direct = reduced_betti(join(X, Y), 2)
        via_formula = kunneth_join_betti(reduced_betti(X, 2), reduced_betti(Y, 2))
        assert direct == via_formula


def test_rank_helpers():
    assert rank_gf2([0b011, 0b110, 0b101]) == {1, 2}
    assert rank_gf2([]) == set()
    assert rank_gfp([{0: 1, 1: 2}, {0: 2, 1: 4}], 5) == {1}
    assert rank_gfp([{0: 1, 1: 2}, {0: 2, 1: 1}], 3) == {1}
    assert rank_gfp([{0: 1, 1: 1}, {0: 1, 1: 2}], 3) == {0, 1}


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
            assert _boundary_ranks(X, p) == dense_boundary_ranks(X, p), (name, p)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(faces=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5),
                      min_size=1, max_size=12),
       p=st.sampled_from([2, 3, 5, 7]))
def test_boundary_ranks_match_dense_oracle_on_random_complexes(faces, p):
    X = complex_from_faces(faces)
    assert _boundary_ranks(X, p) == dense_boundary_ranks(X, p)


def _assert_rows_match_sliced_oracle(X, p):
    """Rows by face position equal the sliced oracle's, in the same order and,
    at odd p, entry for entry in the same order, in every dimension, cleared
    as ``_boundary_ranks`` clears them."""
    def checked(rows, expected):
        for row, exp in zip_longest(rows, expected):
            if p == 2:
                assert row == exp
            else:
                assert list(row.items()) == list(exp.items())
            yield row

    cleared = set()
    for k in range(X.dimension, -1, -1):
        rows = checked(X._boundary_rows(k, p, cleared), sliced_boundary_rows(X, k, p, cleared))
        cleared = rank_gf2(rows) if p == 2 else rank_gfp(rows, p)


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if 1 < e.expected_order <= 24])
def test_boundary_rows_match_sliced_oracle_on_catalog(name):
    """C(G) and every C(G, N), N minimal normal, at p = 2 and 3, as tuple
    complexes of the faces."""
    for _, poset in _coset_poset_cases(catalog_group(name), name):
        X = SimplicialComplex(order_complex(poset).faces, poset.n)
        for p in (2, 3):
            _assert_rows_match_sliced_oracle(X, p)


def test_boundary_rows_match_sliced_oracle_on_a_join():
    """The join shifts the second factor's labels past the first's
    n_vertices, and the first factor skips labels 0, 1, 3, 4, 7 and 8."""
    X = complex_from_faces([(2, 5), (5, 6, 9)])
    J = join(X, _coset_complex(symmetric_group(3)))
    assert [v for (v,) in J.faces[0]][:5] == [2, 5, 6, 9, 10]
    for p in (2, 3):
        _assert_rows_match_sliced_oracle(J, p)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(faces=st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=5),
                      min_size=1, max_size=10),
       p=st.sampled_from([2, 3]))
def test_boundary_rows_match_sliced_oracle_on_random_complexes(faces, p):
    """Vertex labels drawn from 0..40 skip most values."""
    _assert_rows_match_sliced_oracle(complex_from_faces(faces), p)


def _order_complex_cases():
    cases = [("empty", FinitePoset.from_pairs(0, [])), ("point", FinitePoset.from_pairs(1, []))]
    for e in load_catalog(verify=False):
        if 2 <= e.expected_order <= 60:
            cases += _coset_poset_cases(e.build(), e.name)
    return cases


def test_order_complex_matches_recursive_walk():
    """Chains extended a dimension at a time give the faces, in the same
    order, of the depth-first walk: on every catalog C(G) and C(G, N) of
    order 2..60, the empty poset and a one-point poset."""
    for name, poset in _order_complex_cases():
        got, expected = order_complex(poset), recursive_order_complex(poset)
        assert got == expected, name
        assert got.f_vector() == poset_f_vector(poset), name


def test_coset_chain_counts_match_the_coset_poset():
    """Subgroup chains weighted by the index of their least subgroup count
    the chains of C(G) and C(G, N), and the blocks of the coset complex hold
    that many faces: on every catalog C(G) and C(G, N) of order 2..60."""
    for name, poset in _order_complex_cases():
        if hasattr(poset, "lattice"):
            counts = coset_chain_counts(poset.lattice, list(poset.subgroup_ids))
            assert counts == poset.chain_counts(), name
            X = order_complex(poset)
            sizes = [sum(X.block_size[c[0]] for c in blocks) for blocks in X.blocks]
            assert sizes == counts == X.f_vector()[1:], name
            for blocks in X.blocks:  # each block starts where the one before ends
                ends = [o + X.block_size[c[0]] for c, o in blocks.items()]
                assert list(blocks.values()) == [0] + ends[:-1], name


@pytest.mark.parametrize("name", [e.name for e in load_catalog(verify=False)
                                  if 2 <= e.expected_order <= 60])
def test_coset_complex_matches_the_tuple_complex(name):
    """The block complex of C(G) and of every C(G, N), N minimal normal, has
    the boundary ranks, f-vector and Betti numbers at p = 2 and 3 of the
    tuple complex of its faces."""
    for case, poset in _coset_poset_cases(catalog_group(name), name):
        X = order_complex(poset)
        T = SimplicialComplex(X.faces, poset.n)
        assert X.f_vector() == T.f_vector(), case
        for p in (2, 3):
            assert _boundary_ranks(X, p) == _boundary_ranks(T, p), (case, p)
            assert reduced_betti(X, p) == reduced_betti(T, p), (case, p)


@pytest.mark.skipif(not RUN_SLOW, reason="set RUN_SLOW=1")
def test_coset_complex_of_s5_mod_a5():
    """C(S5, A5) at size: the f-vector and the Betti numbers over GF(2) and
    GF(3) (C(S5)'s b2 and b3, one dimension down), on the block and on the
    tuple path."""
    S5 = symmetric_group(5)
    (A5,) = [N for N in minimal_normal_subgroups(S5) if N.order == 60]
    X = order_complex(build_relative_poset(S5, A5, enumerate_subgroups(S5)))
    T = SimplicialComplex(X.faces, X.n_vertices)
    assert X.f_vector() == T.f_vector() == [1, 2286, 14825, 15900, 1800]
    for p in (2, 3):
        assert reduced_betti(X, p).as_array() == [0, 0, 864, 2424]
        assert reduced_betti(T, p) == reduced_betti(X, p)


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
