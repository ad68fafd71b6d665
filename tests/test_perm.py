import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cosetposets.groups import (PermutationGroup, alternating_group, conjugate_indices,
                                symmetric_group)
from cosetposets.lattice import enumerate_subgroups
from cosetposets.perm import (
    Permutation,
    _conj_bytes,
    _inv_bytes,
    cycle_string,
    extend_degree,
    parse_permutation,
    parse_permutation_list,
)
from oracles import conj_element


def test_involution_squares_to_identity():
    t = Permutation.from_cycles([(1, 2)], 2)
    assert (t * t).is_identity()


def test_compose_applies_left_factor_first():
    # (1,2,3) then (1,2): 1 -> 2 -> 1, 2 -> 3 -> 3, 3 -> 1 -> 2
    p = parse_permutation("(1,2,3)", 3)
    q = parse_permutation("(1,2)", 3)
    r = p * q
    assert [r(i) for i in (1, 2, 3)] == [1, 3, 2]
    assert r == parse_permutation("(2,3)", 3)


def test_random_inverse_law():
    rng = random.Random(9)
    for _ in range(20):
        images = list(range(9))
        rng.shuffle(images)
        p = Permutation(images)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_sign_values():
    assert Permutation.identity(6).sign() == 1
    assert parse_permutation("(1,2)", 6).sign() == -1
    assert parse_permutation("(1,2)(3,4)(5,6)", 6).sign() == -1


def test_sign_is_multiplicative():
    rng = random.Random(17)
    for _ in range(30):
        a, b = list(range(7)), list(range(7))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(a), Permutation(b)
        assert (p * q).sign() == p.sign() * q.sign()


def test_conjugation_exponent_notation():
    p = parse_permutation("(1,2)", 3)
    g = parse_permutation("(2,3)", 3)
    assert p ** g == parse_permutation("(1,3)", 3)


def test_integer_powers_and_order():
    c = parse_permutation("(1,2,3,4,5)", 5)
    assert c ** 5 == Permutation.identity(5)
    assert c ** -1 == c.inverse()
    assert c.order() == 5
    assert parse_permutation("(1,2)(3,4,5)", 5).order() == 6


def test_cycle_string_round_trip():
    for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,6)(3,5)"]:
        p = parse_permutation(text, 6)
        assert parse_permutation(cycle_string(p), 6) == p
    assert cycle_string(Permutation.identity(4)) == "()"


def test_parse_is_whitespace_insensitive():
    """Whitespace beside parentheses and commas is ignored."""
    assert parse_permutation(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == parse_permutation("(1,2)(3,4)", 4)
    for text in ("( 1 , 2 )", "(1,2) (3,4)", " (1, 2)\n(3 ,4) "):
        assert parse_permutation_list(text) == [parse_permutation(text)]
    assert parse_permutation("(1,2) (3,4)") == parse_permutation("(1,2)(3,4)")


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_permutation("(1,2", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,2))", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,5)", 4)


@pytest.mark.parametrize("parse", [parse_permutation, parse_permutation_list])
@pytest.mark.parametrize("text", ["(1 2 3)", "(1, 2)(3 4)", "(1,2)(3\t4)", "(12 3)"])
def test_parse_refuses_whitespace_between_two_digits(parse, text):
    """Whitespace between two digits is refused, not read as one point:
    "(1 2 3)" is not the identity on 123 points."""
    message = f"^points separated by whitespace in {re.escape(repr(text))}; separate points with commas"
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_parse_list_splits_on_top_level_commas():
    perms = parse_permutation_list("(1,2,3)(4,5), (1,2)")
    assert len(perms) == 2
    assert perms[0].degree == perms[1].degree == 5
    assert perms[1] == parse_permutation("(1,2)", 5)


def test_parse_list_parses_each_entry_at_the_given_degree():
    """A point above the given degree is named with its entry, as
    parse_permutation names it, rather than failing to shrink the degree."""
    with pytest.raises(ValueError, match=r"^point 4 exceeds degree 2 in '\(3,4\)'$"):
        parse_permutation_list("(1,2),(3,4)", 2)
    with pytest.raises(ValueError, match=r"^point 4 exceeds degree 3 in '\(1,2,3,4\)'$"):
        parse_permutation_list("(1,2,3,4)", 3)
    assert [p.degree for p in parse_permutation_list("(1,2),(3,4)", 6)] == [6, 6]


def test_cycle_type_and_fixed_points():
    p = parse_permutation("(1,2,3,4)(5,6)", 7)
    assert p.cycle_type() == (4, 2)
    assert p.fixed_points() == (7,)


def test_extend_degree_fixes_new_points():
    p = parse_permutation("(1,2)", 2)
    q = extend_degree(p, 5)
    assert q.degree == 5
    assert q.fixed_points() == (3, 4, 5)


@pytest.mark.parametrize("degree", [256, 300, 10**6])
def test_degrees_and_points_above_255_rejected(degree):
    with pytest.raises(ValueError, match=f"degree {degree} exceeds the maximum 255"):
        extend_degree(parse_permutation("(1,2)", 2), degree)
    with pytest.raises(ValueError, match=f"degree {degree} exceeds the maximum 255"):
        Permutation.from_cycles([(1, 2)], degree)
    with pytest.raises(ValueError, match=f"point {degree} exceeds the maximum degree 255"):
        parse_permutation(f"(1,{degree})")
    with pytest.raises(ValueError, match=f"point {degree} exceeds"):
        parse_permutation_list(f"(1,2),(3,{degree})", 5)
    with pytest.raises(ValueError, match=f"degree {degree} exceeds the maximum 255"):
        PermutationGroup([], degree=degree)


def test_degree_0_rejected():
    with pytest.raises(ValueError, match="degree 0 is below the minimum 1"):
        Permutation([])
    with pytest.raises(ValueError, match="degree 0 is below the minimum 1"):
        Permutation.from_cycles([], 0)
    with pytest.raises(ValueError, match="degree 0 is below the minimum 1"):
        PermutationGroup([], degree=0)


def test_degree_255_accepted():
    assert extend_degree(parse_permutation("(1,2)", 2), 255).degree == 255
    assert parse_permutation("(1,255)").degree == 255


@st.composite
def _permutation_lists(draw):
    n = draw(st.integers(1, 8))
    images = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    return n, [Permutation(p) for p in images]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_permutation_lists())
def test_parse_permutation_list_round_trips_cycle_string(case):
    n, perms = case
    text = ",".join(cycle_string(p) for p in perms)
    assert parse_permutation_list(text, n) == perms


@pytest.mark.parametrize("degree", [0, -2])
def test_parse_checks_a_given_degree_before_its_points(degree):
    """A non-positive degree is named as such, not as a point it exceeds."""
    for text in ("()", "(1,2)"):
        with pytest.raises(ValueError, match=f"^degree {degree} is below the minimum 1$"):
            parse_permutation(text, degree)
        with pytest.raises(ValueError, match=f"^degree {degree} is below the minimum 1$"):
            parse_permutation_list(text, degree)


def _relabelled_a5():
    points = list(range(5))
    random.Random(7).shuffle(points)
    return alternating_group(5).conjugate_by(Permutation(points))


@pytest.mark.parametrize("G", [symmetric_group(4), _relabelled_a5()], ids=["S4", "A5_relabelled"])
def test_conj_bytes_matches_pow_and_the_product_table(G):
    """x^g = g^-1 x g on image tables, for every pair of elements: as
    ``Permutation.__pow__`` and as the product-table oracle."""
    elems = G.element_bytes()
    for g, gb in enumerate(elems):
        for x, xb in enumerate(elems):
            conj = _conj_bytes(xb, gb)
            assert conj == (Permutation._from_bytes(xb) ** Permutation._from_bytes(gb))._b
            assert conj == elems[conj_element(G, x, g)]


def _loop_inverse(p: bytes) -> bytes:
    """Oracle: the inverse image table, one point at a time."""
    out = bytearray(len(p))
    for i, x in enumerate(p):
        out[x] = i
    return bytes(out)


def test_inv_bytes_matches_the_loop():
    """On every element of S_5 and A_6, and on seeded permutations of
    degree 255 and of lower degrees."""
    tables = [*symmetric_group(5).element_bytes(), *alternating_group(6).element_bytes()]
    rng = random.Random(255)
    for degree in (255, 255, 255, 1, 2, 120):
        points = list(range(degree))
        rng.shuffle(points)
        tables.append(bytes(points))
    for p in tables:
        assert _inv_bytes(p) == _loop_inverse(p), p


def test_is_normalized_by_agrees_with_conjugate_indices_on_s4():
    G = symmetric_group(4)
    elems = G.element_bytes()
    for rec in enumerate_subgroups(G).subgroups:
        H = PermutationGroup([Permutation._from_bytes(elems[i]) for i in rec.generators], 4)
        for b in elems:
            normal = conjugate_indices(G, rec.elements, b) == rec.elements
            assert H.is_normalized_by(Permutation._from_bytes(b)) == normal, (rec.order, b)
