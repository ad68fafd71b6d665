import pytest
from hypothesis import given, settings, strategies as st

from cosetposets.catalog import (
    CatalogError,
    catalog_group,
    load_catalog,
    parse_catalog,
)
from oracles import is_abelian


def test_parse_single_line():
    entries = parse_catalog("S3;3;(1,2),(1,2,3);6")
    assert len(entries) == 1
    assert entries[0].name == "S3"
    assert entries[0].build().order == 6


def test_q8_regular_representation_line():
    entries = parse_catalog("Q8;8;(1,2,3,4)(5,6,7,8),(1,5,3,7)(2,8,4,6);8")
    assert entries[0].build().order == 8


def test_malformed_cycle_reports_line_number():
    with pytest.raises(CatalogError, match="line 2"):
        parse_catalog("C2;2;(1,2);2\nbad;3;(1,2;3")


def test_wrong_field_count_reports_line_number():
    with pytest.raises(CatalogError, match="line 1"):
        parse_catalog("C2;2;(1,2)")


def test_order_mismatch_names_entry():
    entries = parse_catalog("C2;2;(1,2);3")
    with pytest.raises(CatalogError, match="C2"):
        entries[0].build()


@pytest.mark.parametrize("line, message", [
    (";3;(1,2);2", "line 1: empty name"),
    ("X;300;(1,2);2", "line 1: degree 300 outside 1..255"),
    ("X;0;;1", "line 1: degree 0 outside 1..255"),
    ("X;3;(1,2);0", "line 1: expected order 0 below 1"),
    ("X;3;(1,2);-2", "line 1: expected order -2 below 1"),
    ("X;3;(1,1000000);2", "line 1: point 1000000 exceeds"),
])
def test_invalid_fields_report_line_number(line, message):
    with pytest.raises(CatalogError, match=message.replace("(", r"\(")):
        parse_catalog(line)


_FIELD_CHARS = "0123456789-+ ,()#;abcXS\t"


@st.composite
def _catalog_lines(draw):
    """Lines that are mostly well formed, with any one field garbled."""
    def field(well_formed):
        garbled = draw(st.integers(0, 5)) == 0
        return draw(st.text(_FIELD_CHARS, max_size=12) if garbled else well_formed)

    def numbers(usual, low, high):
        return st.one_of(st.integers(1, usual), st.integers(low, high)).map(str)

    cycles = st.lists(st.lists(numbers(8, -1, 10**6), min_size=1, max_size=4),
                      max_size=3).map(lambda cs: "".join(f"({','.join(c)})" for c in cs))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(_FIELD_CHARS, max_size=40))
    return ";".join([field(st.sampled_from(["S3", "", " ", "C2", "#x"])),
                     field(numbers(8, -3, 300)),
                     field(st.lists(cycles, max_size=3).map(",".join)),
                     field(numbers(30, -3, 30))])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_catalog_lines())
def test_fuzzed_line_parses_or_names_line_one(line):
    try:
        entries = parse_catalog(line)
    except CatalogError as exc:
        assert str(exc).startswith("line 1:")
        return
    for entry in entries:
        assert entry.name and 1 <= entry.degree <= 255 and entry.expected_order >= 1


def test_duplicate_names_rejected():
    with pytest.raises(CatalogError, match="duplicate"):
        parse_catalog("C2;2;(1,2);2\nC2;2;(1,2);2")


def test_bundled_catalog_loads_and_verifies():
    entries = load_catalog()
    assert len(entries) == 50
    by_name = {e.name: e for e in entries}
    for name, order in [("C1", 1), ("Q8", 8), ("Dic3", 12), ("Q16", 16),
                        ("S4", 24), ("SL(2,3)", 24), ("A5", 60), ("S5", 120),
                        ("PSL(2,7)", 168), ("A6", 360), ("A7", 2520), ("S7", 5040)]:
        assert by_name[name].expected_order == order


def test_bundled_catalog_covers_small_orders():
    entries = load_catalog(verify=False)
    counts = {}
    for e in entries:
        if e.expected_order <= 16:
            counts[e.expected_order] = counts.get(e.expected_order, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
                      9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}


def _fingerprint(G):
    elems = G.elements()
    orders = tuple(sorted(e.order() for e in elems))
    center = tuple(sorted(e.order() for e in elems
                          if all(e * g == g * e for g in G.generators)))
    squares = len({e * e for e in elems})
    return (G.order, orders, center, squares, is_abelian(G))


def test_same_order_entries_are_pairwise_nonisomorphic():
    """Isomorphism-invariant fingerprints separate every same-order pair,
    so each isomorphism type appears exactly once."""
    entries = [e for e in load_catalog(verify=False) if e.expected_order <= 24]
    seen = {}
    for e in entries:
        fp = _fingerprint(e.build())
        assert fp not in seen, f"{e.name} and {seen[fp]} look isomorphic"
        seen[fp] = e.name


def test_catalog_group_lookup():
    assert catalog_group("A5").order == 60
    with pytest.raises(KeyError):
        catalog_group("nonexistent")


def test_membership_agrees_with_enumeration_small_catalog_groups():
    import random

    rng = random.Random(41)
    for entry in load_catalog(verify=False):
        if entry.expected_order > 100:
            continue
        G = entry.build()
        elems = G.elements()
        assert len(set(elems)) == G.order
        assert all(e in G for e in elems)
        element_set = set(elems)
        from cosetposets.perm import Permutation

        for _ in range(10):
            images = list(range(G.degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert (p in G) == (p in element_set)


def test_sylow_orders_exact_across_catalog():
    def primes_dividing(n):
        out, d = [], 2
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.append(n)
        return out

    for entry in load_catalog(verify=False):
        G = entry.build()
        for p in primes_dividing(G.order):
            P = G.sylow_subgroup(p)
            cofactor = G.order // P.order
            assert P.order * cofactor == G.order
            assert cofactor % p != 0
            assert P.order % p == 0 or P.order == 1
