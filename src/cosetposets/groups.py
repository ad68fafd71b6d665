"""Permutation groups via deterministic base/strong-generating-set chains.

Everything here is exact: orders are arbitrary-precision integers and
membership is decided by sifting through the stabilizer chain. Base points
are always chosen as the smallest moved point, so a group built twice from
the same generator sequence is identical, byte for byte.

Internally permutations are image tables of type ``bytes`` (0-based);
the public surface speaks :class:`~cosetposets.perm.Permutation`. Subgroups
and cosets are index sets into a group's element table (``_closure``,
``right_coset_reps``), and ``_closure`` is the only way a subgroup reaches
that table.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import factorial, gcd, isqrt
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .perm import Permutation, _ID256, _check_degree, _conj_bytes, _inv_bytes, _mul_bytes

ENUMERATION_BOUND = 10**6

_Point = TypeVar("_Point", bound=Hashable)


class BudgetExceededError(RuntimeError):
    """An operation needed to enumerate more elements than its budget allows."""


def _min_moved(g: bytes) -> int:
    for i, x in enumerate(g):
        if x != i:
            return i
    raise ValueError("identity has no moved point")


class _Level:
    """One level of a stabilizer chain: a base point, its generators ``gens``
    beside their 256-entry padded tables ``pads`` and padded inverses
    ``inverse_pads``, the transversal ``orbit`` (point p -> u_p with
    base^u_p = p) beside its inverses ``inverse`` (p -> u_p^-1, padded), so
    ``g.translate(inverse[p])`` is g u_p^-1 with no table built per product,
    and the cursor ``checked`` (p -> how many of ``gens`` the Schreier loop
    has checked p against). ``add`` extends the orbit in place: the new
    generator is applied to the old points, then every generator to each new
    point, so an old point's u_p and u_p^-1 never change."""

    __slots__ = ("base", "gens", "pads", "inverse_pads", "orbit", "inverse", "checked")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[bytes] = []
        self.pads: list[bytes] = []
        self.inverse_pads: list[bytes] = []
        self.orbit: dict[int, bytes] = {base: _ID256[:degree]}
        self.inverse: dict[int, bytes] = {base: _ID256}
        self.checked: dict[int, int] = {base: 0}

    def copy(self) -> "_Level":
        """A copy to extend, with every (point, generator) pair checked."""
        lv = _Level.__new__(_Level)
        lv.base, lv.orbit, lv.inverse = self.base, {**self.orbit}, {**self.inverse}
        lv.gens, lv.pads, lv.inverse_pads = self.gens[:], self.pads[:], self.inverse_pads[:]
        lv.checked = dict.fromkeys(self.orbit, len(self.gens))
        return lv

    def add(self, gen: bytes, pad: bytes, inverse_pad: bytes) -> None:
        gens, pads, inverse_pads = self.gens, self.pads, self.inverse_pads
        gens.append(gen)
        pads.append(pad)
        inverse_pads.append(inverse_pad)
        orbit, inverse = self.orbit, self.inverse
        walk = [(p, len(gens) - 1) for p in orbit]  # old points: the new generator only
        for p, first in walk:  # grows while it is walked
            for r in range(first, len(gens)):
                q = gens[r][p]
                if q not in orbit:
                    # u_q = u_p s and u_q^-1 = s^-1 u_p^-1
                    orbit[q] = orbit[p].translate(pads[r])
                    inverse[q] = inverse_pads[r].translate(inverse[p])
                    self.checked[q] = 0
                    walk.append((q, 0))


def _strip(g: bytes, levels: list[_Level], start: int) -> tuple[bytes, int]:
    for idx in range(start, len(levels)):
        lv = levels[idx]
        x = g[lv.base]
        if x == lv.base:
            continue
        u_inv = lv.inverse.get(x)
        if u_inv is None:
            return g, idx
        g = g.translate(u_inv)
    return g, len(levels)


def _chain_order(levels: list[_Level]) -> int:
    order = 1
    for lv in levels:
        order *= len(lv.orbit)
    return order


def _build_chain(raw_gens: Iterable[bytes], degree: int, stop_at: int | None = None,
                 start: Sequence[_Level] = ()) -> list[_Level]:
    """Deterministic Schreier-Sims that extends its chain, never rebuilds it.

    Each level's Schreier loop resumes from its points' cursors: a pair
    checked once stays checked, since orbits grow in place and old
    transversals never change. A sifted residue's inverse is computed once
    for every level it joins. With ``start``, the complete chain of a
    subgroup, its levels are copied (never mutated) with every pair checked,
    and ``raw_gens`` join level 0. With ``stop_at`` set, construction returns
    as soon as the transversal product reaches that value; the partial chain
    then certifies the order (the product only counts distinct elements of
    the generated group) but must not be used for membership.
    """
    ident, tail = _ID256[:degree], _ID256[degree:]
    gens: list[bytes] = []
    seen = set()
    for g in raw_gens:
        if len(g) != degree:
            raise ValueError("degree mismatch among generators")
        if g != ident and g not in seen:
            seen.add(g)
            gens.append(g)
    levels = [lv.copy() for lv in start]
    if not gens:
        return levels

    if not levels:
        levels.append(_Level(min(_min_moved(g) for g in gens), degree))
    for g in gens:
        levels[0].add(g, g + tail, _inv_bytes(g) + tail)
    if stop_at is not None and _chain_order(levels) == stop_at:
        return levels

    i = 0
    while i >= 0:
        lv = levels[i]
        added_at = -1
        for p in sorted(lv.orbit):
            u_p = lv.orbit[p]
            for r in range(lv.checked[p], len(lv.gens)):
                lv.checked[p] = r + 1
                schreier = u_p.translate(lv.pads[r]).translate(lv.inverse[lv.gens[r][p]])
                if schreier == ident:
                    continue
                h, j = _strip(schreier, levels, i + 1)
                if h == ident:
                    continue
                if j == len(levels):
                    levels.append(_Level(_min_moved(h), degree))
                pad, inverse_pad = h + tail, _inv_bytes(h) + tail
                for l in range(i + 1, j + 1):
                    levels[l].add(h, pad, inverse_pad)
                if stop_at is not None and _chain_order(levels) == stop_at:
                    return levels
                added_at = j
                break
            if added_at >= 0:
                break
        i = added_at if added_at >= 0 else i - 1
    return levels


def _generated_order(raw_gens: Iterable[bytes], degree: int, stop_at: int | None = None,
                     start: Sequence[_Level] = ()) -> int:
    return _chain_order(_build_chain(raw_gens, degree, stop_at=stop_at, start=start))


class PermutationGroup:
    """A finite permutation group defined by generators.

    Immutable after construction; the stabilizer chain gives exact order
    and membership. The sorted element table, its index, the full index set,
    the conjugation rows and the cyclic table are built once, on first use.
    """

    __slots__ = ("_degree", "_gens", "_levels", "_order", "_elements", "_index", "_full",
                 "_conj_rows", "_cyclic")

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree is required for an empty generator list")
            degree = gens[0].degree
        _check_degree(degree)
        if any(g.degree != degree for g in gens):
            raise ValueError("degree mismatch among generators")
        self._degree = degree
        self._gens = tuple(gens)
        self._levels = _build_chain([g._b for g in gens], degree)
        self._order = _chain_order(self._levels)
        self._elements: tuple[bytes, ...] | None = None
        self._index: dict[bytes, int] | None = None
        self._full: frozenset[int] | None = None
        self._conj_rows: list[list[int]] | None = None
        self._cyclic: tuple | None = None

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._gens

    @property
    def order(self) -> int:
        return self._order

    @property
    def base(self) -> tuple[int, ...]:
        """Base points, 1-based."""
        return tuple(lv.base + 1 for lv in self._levels)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self._degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self._degree}")
        return self._contains_bytes(p._b)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def _contains_bytes(self, b: bytes) -> bool:
        residue, _ = _strip(b, self._levels, 0)
        return residue == _ID256[: self._degree]

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        if self._degree != other._degree:
            raise ValueError("degree mismatch")
        return all(other._contains_bytes(g) for g in self._gens_bytes())

    def is_normalized_by(self, c: Permutation) -> bool:
        """Whether c^-1 H c = H, for a permutation c of the same degree."""
        if c.degree != self._degree:
            raise ValueError("degree mismatch")
        return all(self._contains_bytes(_conj_bytes(g, c._b)) for g in self._gens_bytes())

    def _gens_bytes(self) -> list[bytes]:
        return [g._b for g in self._gens]

    def element_bytes(self) -> tuple[bytes, ...]:
        """All elements as image tables, sorted; the canonical enumeration.

        Computed once; the identity sorts first, at index 0.
        """
        if self._elements is None:
            if self._order > ENUMERATION_BOUND:
                raise BudgetExceededError(
                    f"group of order {self._order} exceeds the enumeration bound "
                    f"{ENUMERATION_BOUND}")
            # every element once, as a product of transversal elements
            elems = [_ID256[: self._degree]]
            for lv in reversed(self._levels):
                transversal = [lv.orbit[p] for p in sorted(lv.orbit)]
                elems = [_mul_bytes(e, u) for e in elems for u in transversal]
            elems.sort()
            self._elements = tuple(elems)
        return self._elements

    def element_index(self) -> dict[bytes, int]:
        """Position of each element in ``element_bytes()``; built once, read-only."""
        if self._index is None:
            self._index = {b: i for i, b in enumerate(self.element_bytes())}
        return self._index

    def _full_set(self) -> frozenset[int]:
        """Every index into ``element_bytes()``: the group as its own
        subgroup. Built once, so a closure that reaches G returns this set."""
        if self._full is None:
            self._full = frozenset(range(len(self.element_bytes())))
        return self._full

    def _cyclic_table(self) -> tuple[dict[frozenset[int], list[int]], list[int],
                                     list[tuple[int, int]]]:
        """Built once, read-only: each cyclic subgroup <g>, the trivial one
        included, as element indices mapped to its generators' indices in
        increasing order (keys in least-generator order); each element's
        position in that dict; and the conjugacy classes of cyclic
        subgroups, walked by ``_orbit``, as (least position, size)."""
        if self._cyclic is None:
            elems, index = self.element_bytes(), self.element_index()
            subgroups: dict[frozenset[int], list[int]] = {}
            position = [-1] * len(elems)
            for i, b in enumerate(elems):
                if position[i] < 0:  # i is the least generator of <b>
                    powers, x, pad = [0], b, b + _ID256[self._degree:]  # b^k at k
                    while x != elems[0]:
                        powers.append(index[x])
                        x = x.translate(pad)
                    gens = [y for k, y in enumerate(powers) if gcd(k, len(powers)) == 1]
                    for y in gens:
                        position[y] = len(subgroups)
                    subgroups[frozenset(powers)] = sorted(gens)
            reps = [gens[0] for gens in subgroups.values()]
            rows = _conjugation_rows(self)
            step = lambda j: [position[row[reps[j]]] for row in rows]
            classes, classed = [], set()
            for j in range(len(reps)):
                if j not in classed:
                    orbit = _orbit(j, step)
                    classed.update(c for c, _, _ in orbit)
                    classes.append((j, len(orbit)))
            self._cyclic = subgroups, position, classes
        return self._cyclic

    def elements(self) -> list[Permutation]:
        return [Permutation._from_bytes(b) for b in self.element_bytes()]

    def conjugate_by(self, g: Permutation) -> "PermutationGroup":
        """The conjugate group with generators k^g for each generator k."""
        if g.degree != self._degree:
            raise ValueError("degree mismatch")
        return PermutationGroup([k ** g for k in self._gens], self._degree)

    def __eq__(self, other) -> bool:
        """Equality as abstract subgroups of the same symmetric group."""
        if not isinstance(other, PermutationGroup):
            return NotImplemented
        if self._degree != other._degree or self._order != other._order:
            return False
        return all(other._contains_bytes(g) for g in self._gens_bytes())

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self._gens) or "()"
        return f"<group of order {self._order} on {self._degree} points: {gens}>"


def generated_order(gens: Sequence[Permutation], degree: int | None = None,
                    stop_at: int | None = None) -> int:
    """Order of <gens>, stopping early once ``stop_at`` is certified.

    ``stop_at`` must be an upper bound for the generated order (typically
    the order of an ambient group containing all the generators); the
    transversal product never overshoots it, so hitting it proves equality.
    """
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generator list")
        degree = gens[0].degree
    return _generated_order([g._b for g in gens], degree, stop_at=stop_at)


def cyclic_group(n: int) -> PermutationGroup:
    return PermutationGroup([Permutation.from_cycles([tuple(range(1, n + 1))], n)])


def symmetric_group(n: int) -> PermutationGroup:
    if n < 2:
        return PermutationGroup([], degree=max(n, 1))
    gens = [Permutation.from_cycles([(1, 2)], n),
            Permutation.from_cycles([tuple(range(1, n + 1))], n)]
    return PermutationGroup(gens)


def alternating_group(n: int) -> PermutationGroup:
    if n < 3:
        return PermutationGroup([], degree=max(n, 1))
    if n == 3:
        return PermutationGroup([Permutation.from_cycles([(1, 2, 3)], 3)])
    three = Permutation.from_cycles([(1, 2, 3)], n)
    if n % 2 == 1:
        big = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    else:
        big = Permutation.from_cycles([tuple(range(2, n + 1))], n)
    G = PermutationGroup([three, big])
    if G.order != factorial(n) // 2:
        raise RuntimeError(f"the generators of A_{n} give order {G.order}, not {n}!/2")
    return G


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _sylow2_wreath_gens(n: int) -> list[bytes]:
    """Generators of a Sylow 2-subgroup of S_n on 0-based points.

    Dyadic blocks in decreasing size; on a block of size 2^k the generators
    are the pointwise swaps of the two halves of each initial 2^j segment,
    giving the iterated wreath product of copies of C2. Below degree 8 the
    blocks are placed from the top point down. The element scan reads the
    sorted element table, where the permutations that move only the highest
    points come first, so it grows P from the top points down, and this
    placement gives its P as a set: the P that fixes the witnesses of the
    A_7 long-cycle sweep in the golden report. From degree 8 up the blocks
    are placed from point 0 up, the P that the A_8 to A_11 sweeps in the
    goldens read; at degree 8 one block covers every point, so the two
    placements agree.
    """
    gens: list[bytes] = []
    placed = 0
    while placed < n:
        size = 1 << ((n - placed).bit_length() - 1)
        offset = placed if n >= 8 else n - placed - size
        for j in range(1, size.bit_length()):
            half = 1 << (j - 1)
            images = list(range(n))
            for a in range(offset, offset + half):
                images[a], images[a + half] = images[a + half], images[a]
            gens.append(bytes(images))
        placed += size
    return gens


def _even_part_gens(gens: list[bytes]) -> list[bytes]:
    """Generators of the even-permutation kernel of the group they generate,
    for generators that include an odd one (the wreath's always do).

    Schreier generators of the kernel for the transversal {1, t} with t the
    first odd generator.
    """
    def sign(b: bytes) -> int:
        return Permutation._from_bytes(b).sign()

    evens = [g for g in gens if sign(g) == 1]
    odds = [g for g in gens if sign(g) == -1]
    t = odds[0]
    ti = _inv_bytes(t)
    out = list(evens)
    out.extend(_mul_bytes(g, ti) for g in odds)
    out.extend(_conj_bytes(g, ti) for g in evens)  # t g t^-1 = g^(t^-1)
    out.extend(_mul_bytes(t, g) for g in odds)
    return [g for g in dict.fromkeys(out) if g != _ID256[:len(t)]]  # each once, in order


def sylow_subgroup(G: PermutationGroup, p: int) -> PermutationGroup:
    """One Sylow p-subgroup, deterministic for a fixed group presentation.

    For S_n and A_n at p = 2 it is the dyadic wreath of
    ``_sylow2_wreath_gens`` (its even part for A_n), at every degree, built
    from generators alone: G's element table is never listed. Every other
    group goes to the element scan ``_scan_sylow_subgroup``.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    pe = _p_part(G.order, p)
    if pe == 1:
        return PermutationGroup([], degree=G.degree)
    n = G.degree
    if p == 2 and G.order in (factorial(n), factorial(n) // 2):
        gens = _sylow2_wreath_gens(n)
        if G.order == factorial(n) // 2:
            gens = _even_part_gens(gens)
        P = PermutationGroup([Permutation._from_bytes(g) for g in gens], n)
        if P.order != pe:
            raise RuntimeError(f"the wreath Sylow {p}-subgroup of degree {n} has order "
                               f"{P.order}, not |G|_{p} = {pe}")
        return P
    return _scan_sylow_subgroup(G, p)


def _scan_sylow_subgroup(G: PermutationGroup, p: int) -> PermutationGroup:
    """A Sylow p-subgroup of G, for a prime p dividing |G|, from G's element
    table: start from the p-part of the first element of order divisible by
    p, and extend by the first p-element in table order that normalizes the
    current group without lying in it, rescanning each time. The p-parts are
    computed as far as the scans need."""
    pe = _p_part(G.order, p)
    n = G.degree
    rest = iter(G.element_bytes())
    # deduplicated p-elements, in canonical order, found as far as a scan needs
    p_elems: list[bytes] = []
    seen = set()

    def candidates() -> Iterable[bytes]:
        k = 0
        while True:
            while k == len(p_elems):
                b = next(rest, None)
                if b is None:
                    return
                m = Permutation._from_bytes(b).order()
                mp = _p_part(m, p)
                if mp == 1:
                    continue
                q = (Permutation._from_bytes(b) ** (m // mp))._b
                if q not in seen:
                    seen.add(q)
                    p_elems.append(q)
            yield p_elems[k]
            k += 1

    current = PermutationGroup([Permutation._from_bytes(next(candidates()))], n)
    while current.order < pe:
        for cand in candidates():
            if current._contains_bytes(cand):
                continue
            c = Permutation._from_bytes(cand)
            if current.is_normalized_by(c):
                current = PermutationGroup([*current.generators, c], n)
                break
        else:  # pragma: no cover - impossible by Sylow theory
            raise RuntimeError("failed to extend p-subgroup")
    return current


def direct_power(L: PermutationGroup, t: int) -> PermutationGroup:
    """The direct product of t disjoint copies of L, on t * degree points."""
    if t < 1:
        raise ValueError("t must be positive")
    G = PermutationGroup([embed_in_power(g, block, t)
                          for block in range(t) for g in L.generators], L.degree * t)
    if G.order != L.order ** t:
        raise RuntimeError(f"the direct power has order {G.order}, not |L|^{t} = {L.order ** t}")
    return G


def embed_in_power(p: Permutation, block: int, t: int) -> Permutation:
    """p acting on the given block of a t-fold direct power, fixing the rest."""
    n = p.degree
    images = list(range(n * t))
    for i, x in enumerate(p._b):
        images[block * n + i] = block * n + x
    return Permutation(images)


def diagonal_embedding(K: PermutationGroup, t: int) -> PermutationGroup:
    """The diagonal copy {(k, ..., k)} of K inside the t-fold direct power."""
    if t < 1:
        raise ValueError("t must be positive")
    # the copies on disjoint blocks commute; their product acts on every block
    gens = [reduce(mul, (embed_in_power(g, block, t) for block in range(t)))
            for g in K.generators]
    G = PermutationGroup(gens, K.degree * t)
    if G.order != K.order:
        raise RuntimeError(f"the diagonal copy has order {G.order}, not |K| = {K.order}")
    return G


def is_normal_subgroup(G: PermutationGroup, N: PermutationGroup) -> bool:
    if N.degree != G.degree:
        raise ValueError("degree mismatch")
    if not N.is_subgroup_of(G):
        raise ValueError("N is not a subgroup of G")
    return all(N.is_normalized_by(g) for g in G.generators)


class QuotientRepresentation(NamedTuple):
    """G acting on the right cosets of a normal subgroup N; ``group.generators[i]``
    is the image of ``G.generators[i]``."""
    group: PermutationGroup


def quotient_representation(G: PermutationGroup, N: PermutationGroup) -> QuotientRepresentation:
    """Realize G/N as a permutation group on the [G:N] cosets of N, labelled
    in the order a breadth-first walk from N under G's generators meets them."""
    if not is_normal_subgroup(G, N):
        raise ValueError("N is not normal in G")
    index = G.element_index()
    label = right_coset_reps(G, subgroup_indices(G, N))
    step = _on_cosets(G, label, range(len(label)), [index[g] for g in G._gens_bytes()])
    reps = [x for x, _, _ in _orbit(0, step)]
    if len(reps) != G.order // N.order:
        raise RuntimeError(f"the coset walk meets {len(reps)} cosets, not |G:N| = "
                           f"{G.order // N.order}")
    position = {x: j for j, x in enumerate(reps)}
    images = [Permutation([position[y] for y in column]) for column in zip(*map(step, reps))]
    Q = PermutationGroup(images, len(reps))
    if Q.order * N.order != G.order:
        raise RuntimeError(f"|G/N| |N| = {Q.order} * {N.order} is not |G| = {G.order}")
    return QuotientRepresentation(Q)


def _normal_closure(G: PermutationGroup, gens: list[int]) -> tuple[frozenset[int], list[int]]:
    """The normal closure of <gens> as element indices, and its generators:
    ``gens`` extended by each conjugate, under G's generators, that is not
    yet inside."""
    members = _closure(G, gens)
    changed = True
    while changed:
        changed = False
        for row in _conjugation_rows(G):
            for x in list(gens):
                if row[x] not in members:
                    gens.append(row[x])
                    members = _closure(G, gens, members)
                    changed = True
    return members, gens


def normal_closure(G: PermutationGroup, seeds: Sequence[Permutation]) -> PermutationGroup:
    """Smallest normal subgroup of G containing the seeds; a ValueError names
    a seed that is not an element of G."""
    index = G.element_index()
    for s in seeds:
        if s._b not in index:
            raise ValueError(f"seed {s} of degree {s.degree} is not in G of degree {G.degree}")
    _, gens = _normal_closure(G, [index[s._b] for s in seeds])
    return PermutationGroup([Permutation._from_bytes(G.element_bytes()[i]) for i in gens],
                            G.degree)


def _cyclic_normal_closures(G: PermutationGroup) -> Iterator[tuple[frozenset[int], list[int]]]:
    """``_normal_closure`` of one cyclic subgroup per nontrivial class, made when read."""
    subgroups, _, classes = G._cyclic_table()
    generators = list(subgroups.values())
    for j, _ in classes[1:]:  # classes[0] is the trivial subgroup's
        yield _normal_closure(G, [generators[j][0]])


def minimal_normal_subgroups(G: PermutationGroup) -> list[PermutationGroup]:
    """All minimal nontrivial normal subgroups. Each is the normal closure of
    any nontrivial cyclic subgroup inside it, and conjugate cyclic subgroups
    have one closure, so one closure is made per class of cyclic subgroups."""
    if G.order <= 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    elems = G.element_bytes()
    closures: dict[frozenset[int], list[int]] = {}
    for members, gens in _cyclic_normal_closures(G):
        closures.setdefault(members, gens)
    minimal = sorted((k for k in closures if not any(other < k for other in closures)),
                     key=lambda k: (len(k), sorted(k)))
    return [PermutationGroup([Permutation._from_bytes(elems[i]) for i in closures[k]], G.degree)
            for k in minimal]


def subgroup_indices(G: PermutationGroup, H: PermutationGroup) -> frozenset[int]:
    """The elements of a subgroup H of G as indices into G's element table:
    H's own table mapped into G's when H's is already built, else closed
    from H's generators on G's table, which builds none for H.

    Raises KeyError if H is not inside G; an H of G's order is G.
    """
    index = G.element_index()
    gens = [index[g] for g in H._gens_bytes()]
    if H.order == G.order:
        return G._full_set()
    if H._elements is not None:
        return frozenset(map(index.__getitem__, H._elements))
    return _closure(G, gens)


def _closure(G: PermutationGroup, gens: Sequence[int],
             start: frozenset[int] = frozenset({0}),
             ceiling: int | None = None) -> frozenset[int]:
    """<gens> as indices into G's element table, grown from ``start``, a
    subgroup of <gens>, as a union of right cosets start·t: one membership
    test per coset and generator, then each new coset is added whole
    (Dimino). Past ``ceiling``, a bound on the order of a proper subgroup
    (|G| // 2 by default), the result is G's one full index set."""
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G._degree:]
    ceiling = len(elems) // 2 if ceiling is None else ceiling
    base = [elems[h] for h in start]
    pads = [elems[g] + tail for g in gens]
    seen = set(start)
    reps = [elems[0]]
    for r in reps:  # grows while it is walked
        if len(seen) > ceiling:
            return G._full_set()
        for pad in pads:
            t = r.translate(pad)
            if index[t] not in seen:
                seen.update(map(index.__getitem__, map(bytes.translate, base, repeat(t + tail))))
                reps.append(t)
    return frozenset(seen)


def right_coset_reps(G: PermutationGroup, members: Iterable[int],
                     finer: Sequence[int] | None = None,
                     finer_reps: Sequence[int] | None = None) -> list[int]:
    """For each index x into G's element table, the least index in the right
    coset Hx, with the subgroup H given by its element indices. With
    ``finer``, this function's labels for a subgroup B of H, only B's coset
    representatives y get a label, and x's is ``rep[finer[x]]``: Hx is the
    union of the B r x, r over H's B-coset representatives, so H's cosets
    cost |G : B| translates, not |G| (coset enumeration along a chain).
    ``finer_reps``, B's representatives in increasing order, is read off
    ``finer`` when not given; a caller that labels many H over one B
    passes it."""
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G._degree:]
    fine = range(len(elems)) if finer is None else finer  # B = 1 by default
    base = [elems[h] for h in members if fine[h] == h]
    rep = [-1] * len(elems)
    for x in sorted(set(fine)) if finer_reps is None else finer_reps:
        if rep[x] < 0:  # x is the least representative not yet labelled: the least in Hx
            pad = elems[x] + tail
            for r in base:
                rep[fine[index[r.translate(pad)]]] = x
    return rep


def _conjugation_rows(G: PermutationGroup) -> list[list[int]]:
    """For each generator g of G, the map x -> x^g = g^-1 x g on indices
    into G's element table, as a list. Built once per group; read-only."""
    if G._conj_rows is None:
        xs = range(len(G.element_bytes()))
        G._conj_rows = [[*map(_conjugator(G, g), xs)] for g in G._gens_bytes()]
    return G._conj_rows


def _conjugator(G: PermutationGroup, g: bytes) -> Callable[[int], int]:
    """x -> x^g = g^-1 x g on indices into G's element table, with g in G or
    normalizing G; computed per call rather than as a whole row."""
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G._degree:]
    gi, g_pad = _inv_bytes(g), g + tail
    return lambda x: index[gi.translate(elems[x] + tail).translate(g_pad)]


def _orbit(seed: _Point,
           step: Callable[[_Point], Sequence[_Point]]) -> list[tuple[_Point, int, int]]:
    """The orbit of a point under some maps, breadth first; ``step(x)`` lists
    x's image under each map, in a fixed order of the maps. Points are any
    hashable values: base points, coset labels, cycles, index sets. Each
    image comes once, as (image, position of the member it was first reached
    from, index of the map that reached it), starting with (seed, -1, -1),
    so a word in the maps that carries the seed to each member is read back
    along the parent positions."""
    orbit, seen = [(seed, -1, -1)], {seed}
    for pos, (x, _, _) in enumerate(orbit):  # grows while it is walked
        for r, image in enumerate(step(x)):
            if image not in seen:
                seen.add(image)
                orbit.append((image, pos, r))
    return orbit


def _on_cosets(G: PermutationGroup, label: Sequence[int], finer: Sequence[int],
               gens: Sequence[int]) -> Callable[[int], list[int]]:
    """The step for ``_orbit`` on right cosets Hx, each given by its label
    ``label[finer[x]]`` from ``right_coset_reps`` (``finer`` ``range(|G|)``
    for labels of every element): the label of Hxg for each g in ``gens``."""
    elems, index = G.element_bytes(), G.element_index()
    pads = [elems[g] + _ID256[G._degree:] for g in gens]
    return lambda x: [label[finer[index[elems[x].translate(pad)]]] for pad in pads]


def conjugate_indices(G: PermutationGroup, members: Iterable[int], g: bytes) -> frozenset[int]:
    """{x^g = g^-1 x g : x in members} for index sets into G's element
    table, with g in G or normalizing G."""
    return frozenset(map(_conjugator(G, g), members))


def _normalizer(G: PermutationGroup, members: frozenset[int], gens: Sequence[int],
                order: int) -> tuple[frozenset[int], tuple[int, ...]]:
    """N_G(H) for a subgroup H given by its element indices and generator
    indices, with |N_G(H)| = ``order`` known (|G| over the size of H's
    class), grown from H by ``_grow``."""
    return _grow(G, members, gens, order,
                 lambda xb: all(h in members for h in map(_conjugator(G, xb), gens)))


def _centralizer(G: PermutationGroup, k: int, order: int) -> frozenset[int]:
    """C_G(k) for the element of index k, with |C_G(k)| = ``order`` known
    (|G| over the size of k's class), grown from <k> by ``_grow``."""
    elems = G.element_bytes()
    tail = _ID256[G._degree:]
    kb, k_pad = elems[k], elems[k] + tail
    return _grow(G, _closure(G, (k,)), (k,), order,
                 lambda xb: kb.translate(xb + tail) == xb.translate(k_pad))[0]


def _grow(G: PermutationGroup, members: frozenset[int], gens: Sequence[int], order: int,
          keeps: Callable[[bytes], bool]) -> tuple[frozenset[int], tuple[int, ...]]:
    """The subgroup of the elements x that pass ``keeps(x's image table)``,
    of known ``order``, grown from a subgroup of it given by its element and
    generator indices: by ``_closure``, adding each element that passes in
    table order until it has that order. Returns its element indices and
    generators (``gens`` and the elements added; G's own when it is G)."""
    elems, index = G.element_bytes(), G.element_index()
    if order == len(elems):
        return G._full_set(), tuple(index[g] for g in G._gens_bytes())
    N, n_gens = members, tuple(gens)
    for x, xb in enumerate(elems):
        if len(N) == order:
            break
        if x in N:
            continue
        if keeps(xb):
            n_gens += (x,)
            N = _closure(G, n_gens, N)
    return N, n_gens


def conjugacy_orbit_of_subgroup(
        G: PermutationGroup, members: frozenset[int],
        gens: Sequence[int]) -> list[tuple[frozenset[int], tuple[int, ...], bytes]]:
    """The class of a subgroup H of G, given by its element and generator
    indices, walked by ``_orbit`` under the conjugation rows of G's generators
    s: each H^g, H first, as (element indices, ``gens`` conjugated by g, g),
    g the image table of its parent's conjugator times s (H^c gives H^(cs))."""
    rows, s_gens = _conjugation_rows(G), G._gens_bytes()
    walk = _orbit(members, lambda fs: [frozenset([row[x] for x in fs]) for row in rows])
    out = [(members, tuple(gens), _ID256[:G._degree])]
    for image, parent, r in walk[1:]:
        _, parent_gens, c = out[parent]
        out.append((image, tuple([rows[r][x] for x in parent_gens]), _mul_bytes(c, s_gens[r])))
    return out


class SubgroupRecord:
    """A subgroup of an ambient group: its elements and generators that
    witness it, both as indices into the ambient group's element table.

    Immutable, equal and hashed by its three fields. Its fields are slots,
    which the census and lattice scans read faster than a tuple's."""
    __slots__ = ("order", "elements", "generators")

    def __init__(self, order: int, elements: frozenset[int], generators: tuple[int, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a SubgroupRecord")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a SubgroupRecord")

    def _key(self) -> tuple:
        return self.order, self.elements, self.generators

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return SubgroupRecord, self._key()

    def __eq__(self, other):
        if other.__class__ is not SubgroupRecord:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"SubgroupRecord(order={self.order!r}, elements={self.elements!r}, "
                f"generators={self.generators!r})")


def intermediate_subgroups(G: PermutationGroup, H: PermutationGroup) -> list[SubgroupRecord]:
    """All subgroups K with H <= K <= G.

    Breadth-first closure of {H} under single-element extensions <K, g>,
    with g ranging over representatives of the double cosets K\\G/K; any
    subgroup between H and G is reached through a chain of such extensions.
    A double coset K g K is the orbit of the right coset K g under K acting
    by right multiplication, so each is found on K's labels, read off those
    of the start record B (``right_coset_reps``, with G labelled once), and
    its representative g, its least element, is among B's |G : B| ones.
    As <K, g> = <K, g^e> for every e prime to |g|, the double cosets of
    those powers are marked with g's and get no join of their own: each
    comes later in table order and would give the record g's join gives.

    <K, g> lies in every record found that holds K and g, so it is a known
    record exactly when it has the order of the smallest such record S: a
    Schreier-Sims order test that stops at |S| decides that, and only a join
    that gives a new record is closed.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G.degree:]
    n_g = G.order
    g_gens = tuple(index[b] for b in G._gens_bytes())

    def record_from(gens: tuple[int, ...],
                    start: frozenset[int] = frozenset({0})) -> SubgroupRecord:
        fs = _closure(G, gens, start)
        # the whole group is recorded with G's own generators
        return SubgroupRecord(len(fs), fs, gens if len(fs) < n_g else g_gens)

    start = record_from(tuple(index[g._b] for g in H.generators))
    found: dict[frozenset[int], SubgroupRecord] = {start.elements: start}
    fine = right_coset_reps(G, start.elements)  # every record holds the start
    fine_reps = sorted(set(fine))

    def join(rec: SubgroupRecord, g: int) -> SubgroupRecord:
        gens = rec.generators + (g,)
        # g is outside K, so a record that holds both is larger than K
        S = min((T for T in found.values()
                 if g in T.elements and all(x in T.elements for x in rec.generators)),
                key=lambda T: T.order, default=None)
        if S and _generated_order([elems[x] for x in gens], G.degree, stop_at=S.order) == S.order:
            return S
        new_rec = record_from(gens, rec.elements)
        if new_rec.elements in found:
            raise RuntimeError(f"census closure of {gens} gave a record already found")
        found[new_rec.elements] = new_rec
        return new_rec

    def extensions(K: frozenset[int]) -> list[frozenset[int]]:
        if len(K) == n_g:
            return []
        rec = found[K]
        label = right_coset_reps(G, K, fine, fine_reps)
        step = _on_cosets(G, label, fine, rec.generators)
        marked = {0}  # coset labels already in a double coset walked
        out = []
        for g in sorted(set(label) - {-1}):  # K's coset representatives, increasing
            if g in marked:
                continue
            # Kg is the first coset of K g K in table order, so g is its least
            # element and the representative; <K, g^e> = <K, g> for e prime
            # to |g|, so the orbits of the cosets K g^e are marked with it
            powers, x, pad = [], elems[g], elems[g] + tail
            while x != elems[0]:
                powers.append(label[fine[index[x]]])  # K g^e at e - 1
                x = x.translate(pad)
            for e, y in enumerate(powers, 1):
                if y not in marked and gcd(e, len(powers) + 1) == 1:
                    marked.update(z for z, _, _ in _orbit(y, step))
            out.append(join(rec, g).elements)
        return out

    _orbit(start.elements, extensions)
    return sorted(found.values(), key=lambda r: (r.order, sorted(r.elements)))


def lift_census(G: PermutationGroup, G0: PermutationGroup,
                records0: Iterable[SubgroupRecord]) -> list[SubgroupRecord]:
    """The census over G lifted from ``records0``, a census over a subgroup
    G0 of index 2 in G (index sets into G0's element table): the records
    as index sets into G's table, in the order of ``intermediate_subgroups``.

    A subgroup K of G meets G0 in a subgroup L with K = L or K = L ∪ Lt,
    for an element t outside G0 that normalizes L and has t^2 in L; such K
    comes from exactly one coset Lt, and the two tests together hold for
    all of Lt or for none of it. So each record L of ``records0`` gives L
    and one record per passing coset Lt, generated by L's generators and
    the least element of Lt. The cosets outside G0 are the Lxs, for Lx the
    right cosets of L in G0 and s the least element of G outside G0, so
    only G0's table is labelled, once, by the cosets of the records'
    intersection B (H for H's census); L's labels are read off B's. Given
    H's census over G0, the result is H's census over G.
    """
    if G.order != 2 * G0.order:
        raise ValueError(f"G0 of order {G0.order} is not of index 2 in G of order {G.order}")
    if not G0.is_subgroup_of(G):
        raise ValueError("G0 is not a subgroup of G")
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G.degree:]
    to_g = [index[b] for b in G0.element_bytes()]
    inside = frozenset(to_g)
    s_pad = elems[next(x for x in range(len(elems)) if x not in inside)] + tail
    records0 = list(records0)
    if not all(rec.elements <= G0._full_set() for rec in records0):
        raise ValueError("a record of records0 does not lie inside G0")
    fine = right_coset_reps(G0, G0._full_set().intersection(*(r.elements for r in records0)))
    fine_reps = sorted(set(fine))
    out = []
    for rec in records0:
        L = frozenset(map(to_g.__getitem__, rec.elements))
        gens = tuple(map(to_g.__getitem__, rec.generators))
        out.append(SubgroupRecord(rec.order, L, gens))
        label = right_coset_reps(G0, rec.elements, fine, fine_reps)
        for x in sorted(set(label) - {-1}):  # L's coset representatives, increasing
            t = elems[to_g[x]].translate(s_pad)  # xs, in the coset Lxs
            t_pad = t + tail
            if (index[t.translate(t_pad)] not in L
                    or not all(y in L for y in map(_conjugator(G, t), gens))):
                continue
            coset = [index[elems[y].translate(t_pad)] for y in L]
            K = L.union(coset)
            if len(K) != 2 * rec.order or K & inside != L:
                raise RuntimeError(f"the lift of a record of order {rec.order} by {min(coset)} "
                                   f"does not double it or meets G0 outside it")
            out.append(SubgroupRecord(len(K), K, gens + (min(coset),)))
    if len({rec.elements for rec in out}) != len(out):
        raise RuntimeError("the lifted census repeats a record")
    return sorted(out, key=lambda r: (r.order, sorted(r.elements)))
