"""Coset posets C(G) and relative coset posets C(G, N), and the cosets of
C(G, N) fixed by P x K acting by left and right translation.

Vertices are right cosets Hx of proper subgroups, keyed by the lattice
index of H and the minimal element id of the coset. Hx <= Ky holds iff
H <= K and x y^-1 lies in K, so the cosets above Hx are the Kx for the
included K above H, which ``SubgroupLattice.overgroups`` finds among the
included subgroups alone. Chains of cosets are read off chains of
subgroups, each weighted by the index of its least subgroup (Brown, 2000),
and so are the beat-point core and the cover pairs of ``dump``. This module
alone lays out a subgroup's cosets: ``CosetPoset.coset_table`` labels them
when first read, and no relation on the cosets themselves is built.

The fixed cosets are found without a poset or a coset labelling of G:
Hx is fixed by P x K iff P <= H and x k x^-1 lies in H for each generator
k of K, and those x are read off k's conjugacy class and its centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import itemgetter
from typing import Iterable

from .groups import (
    PermutationGroup,
    SubgroupRecord,
    _centralizer,
    _conjugator,
    _orbit,
    is_normal_subgroup,
    right_coset_reps,
    subgroup_indices,
)
from .lattice import SubgroupLattice
from .perm import _ID256, Permutation, _inv_bytes, cycle_string
from .posets import FinitePoset


@dataclass(frozen=True)
class OvergroupAutomorphism:
    """An automorphism of `group` realized as conjugation inside an overgroup."""
    group: PermutationGroup
    overgroup: PermutationGroup
    conjugator: Permutation

    def __post_init__(self):
        if not self.group.is_subgroup_of(self.overgroup):
            raise ValueError("group is not inside the overgroup")
        if self.conjugator not in self.overgroup:
            raise ValueError("conjugator is not in the overgroup")
        if not self.group.is_normalized_by(self.conjugator):
            raise ValueError("conjugator does not normalize the group")

    def apply(self, p: Permutation) -> Permutation:
        return p ** self.conjugator

    def fixes_group_elementwise(self) -> bool:
        return all(self.apply(g) == g for g in self.group.generators)

    def squares_to_identity(self) -> bool:
        return all(self.apply(self.apply(g)) == g for g in self.group.generators)


class CosetPoset:
    """Cosets Hx of the included proper subgroups, ordered by inclusion, held
    as the subgroups; a subgroup's cosets are laid out by ``coset_table``
    when first read, and ``vertices`` is built on read."""

    def __init__(self, lattice: SubgroupLattice, subgroup_ids: Iterable[int]):
        self.lattice = lattice
        self.subgroup_ids = tuple(sorted(subgroup_ids))
        for h, prev in zip(self.subgroup_ids, (None,) + self.subgroup_ids):
            if h not in range(len(lattice.subgroups)):
                raise ValueError(f"subgroup id {h} is not in the lattice")
            if h == lattice.index_of_parent:
                raise ValueError(f"subgroup id {h} is the whole group, not a proper subgroup")
            if h == prev:
                raise ValueError(f"subgroup id {h} is repeated")
        self._coset_tables: dict[int, tuple[list[int], list[int]]] = {}

    def __len__(self) -> int:
        return self.n

    @cached_property
    def n(self) -> int:
        """The number of cosets, the sum of the indices [G : H], read
        without labelling any."""
        return sum(self.subgroup_chains[1])

    def coset_table(self, h: int) -> tuple[list[int], list[int]]:
        """``reps, where`` for the subgroup of lattice id h: the least
        element of each of its right cosets, in increasing order, and for
        each element x the position in ``reps`` of the coset that holds x.
        Made from ``groups.right_coset_reps`` on first read and shared with
        the beat-point core."""
        table = self._coset_tables.get(h)
        if table is None:
            label = right_coset_reps(self.lattice.group, self.lattice.subgroups[h].elements)
            reps = [x for x, r in enumerate(label) if r == x]
            where = list(map(dict(zip(reps, count())).__getitem__, label))
            table = self._coset_tables[h] = reps, where
        return table

    def cosets_inside(self, k: int, h: int) -> list[list[int]]:
        """For each coset of the subgroup of lattice id h, in table order,
        the positions of the cosets of the subgroup k <= h inside it."""
        reps, _ = self.coset_table(k)
        _, where = self.coset_table(h)
        inside: list[list[int]] = [[] for _ in range(self.lattice.index_in_group(h))]
        for s, r in enumerate(reps):
            inside[where[r]].append(s)
        return inside

    @cached_property
    def vertices(self) -> list[tuple[int, int]]:
        """(subgroup id, least element) of each coset, by subgroup id, then
        by least element."""
        return [(h, x) for h in self.subgroup_ids for x in self.coset_table(h)[0]]

    @cached_property
    def subgroup_chains(self) -> tuple[FinitePoset, list[int]]:
        """The included subgroups ordered by inclusion, as a poset on their
        positions in ``subgroup_ids``, and the index [G : H] of each.

        A chain of cosets H0x < ... < Hkx is fixed by its subgroup chain
        H0 < ... < Hk and by H0x, so the chains of this poset, each weighted
        by the index of its least subgroup, count the chains of the coset
        poset.
        """
        lat, ids = self.lattice, self.subgroup_ids
        position = {h: i for i, h in enumerate(ids)}
        above = [tuple(map(position.__getitem__, lat.overgroups(h, ids[i + 1:])))
                 for i, h in enumerate(ids)]
        return FinitePoset(above), [lat.index_in_group(h) for h in ids]

    def chain_counts(self) -> list[int]:
        """Number of chains of cosets of each size >= 1."""
        chains, index = self.subgroup_chains
        return chains.chain_counts(index)

    def moebius_bottom_to_top(self) -> int:
        """mu(0-hat, 1-hat) of the poset with adjoined bounds."""
        chains, index = self.subgroup_chains
        return chains.moebius_bottom_to_top(index)

    def beat_point_core(self) -> CosetPoset:
        """The poset left when beat points are removed until none is left,
        read off the subgroups alone; it shares this poset's coset tables.

        The cosets above Hx are the Kx for the included K > H, so Hx is an up
        beat point exactly when H's included overgroups have a least element,
        and then so is every coset of H; no coset is a down beat point
        (``complexes.reduced_betti`` says why). Dropping H leaves the
        overgroups of larger subgroups as they were, so one pass from the
        largest subgroup down, dropping each H whose kept overgroups have a
        least element, leaves no beat point.
        """
        chains, _ = self.subgroup_chains
        kept = [True] * chains.n
        for h in reversed(range(chains.n)):  # positions grow with the order
            up = [k for k in chains.above[h] if kept[k]]
            if up and set(up[1:]) <= set(chains.above[up[0]]):  # up[0], if any, is least
                kept[h] = False
        core = CosetPoset(self.lattice, compress(self.subgroup_ids, kept))
        core._coset_tables = self._coset_tables
        return core

    def dump(self) -> str:
        """One vertex per line, numbered as in ``vertices``, then the cover
        pairs u<v, by v, then by u. Hx is covered by Kx exactly when H is
        covered by K among the included subgroups."""
        lat, ids, elements = self.lattice, self.subgroup_ids, self.lattice.group.element_bytes()
        chains, index = self.subgroup_chains
        offset = list(accumulate(index, initial=0))
        cycles = {r: cycle_string(Permutation._from_bytes(elements[r]))
                  for r in set(map(itemgetter(1), self.vertices))}
        lines = [f"{lat.subgroups[h].order}:{cycles[r]}" for h, r in self.vertices]
        lines.append("--covers--")
        for h, covers in groupby(chains.cover_pairs(), itemgetter(1)):  # by h, then by k
            inside = [(offset[k], self.cosets_inside(ids[k], ids[h])) for k, _ in covers]
            for t in range(index[h]):
                lines.extend(f"{o + s}<{offset[h] + t}" for o, pre in inside for s in pre[t])
        return "\n".join(lines) + "\n"


def proper_subgroup_ids(lat: SubgroupLattice) -> list[int]:
    """Lattice ids of the proper subgroups, whose cosets make C(G)."""
    return [i for i in range(len(lat.subgroups)) if i != lat.index_of_parent]


def build_coset_poset(G: PermutationGroup, lat: SubgroupLattice) -> CosetPoset:
    """The poset of all cosets of all proper subgroups of G."""
    lat.check_group(G)
    return CosetPoset(lat, proper_subgroup_ids(lat))


def _proper_supplement(rec: SubgroupRecord, n_set: frozenset[int], order: int) -> bool:
    """H < G with HN = G, read off |HN| = |H| |N| / |H n N|."""
    return rec.order < order and rec.order * len(n_set) // len(rec.elements & n_set) == order


def supplement_ids(G: PermutationGroup, N: PermutationGroup,
                   lat: SubgroupLattice) -> list[int]:
    """Lattice ids of the proper subgroups H with HN = G, whose cosets make
    C(G, N), for N normal in G."""
    lat.check_group(G)
    if not is_normal_subgroup(G, N):
        raise ValueError("N is not normal in G")
    n_set = subgroup_indices(G, N)
    return [i for i, rec in enumerate(lat.subgroups)
            if _proper_supplement(rec, n_set, G.order)]


def build_relative_poset(G: PermutationGroup, N: PermutationGroup,
                         lat: SubgroupLattice) -> CosetPoset:
    """C(G, N): cosets Hx of proper subgroups with HN = G, for N normal in G."""
    return CosetPoset(lat, supplement_ids(G, N, lat))


def fixed_cosets(G: PermutationGroup, N: PermutationGroup,
                 overgroups: Iterable[SubgroupRecord],
                 K: PermutationGroup) -> list[tuple[SubgroupRecord, int]]:
    """Cosets Hx of C(G, N) fixed by P x K acting by left and right translation.

    Hx is fixed iff <P, K^(x^-1)> <= H, so only the proper overgroups H of P
    (``overgroups``, from ``intermediate_subgroups(G, P)``) with HN = G can
    carry one; pass N = G for C(G). Each coset is (H, r), r its least index,
    H in the order of ``overgroups`` and r increasing.

    No coset of G is labelled: x k x^-1 lies in H for a generator k of K
    exactly when x lies in x_h C_G(k) for a member h = x_h k x_h^-1 of k's
    class inside H (``_conjugates``). The x that pass for every generator
    make a union of right cosets of H, split here by their least indices.
    """
    if not is_normal_subgroup(G, N):
        raise ValueError("N is not normal in G")
    if not K.is_subgroup_of(G):
        raise ValueError("K is not a subgroup of G")
    elems, index = G.element_bytes(), G.element_index()
    tail = _ID256[G.degree:]
    n_set = subgroup_indices(G, N)
    classes = [_conjugates(G, index[g._b]) for g in K.generators]
    out = []
    for rec in overgroups:
        if not _proper_supplement(rec, n_set, G.order):
            continue
        passing = [frozenset(chain.from_iterable(
            map(index.__getitem__, map(x.translate, centralizer))
            for h, x in members if h in rec.elements)) for members, centralizer in classes]
        # a K without generators fixes every coset
        fixed = frozenset.intersection(*passing) if passing else G._full_set()
        if not fixed:
            continue
        base = [elems[h] for h in rec.elements]
        covered: set[int] = set()
        for r in sorted(fixed):
            if r not in covered:  # r is the least element of Hr
                out.append((rec, r))
                covered.update(map(index.__getitem__,
                                   map(bytes.translate, base, repeat(elems[r] + tail))))
    return out


def _conjugates(G: PermutationGroup, k: int) -> tuple[list[tuple[int, bytes]], list[bytes]]:
    """The class of the element of index k, walked by ``_orbit`` under
    h -> s^-1 h s for G's generators s, as (h, x_h) with h = x_h k x_h^-1
    (x_h is s^-1 times its parent's); and C_G(k) as padded image tables, so
    that the x with x k x^-1 = h are the products x_h c, c in C_G(k).

    Raises RuntimeError unless |class| |C_G(k)| = |G|.
    """
    elems = G.element_bytes()
    tail = _ID256[G.degree:]
    s_gens = G._gens_bytes()
    steps = [_conjugator(G, s) for s in s_gens]
    walk = _orbit(k, lambda h: [step(h) for step in steps])
    s_invs = [_inv_bytes(s) for s in s_gens]
    members = [(k, elems[0])]
    for h, parent, r in walk[1:]:
        members.append((h, s_invs[r].translate(members[parent][1] + tail)))
    centralizer = _centralizer(G, k, len(elems) // len(members))
    if len(members) * len(centralizer) != len(elems):
        raise RuntimeError(f"a class of {len(members)} members and a centralizer of order "
                           f"{len(centralizer)} do not multiply to |G| = {len(elems)}")
    return members, [elems[c] + tail for c in centralizer]
