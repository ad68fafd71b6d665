"""Coset posets C(G) and relative coset posets C(G, N), and the cosets of
C(G, N) fixed by P x K acting by left and right translation.

Vertices are right cosets Hx of proper subgroups, keyed by the lattice
index of H and the minimal element id of the coset. Hx <= Ky holds iff
H <= K in the lattice and x y^-1 lies in K; both tests are index lookups.

The fixed cosets are found without a poset or a coset labelling of G:
Hx is fixed by P x K iff P <= H and x k x^-1 lies in H for each generator
k of K, and those x are read off k's conjugacy class and its centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

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


class CosetPoset(FinitePoset):
    """Cosets Hx of the included proper subgroups, ordered by inclusion."""

    def __init__(self, lattice: SubgroupLattice, subgroup_ids: list[int]):
        self.lattice = lattice
        self.subgroup_ids = tuple(sorted(subgroup_ids))
        lat = lattice
        self.coset_rep: dict[int, list[int]] = {
            hi: right_coset_reps(lat.group, lat.subgroups[hi].elements)
            for hi in self.subgroup_ids}
        self.vertices: list[tuple[int, int]] = [
            (hi, x) for hi in self.subgroup_ids
            for x, r in enumerate(self.coset_rep[hi]) if r == x]
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        # the cosets above Hx are Kx for the included K above H; vertex ids
        # grow with the subgroup id, so each tuple comes out sorted
        super().__init__([
            tuple(self.vertex_index[(kj, self.coset_rep[kj][x])]
                  for kj in lat.above[hi] if kj in self.coset_rep)
            for hi, x in self.vertices])

    def vertex_label(self, v: int) -> str:
        hi, r = self.vertices[v]
        rep = Permutation._from_bytes(self.lattice.elements[r])
        return f"{self.lattice.subgroups[hi].order}:{cycle_string(rep)}"

    def dump(self) -> str:
        """One vertex per line, then cover pairs; stable ordering."""
        lines = [self.vertex_label(v) for v in range(self.n)]
        lines.append("--covers--")
        lines.extend(f"{u}<{v}" for u, v in self.cover_pairs())
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
    ni = lat.find(N)
    if not is_normal_subgroup(G, N):
        raise ValueError("N is not normal in G")
    n_set = lat.subgroups[ni].elements
    return [i for i, rec in enumerate(lat.subgroups)
            if _proper_supplement(rec, n_set, G.order)]


def build_relative_poset(G: PermutationGroup, N: PermutationGroup,
                         lat: SubgroupLattice) -> CosetPoset:
    """C(G, N): cosets Hx of proper subgroups with HN = G, for N normal in G."""
    return CosetPoset(lat, supplement_ids(G, N, lat))


def subgroup_chain_poset(lat: SubgroupLattice,
                         subgroup_ids: Sequence[int]) -> tuple[FinitePoset, list[int]]:
    """The subgroups ``subgroup_ids`` ordered by inclusion, as a poset on
    their positions in ``subgroup_ids``, and the index [G : H] of each.

    A chain of cosets H0x < ... < Hkx is fixed by its subgroup chain
    H0 < ... < Hk and by H0x, so the chains of this poset, each weighted by
    the index of its least subgroup, count the chains of the coset poset.
    """
    position = {h: i for i, h in enumerate(subgroup_ids)}
    above = [tuple(position[k] for k in lat.above[h] if k in position) for h in subgroup_ids]
    return FinitePoset(above), [lat.index_in_group(h) for h in subgroup_ids]


def coset_chain_counts(lat: SubgroupLattice, subgroup_ids: Sequence[int]) -> list[int]:
    """``chain_counts`` of ``CosetPoset(lat, subgroup_ids)``, without building
    it: the weighted chain counts of ``subgroup_chain_poset``."""
    chains, weights = subgroup_chain_poset(lat, subgroup_ids)
    return chains.chain_counts(weights)


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
