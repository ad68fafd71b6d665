"""Complete subgroup lattices of small groups, with Moebius values.

Every subgroup is the join of its cyclic subgroups of prime-power order, and
if K = <H^g, z> then K^(g^-1) = <H, z^(g^-1)>. So the lattice is built one
conjugacy class at a time: starting from the trivial subgroup, each class
representative H is joined with prime-power cyclic subgroups <z> not in H,
<H, z> is grown from H as a union of right cosets of H (Dimino's
algorithm), and each new class is filled at once, generators included, by
``groups.conjugacy_orbit_of_subgroup``. No join is made whose result is
already known: <H, z^m> = <H, z>^m for m in N_G(H), so only the first z of
each orbit of N_G(H) is joined (``groups._normalizer`` grows N_G(H) to the
order the class size gives), and a closure that passes half of G is G.
Subgroups are stored as frozensets of indices into the canonical (sorted)
element enumeration of the parent group, which makes identity canonical;
inclusion is read off one int mask per element, the set of subgroups that
contain it, by ANDing the masks of a subgroup's generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    BudgetExceededError,
    PermutationGroup,
    SubgroupRecord,
    _closure,
    _conjugation_rows,
    _conjugator,
    _is_prime,
    _normalizer,
    _orbit,
    _p_part,
    conjugacy_orbit_of_subgroup,
    subgroup_indices,
)
from .posets import FinitePoset

LATTICE_ORDER_BOUND = 1000


class SubgroupLattice(FinitePoset):
    """All subgroups of a small group, ordered by inclusion."""

    def __init__(self, group: PermutationGroup):
        if group.order > LATTICE_ORDER_BOUND:
            raise BudgetExceededError(
                f"subgroup lattice needs |G| <= {LATTICE_ORDER_BOUND}, got {group.order}")
        self.group = group
        self.elements: tuple[bytes, ...] = group.element_bytes()
        if self.elements[0] != bytes(range(group.degree)):
            raise RuntimeError("the identity does not sort first in the element table")
        self.subgroups: list[SubgroupRecord] = self._enumerate()
        self.subgroup_index: dict[frozenset[int], int] = {
            e.elements: i for i, e in enumerate(self.subgroups)
        }
        self.index_of_parent = len(self.subgroups) - 1  # the one largest
        super().__init__(self._inclusion())

    # -- construction -----------------------------------------------------

    def _span(self, gens: tuple[int, ...],
              start: frozenset[int] = frozenset({0})) -> frozenset[int]:
        """<gens>, grown from ``start``, a subgroup of <gens> (Dimino); a
        closure past half of G is G."""
        return _closure(self.group, gens, start)

    def _enumerate(self) -> list[SubgroupRecord]:
        G = self.group
        n = len(self.elements)
        conj_rows = _conjugation_rows(G)
        # the least generator of each cyclic subgroup; joins try prime-power ones
        subgroups, position, _ = G._cyclic_table()
        least = [gens[0] for gens in subgroups.values()]
        zs = [gens[0] for fs, gens in subgroups.items()
              if any(_is_prime(p) and _p_part(len(fs), p) == len(fs)
                     for p in range(2, len(fs) + 1))]
        found: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
        reps = [(frozenset({0}), 1)]  # class representatives and class sizes
        for H, size in reps:  # grows while it is walked
            h_gens = found[H]
            N, n_gens = _normalizer(G, H, h_gens, n // size)
            if len(N) == n:
                conjugators = [row.__getitem__ for row in conj_rows]
            else:
                conjugators = [_conjugator(G, self.elements[g]) for g in n_gens]
            # each z not in H, mapped to its images under the generators of
            # N_G(H); N_G(H) fixes H, so they are again not in H
            step = {z: [least[position[conj(z)]] for conj in conjugators]
                    for z in zs if z not in H}.__getitem__
            tried: set[int] = set()
            for z in zs:
                if z in H or z in tried:
                    continue
                # <H, z^m> = <H, z>^m for m in N_G(H): its class is found
                # with that of <H, z>, so one z per orbit of N_G(H) is joined
                tried.update(c for c, _, _ in _orbit(z, step))
                gens = h_gens + (z,)
                K = self._span(gens, H)
                if K in found:
                    continue
                # K's class is new as a whole: found holds whole classes only
                orbit = conjugacy_orbit_of_subgroup(G, K, gens)
                reps.append((K, len(orbit)))
                found.update((image, image_gens) for image, image_gens, _ in orbit)
                if (n // len(K)) % len(orbit):  # |class| = |G : N_G(K)|, K <= N_G(K)
                    raise RuntimeError(
                        f"class of a subgroup of order {len(K)} has {len(orbit)} "
                        f"members, which does not divide |G : K| = {n // len(K)}")
        records = sorted(found.items(), key=lambda r: (len(r[0]), sorted(r[0])))
        return [SubgroupRecord(len(fs), fs, gens) for fs, gens in records]

    def _inclusion(self) -> list[tuple[int, ...]]:
        """above from one mask per element: bit j of ``masks[x]`` says that
        subgroup j contains x, so the subgroups containing H are the AND of
        the masks of H's generators."""
        count = len(self.subgroups)
        masks = [0] * len(self.elements)
        for j, rec in enumerate(self.subgroups):
            bit = 1 << j
            for x in rec.elements:
                masks[x] |= bit
        above = []
        for i, rec in enumerate(self.subgroups):
            m = (1 << count) - 1 - (1 << i)
            for g in rec.generators:
                m &= masks[g]
            bits = bin(m)[:1:-1]  # bit j at position j
            js = []
            j = bits.find("1")
            while j >= 0:
                js.append(j)
                j = bits.find("1", j + 1)
            above.append(tuple(js))
        return above

    # -- queries -----------------------------------------------------------

    def find(self, H: PermutationGroup) -> int:
        """Lattice index of a subgroup given as a group."""
        if H.degree != self.group.degree:
            raise ValueError("degree mismatch")
        try:
            fs = subgroup_indices(self.group, H)
        except KeyError:
            raise ValueError("H is not a subgroup of the lattice's group") from None
        return self.subgroup_index[fs]

    def check_group(self, G: PermutationGroup) -> None:
        """Raise ValueError unless this is the lattice of G."""
        if self.group is not G and not (self.group == G):
            raise ValueError("lattice does not belong to the given group")

    def index_in_group(self, i: int) -> int:
        return self.group.order // self.subgroups[i].order


def enumerate_subgroups(G: PermutationGroup) -> SubgroupLattice:
    return SubgroupLattice(G)


@dataclass(frozen=True)
class MoebiusTable:
    """Moebius values mu(H, G) on a subgroup lattice."""
    lattice: SubgroupLattice
    mu_to_top: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.mu_to_top[i]


def moebius_to_top(lat: SubgroupLattice) -> MoebiusTable:
    """mu(H, G) for every H, via mu(H,G) = -sum of mu(K,G) over K with H < K <= G."""
    count = len(lat.subgroups)
    mu = [0] * count
    order_desc = sorted(range(count), key=lambda i: -lat.subgroups[i].order)
    for i in order_desc:
        if i == lat.index_of_parent:
            mu[i] = 1
        else:
            mu[i] = -sum(mu[k] for k in lat.above[i])
    return MoebiusTable(lat, tuple(mu))


def maximal_subgroups(lat: SubgroupLattice) -> list[int]:
    """Indices of the subgroups whose only proper overgroup is the group itself."""
    top = lat.index_of_parent
    return [i for i in range(len(lat.subgroups))
            if i != top and lat.above[i] == (top,)]


def lattice_dump(lat: SubgroupLattice, mu: MoebiusTable) -> str:
    """One subgroup per line: order;sorted element indices;mu. Stable ordering."""
    lines = []
    for i, entry in enumerate(lat.subgroups):
        ids = ",".join(str(x) for x in sorted(entry.elements))
        lines.append(f"{entry.order};{ids};{mu[i]}")
    return "\n".join(lines) + "\n"
