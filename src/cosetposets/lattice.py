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
order the class size gives). Every closure stops at the ceiling, the largest
order a proper subgroup of G can have, past which it is G: |G| // 2 by
Lagrange, and for G simple |G| // k with k the least integer such that |G|
divides k!, since a subgroup of index k makes G act on its k cosets with
trivial kernel, so G embeds in S_k (the index argument; Dixon and Mortimer,
*Permutation Groups*, 1996). Once G is found, a representative H gets no
join at all when |H| p passes the ceiling, p the least prime dividing
|G : H|: every proper overgroup of H would have order at least |H| p.
Subgroups are stored as frozensets of indices into the canonical (sorted)
element enumeration of the parent group, which makes identity canonical.
No inclusion relation is stored: ``overgroups`` tests one subgroup's
generators against the candidates asked for. mu(H, G) and maximality are
constant on conjugacy classes (P. Hall, "The Eulerian functions of a
group", 1936), so each is read on the least member of each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import (
    BudgetExceededError,
    PermutationGroup,
    SubgroupRecord,
    _closure,
    _conjugation_rows,
    _conjugator,
    _cyclic_normal_closures,
    _is_prime,
    _normalizer,
    _orbit,
    _p_part,
    conjugacy_orbit_of_subgroup,
    subgroup_indices,
)

LATTICE_ORDER_BOUND = 1000


class SubgroupLattice:
    """All subgroups of a small group, sorted by order, then by elements;
    ``class_of[i]`` is the id of the least member of subgroup i's class."""

    def __init__(self, group: PermutationGroup):
        if group.order > LATTICE_ORDER_BOUND:
            raise BudgetExceededError(
                f"subgroup lattice needs |G| <= {LATTICE_ORDER_BOUND}, got {group.order}")
        self.group = group
        self.ceiling = proper_order_ceiling(group)
        self.elements: tuple[bytes, ...] = group.element_bytes()
        if self.elements[0] != bytes(range(group.degree)):
            raise RuntimeError("the identity does not sort first in the element table")
        self.subgroups, self.class_of = self._enumerate()
        self.subgroup_index: dict[frozenset[int], int] = {
            e.elements: i for i, e in enumerate(self.subgroups)
        }
        self.index_of_parent = len(self.subgroups) - 1  # the one largest

    def __len__(self) -> int:
        return len(self.subgroups)

    # -- construction -----------------------------------------------------

    def _span(self, gens: tuple[int, ...],
              start: frozenset[int] = frozenset({0})) -> frozenset[int]:
        """<gens>, grown from ``start``, a subgroup of <gens> (Dimino); a
        closure past ``self.ceiling`` is G. The one entry point of joins."""
        return _closure(self.group, gens, start, self.ceiling)

    def _enumerate(self) -> tuple[list[SubgroupRecord], list[int]]:
        G = self.group
        n = len(self.elements)
        conj_rows = _conjugation_rows(G)
        # the least generator of each cyclic subgroup; joins try prime-power ones
        subgroups, position, _ = G._cyclic_table()
        least = [gens[0] for gens in subgroups.values()]
        zs = [gens[0] for fs, gens in subgroups.items()
              if any(_is_prime(p) and _p_part(len(fs), p) == len(fs)
                     for p in range(2, len(fs) + 1))]
        # each subgroup's generators and the number of its class in ``reps``
        found: dict[frozenset[int], tuple[tuple[int, ...], int]] = {frozenset({0}): ((), 0)}
        reps = [(frozenset({0}), 1)]  # class representatives and class sizes
        for H, size in reps:  # grows while it is walked
            # a proper overgroup of H has order |H| d, d > 1 dividing |G : H|;
            # with none under the ceiling every join of H is G, and once G is
            # found (with the generators of the join that first reached it)
            # H's joins give nothing new
            if G._full_set() in found and not any(
                    (n // len(H)) % d == 0 for d in range(2, self.ceiling // len(H) + 1)):
                continue
            h_gens = found[H][0]
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
                found.update((image, (image_gens, len(reps))) for image, image_gens, _ in orbit)
                reps.append((K, len(orbit)))
                if (n // len(K)) % len(orbit):  # |class| = |G : N_G(K)|, K <= N_G(K)
                    raise RuntimeError(
                        f"class of a subgroup of order {len(K)} has {len(orbit)} "
                        f"members, which does not divide |G : K| = {n // len(K)}")
        records = sorted(found.items(), key=lambda r: (len(r[0]), sorted(r[0])))
        least: dict[int, int] = {}  # class number -> lattice id of its least member
        class_of = [least.setdefault(c, i) for i, (_, (_, c)) in enumerate(records)]
        return [SubgroupRecord(len(fs), fs, gens) for fs, (gens, _) in records], class_of

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

    def overgroups(self, i: int, among: Iterable[int] | None = None) -> list[int]:
        """Ids of the records strictly above record i, in the order of
        ``among`` (by default every id after i): those of larger order,
        divisible by |H|, that hold H's generators."""
        order, gens = self.subgroups[i].order, self.subgroups[i].generators
        return [j for j in (range(i + 1, len(self.subgroups)) if among is None else among)
                if (rec := self.subgroups[j]).order > order and rec.order % order == 0
                and rec.elements.issuperset(gens)]


def _is_simple(G: PermutationGroup) -> bool:
    """Whether G is nontrivial and the normal closure of each nontrivial
    cyclic subgroup is G, read until the first proper closure."""
    return G.order > 1 and all(len(members) == G.order
                               for members, _ in _cyclic_normal_closures(G))


def proper_order_ceiling(G: PermutationGroup) -> int:
    """The largest order a proper subgroup of G can have by the index
    argument: |G| // k for G simple, k the least integer with |G| dividing
    k!; |G| // 2 otherwise."""
    n = G.order
    if not _is_simple(G):
        return n // 2
    k, k_factorial = 1, 1
    while k_factorial % n:
        k += 1
        k_factorial *= k
    return n // k


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
    """mu(H, G) for every H, via mu(H,G) = -sum of mu(K,G) over K with H < K <= G,
    on the least member of each class, largest first; mu is constant on
    classes."""
    mu = [0] * len(lat.subgroups)
    for h in sorted(set(lat.class_of), reverse=True):  # ids grow with the order
        mu[h] = 1 if h == lat.index_of_parent else -sum(
            mu[lat.class_of[k]] for k in lat.overgroups(h))
    return MoebiusTable(lat, tuple(mu[h] for h in lat.class_of))


def maximal_subgroups(lat: SubgroupLattice) -> list[int]:
    """Indices of the subgroups whose only proper overgroup is the group
    itself, read on the least member of each class."""
    top = lat.index_of_parent
    maximal = {h for h in set(lat.class_of) if h != top and lat.overgroups(h) == [top]}
    return [i for i, h in enumerate(lat.class_of) if h in maximal]


def lattice_dump(lat: SubgroupLattice, mu: MoebiusTable) -> str:
    """One subgroup per line: order;sorted element indices;mu. Stable ordering."""
    lines = []
    for i, entry in enumerate(lat.subgroups):
        ids = ",".join(str(x) for x in sorted(entry.elements))
        lines.append(f"{entry.order};{ids};{mu[i]}")
    return "\n".join(lines) + "\n"
