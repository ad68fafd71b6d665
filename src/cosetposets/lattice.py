"""Complete subgroup lattices of small groups, with Moebius values.

Every subgroup is the join of the cyclic subgroups it contains, so closing
the set of cyclic subgroups under pairwise join enumerates the whole
lattice. Subgroups are stored as frozensets of indices into the canonical
(sorted) element enumeration of the parent group, which makes containment
a subset test and identity canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import BudgetExceededError, PermutationGroup, cyclic_subgroups, subgroup_indices
from .perm import Permutation, _inv_bytes, _mul_bytes

LATTICE_ORDER_BOUND = 1000


@dataclass(frozen=True)
class SubgroupEntry:
    order: int
    elements: frozenset[int]
    generators: tuple[int, ...]  # element indices witnessing generation


class SubgroupLattice:
    """All subgroups of a small group, ordered by inclusion."""

    def __init__(self, group: PermutationGroup, bound: int = LATTICE_ORDER_BOUND):
        if group.order > bound:
            raise BudgetExceededError(
                f"subgroup lattice needs |G| <= {bound}, got {group.order}")
        self.group = group
        self.elements: tuple[bytes, ...] = group.element_bytes()
        self.index: dict[bytes, int] = group.element_index()
        n = len(self.elements)
        assert self.elements[0] == bytes(range(group.degree)), "identity must sort first"
        self.mul: list[list[int]] = [
            [self.index[_mul_bytes(a, b)] for b in self.elements] for a in self.elements
        ]
        self.inv: list[int] = [self.index[_inv_bytes(a)] for a in self.elements]
        self.subgroups: list[SubgroupEntry] = self._enumerate()
        self.subgroup_index: dict[frozenset[int], int] = {
            e.elements: i for i, e in enumerate(self.subgroups)
        }
        self.index_of_trivial = self.subgroup_index[frozenset({0})]
        self.index_of_parent = self.subgroup_index[frozenset(range(n))]
        self.below, self.above = self._inclusion()

    # -- construction -----------------------------------------------------

    def _span(self, gens: tuple[int, ...]) -> frozenset[int]:
        seen = {0}
        stack = [0]
        mul = self.mul
        while stack:
            x = stack.pop()
            row = mul[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    def _enumerate(self) -> list[SubgroupEntry]:
        records: list[tuple[frozenset[int], tuple[int, ...]]] = [(frozenset({0}), ())]
        by_fs: set[frozenset[int]] = {records[0][0]}
        for fs, gens in sorted(cyclic_subgroups(self.group).items(),
                               key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if fs not in by_fs:
                by_fs.add(fs)
                records.append((fs, (gens[0],)))
        qi = 1  # trivial subgroup joins to nothing new
        while qi < len(records):
            fa, ga = records[qi]
            for b in range(1, qi):
                fb, gb = records[b]
                if fa <= fb or fb <= fa:
                    continue
                gens = ga + tuple(g for g in gb if g not in ga)
                joined = self._span(gens)
                if joined not in by_fs:
                    by_fs.add(joined)
                    records.append((joined, gens))
            qi += 1
        records.sort(key=lambda r: (len(r[0]), sorted(r[0])))
        return [SubgroupEntry(len(fs), fs, gens) for fs, gens in records]

    def _inclusion(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        count = len(self.subgroups)
        below: list[list[int]] = [[] for _ in range(count)]
        above: list[list[int]] = [[] for _ in range(count)]
        for j in range(count):
            ej = self.subgroups[j]
            for i in range(j):
                ei = self.subgroups[i]
                if ei.order == ej.order or ej.order % ei.order != 0:
                    continue
                if ei.elements <= ej.elements:
                    below[j].append(i)
                    above[i].append(j)
        return ([tuple(b) for b in below], [tuple(a) for a in above])

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.subgroups)

    def subgroup_as_group(self, i: int) -> PermutationGroup:
        entry = self.subgroups[i]
        gens = [Permutation._from_bytes(self.elements[g]) for g in entry.generators]
        return PermutationGroup(gens, self.group.degree)

    def find(self, H: PermutationGroup) -> int:
        """Lattice index of a subgroup given as a group."""
        if H.degree != self.group.degree:
            raise ValueError("degree mismatch")
        try:
            fs = subgroup_indices(self.group, H)
        except KeyError:
            raise ValueError("H is not a subgroup of the lattice's group") from None
        return self.subgroup_index[fs]

    def conj_element(self, x: int, g: int) -> int:
        """Index of x^g = g^-1 x g."""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def index_in_group(self, i: int) -> int:
        return self.group.order // self.subgroups[i].order


def enumerate_subgroups(G: PermutationGroup, bound: int = LATTICE_ORDER_BOUND) -> SubgroupLattice:
    return SubgroupLattice(G, bound=bound)


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


def lattice_dump(lat: SubgroupLattice, mu: MoebiusTable | None = None) -> str:
    """One subgroup per line: order;sorted element indices;mu. Stable ordering."""
    lines = []
    values = mu.mu_to_top if mu is not None else None
    for i, entry in enumerate(lat.subgroups):
        ids = ",".join(str(x) for x in sorted(entry.elements))
        tail = f";{values[i]}" if values is not None else ""
        lines.append(f"{entry.order};{ids}{tail}")
    return "\n".join(lines) + "\n"
