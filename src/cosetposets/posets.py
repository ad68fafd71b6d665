"""Finite posets as explicit strict-order relations on 0..n-1.

A poset is given by each element's sorted tuple of the elements above it,
the full strict relation: it is transitively closed, so chains coincide
with directed paths and chain counting is a short dynamic program.
"""

from __future__ import annotations


class FinitePoset:
    """A finite poset on vertices 0..n-1 with the full strict relation."""

    def __init__(self, above):
        self.n = len(above)
        self.above = list(above)
        below: list[list[int]] = [[] for _ in range(self.n)]
        for u, up in enumerate(self.above):
            for v in up:
                below[v].append(u)
        self.below = [tuple(b) for b in below]
        self._check_strict_order()

    @classmethod
    def from_pairs(cls, n: int, strict_pairs) -> FinitePoset:
        """The poset on 0..n-1 whose strict relation is ``strict_pairs``."""
        above: list[set[int]] = [set() for _ in range(n)]
        for u, v in strict_pairs:
            above[u].add(v)
        return cls([tuple(sorted(s)) for s in above])

    def _check_strict_order(self) -> None:
        below_sets = [set(b) for b in self.below]
        for v, lower in enumerate(below_sets):
            if v in lower:
                raise ValueError("strict relation cannot be reflexive")
            for u in self.below[v]:
                if not below_sets[u] <= lower:
                    raise ValueError("strict relation is not transitively closed")

    def __len__(self) -> int:
        return self.n

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Pairs u < v with nothing strictly between."""
        out = []
        for v in range(self.n):
            lower = set(self.below[v])
            for u in self.below[v]:
                if not lower & set(self.above[u]):
                    out.append((u, v))
        return out

    def chain_counts(self, weights: list[int] | None = None) -> list[int]:
        """Number of chains of each size >= 1 (index 0 = singletons).

        With ``weights``, one per element, each chain counts the weight of
        its least element instead of 1.
        """
        weights = weights or [1] * self.n
        counts = [sum(weights)] if self.n else []
        current = [sum(map(weights.__getitem__, b)) for b in self.below]  # size 2, by top
        while any(current):
            counts.append(sum(current))
            nxt = [0] * self.n
            for cv, up in zip(current, self.above):
                if cv:
                    for w in up:
                        nxt[w] += cv
            current = nxt
        return counts

    def moebius_bottom_to_top(self, weights: list[int] | None = None) -> int:
        """mu(0-hat, 1-hat) of the poset with adjoined bounds. With ``weights``,
        v stands for weights[v] copies, each above weights[u] / weights[v]
        copies of each u below v (the cosets of H in a coset poset), and
        mu0[v] sums mu(0-hat, .) over v's copies."""
        # process in a linear extension: |below| strictly grows along the order
        order = sorted(range(self.n), key=lambda v: (len(self.below[v]), v))
        weights = weights or [1] * self.n
        mu0 = [0] * self.n
        for v in order:
            mu0[v] = -(weights[v] + sum(mu0[u] for u in self.below[v]))
        return -(1 + sum(mu0))
