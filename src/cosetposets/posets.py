"""Finite posets as explicit strict-order relations on 0..n-1.

The relation is stored transitively closed, so chains coincide with
directed paths and chain counting is a short dynamic program.
"""

from __future__ import annotations


class FinitePoset:
    """A finite poset on vertices 0..n-1 with the full strict relation."""

    def __init__(self, n: int, strict_pairs):
        below: list[set[int]] = [set() for _ in range(n)]
        above: list[set[int]] = [set() for _ in range(n)]
        for u, v in strict_pairs:
            if u == v:
                raise ValueError("strict relation cannot be reflexive")
            below[v].add(u)
            above[u].add(v)
        self.n = n
        self.below = [tuple(sorted(s)) for s in below]
        self.above = [tuple(sorted(s)) for s in above]
        self._check_transitive()

    def _check_transitive(self) -> None:
        below_sets = [set(b) for b in self.below]
        for v in range(self.n):
            for u in self.below[v]:
                if not below_sets[u] <= below_sets[v]:
                    raise ValueError("strict relation is not transitively closed")

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
        if weights is None:
            counts = [self.n] if self.n else []
            current = [len(b) for b in self.below]  # chains of size 2 by top element
        else:
            counts = [sum(weights)] if self.n else []
            current = [sum(map(weights.__getitem__, b)) for b in self.below]
        while any(current):
            counts.append(sum(current))
            nxt = [0] * self.n
            for cv, up in zip(current, self.above):
                if cv:
                    for w in up:
                        nxt[w] += cv
            current = nxt
        return counts

    def moebius_bottom_to_top(self) -> int:
        """mu(0-hat, 1-hat) of the poset with adjoined bounds."""
        # process in a linear extension: |below| strictly grows along the order
        order = sorted(range(self.n), key=lambda v: (len(self.below[v]), v))
        mu0 = [0] * self.n
        for v in order:
            mu0[v] = -(1 + sum(mu0[u] for u in self.below[v]))
        return -(1 + sum(mu0))
