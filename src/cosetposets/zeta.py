"""The generation-probability Dirichlet polynomial of a finite group.

P(s) = sum over subgroups H of mu(H, G) [G:H]^(-s). At a positive integer
k this is the probability that k uniform random elements generate G; the
value at -1 is minus the reduced Euler characteristic of the coset poset's
order complex. Everything here is exact rational arithmetic.

``brute_force_generation_probability`` checks P(k) without the subgroup
lattice: it counts generating k-tuples by stabilizer-chain order tests,
one per conjugacy orbit of ordered k-tuples of cyclic subgroups, whose
classes it reads from the group's cached table (``G._cyclic_table()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .groups import (BudgetExceededError, PermutationGroup, _conjugator, _generated_order,
                     _normalizer, _orbit)
from .lattice import SubgroupLattice

TUPLE_BUDGET = 10**7


@dataclass(frozen=True)
class DirichletPolynomial:
    """sum of a_n * n^(-s), stored as sorted (n, a_n) pairs with a_n != 0."""
    coefficients: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d) -> "DirichletPolynomial":
        return cls(tuple(sorted((n, a) for n, a in d.items() if a)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coefficients)

    def evaluate(self, k: int) -> Fraction:
        """Exact value at integer s = k."""
        return sum((a * Fraction(n) ** -k for n, a in self.coefficients), Fraction(0))

    def __repr__(self) -> str:
        body = " + ".join(f"{a}*{n}^-s" for n, a in self.coefficients)
        return f"<DirichletPolynomial {body}>"


def hall_polynomial(lat: SubgroupLattice, mu: tuple[int, ...]) -> DirichletPolynomial:
    """a_n = sum of mu(H, G) over subgroups of index n; ``mu`` holds one
    value per lattice id, as ``moebius_to_top`` gives it."""
    if len(mu) != len(lat.subgroups):
        raise ValueError(
            f"mu has {len(mu)} values for a lattice of {len(lat.subgroups)} subgroups")
    coeffs: dict[int, int] = {}
    for i, entry in enumerate(lat.subgroups):
        n = lat.group.order // entry.order
        coeffs[n] = coeffs.get(n, 0) + mu[i]
    return DirichletPolynomial.from_dict(coeffs)


def evaluate(poly: DirichletPolynomial, k: int) -> Fraction:
    return poly.evaluate(k)


def brute_force_generation_probability(G: PermutationGroup, k: int) -> Fraction:
    """Exact fraction of the |G|^k tuples that generate G.

    Independent of the subgroup lattice. A tuple generates G exactly when
    the cyclic subgroups of its entries do, so the count runs over tuples
    of cyclic subgroups, each standing for its phi(|C|) generators and
    weighted by that count. Conjugation maps generating tuples to generating
    tuples of the same weight, so the first entry runs over one
    representative <r> per class of the group's cyclic table, weighted by
    the class size; the other k - 1 entries run over all cyclic subgroups,
    one stabilizer-chain order test per orbit of N_G(<r>) on them, walked
    under N's generators: one test per G-orbit of ordered k-tuples. At
    k = 1 it counts the generators of G, if G is cyclic.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if G.order**k > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"|G|^k = {G.order**k} exceeds the tuple budget {TUPLE_BUDGET}")
    elems = G.element_bytes()
    subgroups, position, classes = G._cyclic_table()
    if k == 1:  # one element generates G exactly when its cyclic subgroup is G
        return Fraction(len(subgroups.get(G._full_set(), ())), len(elems))
    members = list(subgroups)
    reps = [generators[0] for generators in subgroups.values()]
    weights = [len(generators) for generators in subgroups.values()]
    count = 0
    for j, size in classes:
        weight = size * weights[j]
        _, n_gens = _normalizer(G, members[j], (reps[j],), len(elems) // size)
        # N's conjugations on the positions of the cyclic subgroups
        rows = [[position[conj(r)] for r in reps]
                for conj in (_conjugator(G, elems[g]) for g in n_gens)]
        n_step = lambda t: [tuple([row[i] for i in t]) for row in rows]
        seen: set[tuple[int, ...]] = set()
        for t in product(range(len(subgroups)), repeat=k - 1):
            if t in seen:
                continue
            orbit = [u for u, _, _ in _orbit(t, n_step)]
            seen.update(orbit)
            gens = [elems[reps[j]]] + [elems[reps[i]] for i in t]
            if _generated_order(gens, G.degree, stop_at=G.order) == G.order:
                count += weight * len(orbit) * prod(weights[i] for i in t)
    return Fraction(count, len(elems)**k)
