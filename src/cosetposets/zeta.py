"""The generation-probability Dirichlet polynomial of a finite group.

P(s) = sum over subgroups H of mu(H, G) [G:H]^(-s). At a positive integer
k this is the probability that k uniform random elements generate G; the
value at -1 is minus the reduced Euler characteristic of the coset poset's
order complex. Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .complexes import _as_poset
from .groups import (BudgetExceededError, PermutationGroup, _conjugation_rows, _generated_order,
                     _on_sets, _orbit, cyclic_subgroups)
from .lattice import MoebiusTable, SubgroupLattice

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
        """Exact value at integer s = k; negative k makes n^(-k) an integer."""
        total = Fraction(0)
        for n, a in self.coefficients:
            if k >= 0:
                total += Fraction(a, n**k)
            else:
                total += Fraction(a * n**(-k))
        return total

    def __repr__(self) -> str:
        body = " + ".join(f"{a}*{n}^-s" for n, a in self.coefficients)
        return f"<DirichletPolynomial {body}>"


def hall_polynomial(lat: SubgroupLattice, mu: MoebiusTable) -> DirichletPolynomial:
    """a_n = sum of mu(H, G) over subgroups of index n."""
    if mu.lattice is not lat:
        raise ValueError("Moebius table does not belong to the lattice")
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
    the cyclic subgroups of its entries do, so the loop runs over tuples of
    cyclic subgroups, each standing for its phi(|C|) generators and weighted
    by that count. The generation test is a stabilizer-chain order
    computation, memoized on the set of cyclic subgroups spanned; a tuple
    generates exactly when its conjugates do, so one test settles the whole
    conjugacy orbit of that set, walked under G's generators.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if G.order**k > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"|G|^k = {G.order**k} exceeds the tuple budget {TUPLE_BUDGET}")
    elems = G.element_bytes()
    # each element stands for the least generator of its cyclic subgroup
    cyc_rep = [0] * len(elems)
    reps, weights = [], []
    for generators in cyclic_subgroups(G).values():
        for i in generators:
            cyc_rep[i] = generators[0]
        reps.append(generators[0])
        weights.append(len(generators))
    on_sets = _on_sets([[cyc_rep[x] for x in row] for row in _conjugation_rows(G)])
    memo: dict[frozenset[int], bool] = {}
    count = 0
    for tup, tup_weights in zip(product(reps, repeat=k), product(weights, repeat=k)):
        key = frozenset(tup)
        hit = memo.get(key)
        if hit is None:
            gens = [elems[c] for c in key]
            hit = _generated_order(gens, G.degree, stop_at=G.order) == G.order
            memo.update((image, hit) for image, _, _ in _orbit(key, on_sets))
        if hit:
            count += prod(tup_weights)
    return Fraction(count, len(elems)**k)


def poset_moebius_hat(poset) -> int:
    """mu(0-hat, 1-hat) of the poset extended by a minimum and a maximum."""
    return _as_poset(poset).moebius_bottom_to_top()
