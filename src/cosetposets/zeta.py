"""The generation-probability Dirichlet polynomial of a finite group.

P(s) = sum over subgroups H of mu(H, G) [G:H]^(-s). At a positive integer
k this is the probability that k uniform random elements generate G; the
value at -1 is minus the reduced Euler characteristic of the coset poset's
order complex. Everything here is exact rational arithmetic.

``brute_force_generation_probability`` checks P(k) without the subgroup
lattice: it counts generating k-tuples by stabilizer-chain order tests,
one per conjugacy orbit of ordered k-tuples of cyclic subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Iterable

from .complexes import _as_poset
from .groups import (BudgetExceededError, PermutationGroup, _conjugator, _generated_order,
                     _normalizer, _orbit, cyclic_subgroups)
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
    the cyclic subgroups of its entries do, so the count runs over tuples
    of cyclic subgroups, each standing for its phi(|C|) generators and
    weighted by that count. Conjugation maps generating tuples to generating
    tuples of the same weight, so the first entry runs over one
    representative <r> per conjugacy class of cyclic subgroups, weighted by
    the class size; the other k - 1 entries run over all cyclic subgroups,
    one stabilizer-chain order test per orbit of N_G(<r>) on them, walked
    under N's generators. That is one test per G-orbit of ordered k-tuples.
    At k = 1 the test is |<r>| = |G|.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if G.order**k > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"|G|^k = {G.order**k} exceeds the tuple budget {TUPLE_BUDGET}")
    elems = G.element_bytes()
    subgroups = list(cyclic_subgroups(G).items())
    # each cyclic subgroup is its position in ``subgroups``, each element
    # the position of the cyclic subgroup it generates
    position = [0] * len(elems)
    for j, (_, generators) in enumerate(subgroups):
        for i in generators:
            position[i] = j
    reps = [generators[0] for _, generators in subgroups]
    weights = [len(generators) for _, generators in subgroups]

    def on_tuples(conjugators: Iterable[bytes]) -> Callable[[tuple[int, ...]], list]:
        """The step for ``_orbit`` on tuples of positions: conjugation by each
        of ``conjugators``."""
        rows = [[position[conj(r)] for r in reps]
                for conj in (_conjugator(G, g) for g in conjugators)]
        return lambda t: [tuple([row[j] for j in t]) for row in rows]

    g_step = on_tuples(G._gens_bytes())
    classed: set[int] = set()
    count = 0
    for j, (members, _) in enumerate(subgroups):
        if j in classed:
            continue
        cls = [t[0] for t, _, _ in _orbit((j,), g_step)]
        classed.update(cls)
        weight = len(cls) * weights[j]
        if k == 1:
            if len(members) == len(elems):
                count += weight
            continue
        _, n_gens = _normalizer(G, members, (reps[j],), len(elems) // len(cls))
        n_step = on_tuples(elems[g] for g in n_gens)
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


def poset_moebius_hat(poset) -> int:
    """mu(0-hat, 1-hat) of the poset extended by a minimum and a maximum."""
    return _as_poset(poset).moebius_bottom_to_top()
