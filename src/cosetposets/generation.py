"""Universal p-generation sweeps and the alternating-group checks.

A subgroup K universally p-generates G when <K, P> = G for every Sylow
p-subgroup P. Quantifying over Sylow subgroups is done by the conjugation
trick: sweep the conjugates of K against one fixed P. Each test is a
stabilizer-chain order computation that stops as soon as the target order
is certified.
"""

from __future__ import annotations

from itertools import combinations, permutations, repeat
from math import comb, factorial, gcd
from operator import itemgetter
from typing import Sequence

from .groups import (
    ENUMERATION_BOUND,
    BudgetExceededError,
    PermutationGroup,
    _closure,
    _generated_order,
    _sylow2_wreath_gens,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    direct_power,
    diagonal_embedding,
    sylow_subgroup,
)
from .lattice import SubgroupLattice, maximal_subgroups
from .perm import _ID256, Permutation, cycle_string


class GenerationReport:
    """A sweep's verdict, its first witnesses, and its counts: ``tests`` the
    conjugates or P-orbits it decided, ``order_tests`` the order tests it
    ran to decide them, and ``cycles`` the cycles they cover."""

    def __init__(self, verdict: bool, witnesses: list[dict] | None = None,
                 tests: int = 0, cycles: int = 0, order_tests: int = 0):
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.tests = tests
        self.order_tests = order_tests
        self.cycles = cycles


def _conjugate_sweep(G: PermutationGroup, K: PermutationGroup,
                     P: PermutationGroup) -> GenerationReport:
    """Test <K^g, P> = G once per conjugate K^g, from the generators that
    ``conjugacy_orbit_of_subgroup`` carries, each test extending P's own
    chain; the first four failures are witnesses."""
    report = GenerationReport(verdict=True)
    elems, index = G.element_bytes(), G.element_index()
    k_gens = [index[x] for x in K._gens_bytes()]
    for _, gens, g in conjugacy_orbit_of_subgroup(G, _closure(G, k_gens), k_gens):
        report.tests += 1
        report.order_tests += 1
        got = _generated_order([elems[x] for x in gens], G.degree, stop_at=G.order,
                               start=P._levels)
        if got != G.order:
            report.verdict = False
            if len(report.witnesses) < 4:
                report.witnesses.append({
                    "conjugator": cycle_string(Permutation._from_bytes(g)),
                    "generated_order": got,
                })
    return report


def universally_p_generates(G: PermutationGroup, K: PermutationGroup,
                            p: int) -> GenerationReport:
    """Does <K^g, P> = G hold for one fixed Sylow p-subgroup P and all g?

    Equivalent to <K, P'> = G over all Sylow p-subgroups P'.
    """
    if not K.is_subgroup_of(G):
        raise ValueError("K is not a subgroup of G")
    if G.order % p != 0:
        raise ValueError(f"{p} does not divide |G| = {G.order}")
    return _conjugate_sweep(G, K, sylow_subgroup(G, p))


def univ_gen_via_maximal_indices(G: PermutationGroup, r: int, p: int,
                                 lat: SubgroupLattice) -> bool:
    """Sylow-r universally p-generates G iff every maximal subgroup of G
    has index divisible by p or by r."""
    lat.check_group(G)
    for m in maximal_subgroups(lat):
        index = lat.index_in_group(m)
        if index % p != 0 and index % r != 0:
            return False
    return True


def _enumeration_key(cyc: bytes) -> tuple[bytes, bytes]:
    """Orders the cycles of one length, each written from its least point,
    as the sweep enumerates them: by point set, then by tail."""
    return bytes(sorted(cyc)), cyc


def _cycle_permutation(cyc: bytes, n: int) -> Permutation:
    return Permutation.from_cycles([[x + 1 for x in cyc]], n)


class _CycleGenerators:
    """The generators c^u of <c>, for u prime to m, of cycles c of length m.
    Written from c's least point, c^u lists c's points at positions 0, u,
    2u, ... mod m, so it starts at the same point. Their second points c[u]
    differ, and the one whose second point is least comes first in the
    sweep's enumeration order: <c>'s canonical generator."""

    def __init__(self, m: int):
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        self.count = len(units)  # Euler phi of m
        # for c written with its least point at position i: the second point
        # of each c^u, and each c^u written from that least point
        self._rotations = [(itemgetter(*((i + u) % m for u in units)),
                            [itemgetter(*((i + k * u) % m for k in range(m))) for u in units])
                           for i in range(m)]
        self._tail_seconds = itemgetter(*(u - 1 for u in units))

    def all(self, cyc: bytes) -> list[bytes]:
        """The generators of <cyc>, for cyc written from its least point."""
        return [bytes(power(cyc)) for power in self._rotations[0][1]]

    def canonical(self, cyc: bytes) -> bytes:
        """The canonical generator of <cyc>, for cyc written from any point."""
        seconds, powers = self._rotations[cyc.index(min(cyc))]
        s = seconds(cyc)
        return bytes(powers[s.index(min(s))](cyc))

    def orbit(self, cyc: bytes, tables: Sequence[bytes]) -> list[bytes]:
        """The canonical generators of the subgroups <cyc>^g, once each, for
        g running over the padded image tables ``tables``."""
        return list(dict.fromkeys([self.canonical(cyc.translate(t)) for t in tables]))

    def is_canonical(self, tail: Sequence[int]) -> bool:
        """Is the cycle whose points after its least point are ``tail``
        its subgroup's canonical generator?"""
        return tail[0] == min(self._tail_seconds(tail))


def check_alternating_claims(n: int) -> GenerationReport:
    """Sweep all n-cycles (n odd) or (n-1)-cycles (n even) of A_n against
    one fixed Sylow 2-subgroup P; report whether every pair generates A_n.
    Each test <c, P> extends P's own stabilizer chain by c.

    <c^g, P> = <c, P>^g for g in P, and <c^u, P> = <c, P> for u prime to
    the cycle length m, so one test decides each orbit of P x Aut(<c>) on
    the cycles, which is the set of generators of one P-orbit of cyclic
    subgroups <c>. So the sweep walks cyclic subgroups, each written as its
    canonical generator: cycles are scanned in enumeration order (point
    sets, then tails, lexicographic), skipping those not canonical or seen,
    and each P-orbit is read from its first such cycle c as
    {canonical(c^g) : g in P}, over P's element table. P has index 2 in the
    Sylow 2-subgroup <P, t> of S_n, t the wreath's first generator, a
    transposition, which is certified to normalize P (else RuntimeError),
    so <c^t, P> = <c, P>^t: when canonical(c^t) is not in c's P-orbit, the
    members' t-images are a second P-orbit, decided by the same test. The
    members join a dict of the canonical generators seen, and an orbit that
    meets it raises RuntimeError: the orbits are disjoint. Disjoint orbits
    whose sizes times phi(m) add up to the number of cycles cover every
    cyclic subgroup, so the scan stops there, and a shortfall at the end
    raises RuntimeError. ``tests`` counts the P-orbits decided and
    ``order_tests`` the order tests run, one per orbit of <P, t>. The
    witnesses are the first four failing cycles in enumeration order, as
    ``_enumeration_key`` sorts them. A cyclic subgroup's canonical
    generator comes first among its generators, so they all lie in the four
    failing subgroups whose canonical generators come first; only those
    four subgroups have their generators listed.
    Raises BudgetExceededError, before any work, past ENUMERATION_BOUND
    cyclic subgroups.
    """
    if n < 5:
        raise ValueError("n must be at least 5")
    length = n if n % 2 == 1 else n - 1
    gens = _CycleGenerators(length)
    total = comb(n, length) * factorial(length - 1)
    if total // gens.count > ENUMERATION_BOUND:
        raise BudgetExceededError(
            f"A_{n} has {total // gens.count} cyclic subgroups of {length}-cycles, "
            f"over the enumeration budget {ENUMERATION_BOUND}")
    L = alternating_group(n)
    target = L.order
    P = sylow_subgroup(L, 2)
    t = _sylow2_wreath_gens(n)[0]
    if not P.is_normalized_by(Permutation._from_bytes(t)):
        raise RuntimeError(f"the first wreath generator of degree {n} does not normalize P")
    t += _ID256[n:]
    report = GenerationReport(verdict=True)
    conjugations = [g + _ID256[n:] for g in P.element_bytes()]
    is_canonical = gens.is_canonical
    seen: dict[bytes, None] = {}  # canonical generators; peaks lower than a set
    failing: list[tuple[bytes, int]] = []  # (canonical generator, order)
    for points in combinations(range(n), length):
        anchor = points[:1]
        for tail in permutations(points[1:]):
            if not is_canonical(tail):
                continue
            rep = bytes(anchor + tail)
            if rep in seen:
                continue
            members = gens.orbit(rep, conjugations)
            paired = gens.canonical(rep.translate(t)) not in members
            if paired:  # the second P-orbit, <c^t>'s
                members += [gens.canonical(cyc.translate(t)) for cyc in members]
            if not seen.keys().isdisjoint(members):
                raise RuntimeError(
                    f"the P-orbit of {cycle_string(_cycle_permutation(rep, n))} "
                    f"meets an earlier orbit")
            seen.update(dict.fromkeys(members))
            report.tests += 1 + paired
            report.order_tests += 1
            report.cycles += gens.count * len(members)
            got = _generated_order([_cycle_permutation(rep, n)._b], n, stop_at=target,
                                   start=P._levels)
            if got != target:
                report.verdict = False
                failing += zip(members, repeat(got))
            if report.cycles == total:
                break
        if report.cycles == total:
            break
    if report.cycles != total:
        raise RuntimeError(f"orbit sizes add up to {report.cycles}, not {total} cycles")
    failing.sort(key=lambda f: _enumeration_key(f[0]))
    first = sorted(((g, got) for cyc, got in failing[:4] for g in gens.all(cyc)),
                   key=lambda f: _enumeration_key(f[0]))
    report.witnesses = [
        {"cycle": cycle_string(_cycle_permutation(cyc, n)), "generated_order": got}
        for cyc, got in first[:4]]
    return report


def check_diagonal_universal(L: PermutationGroup, K: PermutationGroup,
                             p: int, t: int) -> GenerationReport:
    """Does the diagonal copy of K universally p-generate the t-th direct
    power of L?

    Projecting to a factor maps <K_diag^(g, ..., g), P^t> onto <K^g, P>, so
    the power passes only if L does: L's sweep runs first, and when it fails
    (or t = 1) its report answers, each witness conjugator g in L standing
    for (g, ..., g). Only a passing factor has L^t swept against P^t, and
    that sweep answers; past ENUMERATION_BOUND the element table of
    L^t raises BudgetExceededError before any test on it.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if not K.is_subgroup_of(L) or K.order == L.order:
        raise ValueError("K must be a proper subgroup of L")
    report = universally_p_generates(L, K, p)
    if report.verdict and t > 1:
        return _conjugate_sweep(direct_power(L, t), diagonal_embedding(K, t),
                                direct_power(sylow_subgroup(L, p), t))
    return report


def sylow2_fixed_point_free_element(n: int) -> Permutation | None:
    """A fixed-point-free element of the constructed Sylow 2-subgroup of A_n,
    or None when every element has a fixed point (always, for odd n)."""
    P = sylow_subgroup(alternating_group(n), 2)
    for b in P.element_bytes():
        if all(b[i] != i for i in range(n)):
            return Permutation._from_bytes(b)
    return None


def imprimitive_parity_identity(n: int, d: int) -> tuple[int, str]:
    """Both sides of n!/(d!^l l!) = product of C(jd-1, d-1), checked equal.

    Returns the common value and its parity. For odd n the value is even:
    the j = 2 factor C(2d-1, d-1) carries a factor of two.
    """
    if d <= 1 or d >= n or n % d != 0:
        raise ValueError(f"{d} is not a nontrivial proper divisor of {n}")
    ell = n // d
    num, den = factorial(n), factorial(d) ** ell * factorial(ell)
    if num % den:
        raise RuntimeError(f"d!^l l! does not divide n! at n={n}, d={d}")
    lhs = num // den
    rhs = 1
    for j in range(1, ell + 1):
        rhs *= comb(j * d - 1, d - 1)
    if lhs != rhs:
        raise RuntimeError(f"factorization identity fails at n={n}, d={d}")
    if n % 2 == 1:
        # d odd, so d * C(2d-1, d-1) = (2d-1) * 2 * C(2d-3, d-1) forces evenness
        if d % 2 == 0:
            raise RuntimeError(f"d={d} is even but divides the odd n={n}")
        if d * comb(2 * d - 1, d - 1) != (2 * d - 1) * 2 * comb(2 * d - 3, d - 1):
            raise RuntimeError(
                f"evenness identity d C(2d-1, d-1) = 2 (2d-1) C(2d-3, d-1) fails at d={d}")
    return lhs, "even" if lhs % 2 == 0 else "odd"
