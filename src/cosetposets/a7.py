"""Structure of A_7 around a Sylow 2-subgroup, and fixed-point scans.

A_7 is the one alternating group where a cyclic subgroup generated by a
long cycle fails to universally 2-generate: two conjugacy classes of
index-15 subgroups contain both a Sylow 2-subgroup and a 7-cycle.
Conjugation by (1,2)(3,4)(5,6) inside S_7 swaps the two classes, which is
what makes the fixed-point set of the extended action empty. Everything
here is computed on explicit element sets; the coset posets of A_7 and S_7
are far too large to materialize, so fixed cosets are found through the
containment criterion applied to the overgroups of the fixed Sylow
2-subgroup. Those in A_7 come from the overgroup census; those in S_7 are
lifted from it across the index-2 extension, each one A_7-overgroup L or
L together with one coset Lt, for t odd, normalizing L, with t^2 in L.
Within each overgroup H the fixed cosets Hx are read off the class of the
7-cycle k, whose centralizer is <k> in A_7 and in S_7 (``fixed_cosets``),
so no coset of A_7 or S_7 is labelled.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .cosets import OvergroupAutomorphism, fixed_cosets
from .groups import (
    PermutationGroup,
    SubgroupRecord,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    conjugate_indices,
    diagonal_embedding,
    direct_power,
    embed_in_power,
    generated_order,
    intermediate_subgroups,
    lift_census,
    symmetric_group,
    sylow_subgroup,
)
from .perm import Permutation, _conj_bytes, cycle_string, parse_permutation

# the witnesses on 7 points, certified by ``build_environment`` on every build
PHI = "(1,2)(3,4)(5,6)"
SYLOW2_GENERATORS = ("(3,4)(5,6)", "(3,5)(4,6)", "(1,2)(5,6)")
SEVEN_CYCLE = "(1,2,3,5,7,6,4)"


class A7Environment:
    """The witnesses on 7 points, and the overgroup censuses of P built from them."""

    def __init__(self, A7: PermutationGroup, S7: PermutationGroup, P: PermutationGroup,
                 seven_cycle: Permutation, phi: OvergroupAutomorphism):
        self.A7 = A7
        self.S7 = S7
        self.P = P                      # Sylow 2-subgroup of A_7, normalized by phi
        self.seven_cycle = seven_cycle  # generates a Sylow 7-subgroup normalized by phi
        self.phi = phi                  # conjugation by PHI in S_7
        self.censuses: dict[str, list[SubgroupRecord]] = {}

    @cached_property
    def K(self) -> PermutationGroup:
        return PermutationGroup([self.seven_cycle], 7)

    def overgroups(self, ambient: str) -> list[SubgroupRecord]:
        """All subgroups H with P <= H <= G, for G = A_7 (``"A7"``) or S_7
        (``"S7"``), as index sets into G's element table: the A_7 census by
        ``intermediate_subgroups``, the S_7 census lifted from it across the
        index-2 extension by ``lift_census``. Each is built once per
        environment."""
        if ambient not in self.censuses:
            if ambient == "A7":
                census = intermediate_subgroups(self.A7, self.P)
            elif ambient == "S7":
                census = lift_census(self.S7, self.A7, self.overgroups("A7"))
            else:
                raise KeyError(ambient)
            self.censuses[ambient] = census
        return self.censuses[ambient]


@lru_cache(maxsize=1)
def build_environment() -> A7Environment:
    """The environment of the stated witnesses, each certified here: P is a
    Sylow 2-subgroup of A_7 and the 7-cycle lies in A_7, both normalized by
    phi, an involution. A witness that fails raises RuntimeError naming it."""
    A7, S7, x = alternating_group(7), symmetric_group(7), parse_permutation(PHI, 7)
    P = PermutationGroup([parse_permutation(g, 7) for g in SYLOW2_GENERATORS], 7)
    h = parse_permutation(SEVEN_CYCLE, 7)
    env = A7Environment(A7=A7, S7=S7, P=P, seven_cycle=h,
                        phi=OvergroupAutomorphism(group=A7, overgroup=S7, conjugator=x))
    certificate = {
        "PHI": env.phi.squares_to_identity(),
        "SYLOW2_GENERATORS": (P.order == A7.order & -A7.order  # |P| = |A_7|_2 = 8
                              and P.is_subgroup_of(A7) and P.is_normalized_by(x)),
        "SEVEN_CYCLE": h in A7 and h.order() == 7 and env.K.is_normalized_by(x),
    }
    for name, holds in certificate.items():
        if not holds:
            raise RuntimeError(f"a7.{name} fails its certificate as an A_7 witness")
    return env


def overgroups_of_sylow2(env: A7Environment) -> list[SubgroupRecord]:
    """All subgroups H with P <= H <= A_7, as element-index sets."""
    return env.overgroups("A7")


def pgl_overgroups(env: A7Environment) -> list[SubgroupRecord]:
    """The proper overgroups of P that contain a 7-cycle: by Cauchy, those
    of order divisible by 7, as the elements of order 7 in A_7 are its
    7-cycles."""
    return [rec for rec in overgroups_of_sylow2(env)
            if rec.order < env.A7.order and rec.order % 7 == 0]


def check_phi_properties(env: A7Environment) -> dict:
    """Facts about phi and the two special subgroup classes, verified directly."""
    x = env.phi.conjugator
    pgls = pgl_overgroups(env)
    report = {
        "phi_squares_to_identity": env.phi.squares_to_identity(),
        "phi_normalizes_P": env.P.is_normalized_by(x),
        "phi_normalizes_seven_cycle_subgroup": env.K.is_normalized_by(x),
        "pgl_count": len(pgls),
        "pgl_orders": sorted(rec.order for rec in pgls),
        "pgl_indices": sorted(env.A7.order // rec.order for rec in pgls),
    }
    if len(pgls) == 2:
        orbit1, orbit2 = ({fs for fs, _, _ in conjugacy_orbit_of_subgroup(
            env.A7, rec.elements, rec.generators)} for rec in pgls)
        report["classes_disjoint"] = pgls[1].elements not in orbit1
        report["class_sizes"] = (len(orbit1), len(orbit2))
        image1 = {conjugate_indices(env.A7, fs, x._b) for fs in orbit1}
        report["phi_swaps_classes"] = (image1 == orbit2)
    return report


def check_pgl_strong_generation(env: A7Environment, rec: SubgroupRecord) -> bool:
    """<P^r : r in R> = K for a Sylow 2-subgroup P and Sylow 7-subgroup R of K."""
    elems = env.A7.element_bytes()
    K = PermutationGroup([Permutation._from_bytes(elems[i]) for i in rec.generators], 7)
    if K.order != rec.order:
        raise RuntimeError(f"the record's generators give order {K.order}, not {rec.order}")
    P_K = sylow_subgroup(K, 2)
    R = sylow_subgroup(K, 7)
    conj_gens = [Permutation._from_bytes(_conj_bytes(p._b, r))
                 for r in R.element_bytes() for p in P_K.generators]
    got = generated_order(conj_gens, 7, stop_at=rec.order)
    return got == rec.order


def check_rho_on_power(t: int) -> dict:
    """The involution rho = conjugation by (x, ..., x) on the t-th power of A_7.

    Verifies that rho normalizes each factor, the product of the factor
    Sylow 2-subgroups, and the cyclic group generated by the tuple of
    7-cycles; and that inside one factor the only rho-invariant overgroup
    of P containing the 7-cycle is the factor itself.
    """
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    env = build_environment()
    report: dict = {"t": t}
    h_index = env.A7.element_index()[env.seven_cycle._b]
    x = env.phi.conjugator
    invariant_overgroups = []
    for rec in overgroups_of_sylow2(env):
        if h_index not in rec.elements:
            continue
        if conjugate_indices(env.A7, rec.elements, x._b) == rec.elements:
            invariant_overgroups.append(rec.order)
    report["invariant_overgroups_with_seven_cycle"] = sorted(invariant_overgroups)
    report["factor_property_3"] = invariant_overgroups == [env.A7.order]
    if t == 1:
        report["normalizes_factors"] = env.A7.is_normalized_by(x)
        report["normalizes_P_product"] = env.P.is_normalized_by(x)
        report["normalizes_K"] = env.K.is_normalized_by(x)
        report["rho_order"] = x.order()
        return report
    rho = diagonal_embedding(PermutationGroup([x], 7), t).generators[0]
    report["rho_order"] = rho.order()
    factors = [PermutationGroup([embed_in_power(g, b, t) for g in env.A7.generators])
               for b in range(t)]
    report["normalizes_factors"] = all(Li.is_normalized_by(rho) for Li in factors)
    report["normalizes_P_product"] = direct_power(env.P, t).is_normalized_by(rho)
    K_diag = diagonal_embedding(env.K, t)
    report["normalizes_K"] = K_diag.is_normalized_by(rho)
    per_factor = []
    for b in range(t):
        P_b = PermutationGroup([embed_in_power(q, b, t) for q in env.P.generators])
        per_factor.append(P_b.is_normalized_by(rho))
    report["normalizes_each_factor_sylow2"] = all(per_factor)
    return report


class SmithActionSpec(NamedTuple):
    """The extended action (P x K) with theta adjoined, on C(G, N), and P's overgroups in G."""
    G: PermutationGroup
    N: PermutationGroup
    P: PermutationGroup
    K: PermutationGroup
    theta: OvergroupAutomorphism
    overgroups: tuple[SubgroupRecord, ...]

    def __repr__(self) -> str:  # without the overgroups, thousands of element indices
        return (f"SmithActionSpec(G={self.G!r}, N={self.N!r}, P={self.P!r}, "
                f"K={self.K!r}, theta={self.theta!r})")

    def shape_report(self) -> dict:
        """Structural facts putting the action group in Smith-theory shape:
        a 2-group times a cyclic group, extended by an order-2 part."""
        p_order = self.P.order
        two_group = p_order & (p_order - 1) == 0
        cyclic = any(Permutation._from_bytes(b).order() == self.K.order
                     for b in self.K.element_bytes())
        theta_c = self.theta.conjugator
        return {
            "P_is_2_group": two_group,
            "K_is_cyclic": cyclic,
            "theta_order_2": self.theta.squares_to_identity()
                and not self.theta.fixes_group_elementwise(),
            "theta_normalizes_P": self.P.is_normalized_by(theta_c),
            "theta_normalizes_K": self.K.is_normalized_by(theta_c),
            "theta_normalizes_N": self.N.is_normalized_by(theta_c),
        }


def build_smith_spec(ambient: str) -> SmithActionSpec:
    """The shipped action spec on C(G, A_7) for G = A_7 or G = S_7."""
    env = build_environment()
    G = env.A7 if ambient == "A7" else env.S7
    theta = OvergroupAutomorphism(group=G, overgroup=env.S7,
                                  conjugator=env.phi.conjugator)
    return SmithActionSpec(G=G, N=env.A7, P=env.P, K=env.K, theta=theta,
                           overgroups=tuple(env.overgroups(ambient)))


def smith_fixed_point_check(spec: SmithActionSpec) -> dict:
    """Fixed cosets of C(G, N) under P x K, then additionally under theta.

    theta fixes a translation-fixed coset Hr iff H^theta = H and
    r^theta r^-1 lies in H.
    """
    elems, index = spec.G.element_bytes(), spec.G.element_index()
    theta = spec.theta.conjugator
    translation_fixed = []
    fully_fixed = []
    for rec, r in fixed_cosets(spec.G, spec.N, spec.overgroups, spec.K):
        x = Permutation._from_bytes(elems[r])
        vertex = (rec.order, cycle_string(x))
        translation_fixed.append(vertex)
        h_set = rec.elements
        if (conjugate_indices(spec.G, h_set, theta._b) == h_set
                and index[((x ** theta) * x.inverse())._b] in h_set):
            fully_fixed.append(vertex)
    return {
        "translation_fixed": sorted(translation_fixed),
        "fully_fixed": sorted(fully_fixed),
        "shape": spec.shape_report(),
    }
