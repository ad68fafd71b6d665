"""Structure of A_7 around a Sylow 2-subgroup, and fixed-point scans.

A_7 is the one alternating group where a cyclic subgroup generated by a
long cycle fails to universally 2-generate: two conjugacy classes of
index-15 subgroups contain both a Sylow 2-subgroup and a 7-cycle.
Conjugation by (1,2)(3,4)(5,6) inside S_7 swaps the two classes, which is
what makes the fixed-point set of the extended action empty. Everything
here is computed on explicit element sets; the coset posets of A_7 and S_7
are far too large to materialize, so fixed cosets are found through the
containment criterion applied to the overgroups of the fixed Sylow
2-subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cosets import OvergroupAutomorphism, fixed_cosets
from .groups import (
    PermutationGroup,
    SubgroupRecord,
    _closure,
    _normalizer,
    alternating_group,
    conjugacy_orbit_of_subgroup,
    conjugate_indices,
    diagonal_embedding,
    embed_in_power,
    generated_order,
    intermediate_subgroups,
    right_coset_reps,
    symmetric_group,
    sylow_subgroup,
)
from .perm import Permutation, _conj_bytes, cycle_string, parse_permutation


@dataclass(frozen=True)
class A7Environment:
    A7: PermutationGroup
    S7: PermutationGroup
    P: PermutationGroup            # Sylow 2-subgroup of A_7, normalized by phi
    seven_cycle: Permutation       # generates a Sylow 7-subgroup normalized by phi
    phi: OvergroupAutomorphism     # conjugation by (1,2)(3,4)(5,6) in S_7

    @property
    def K(self) -> PermutationGroup:
        return PermutationGroup([self.seven_cycle], 7)


@lru_cache(maxsize=1)
def build_environment() -> A7Environment:
    """Fixed Sylow 2- and 7-subgroups of A_7, both normalized by phi.

    Existence of such a pair is part of what the structure checks verify;
    the sweep below finds the witnesses deterministically.
    """
    A7 = alternating_group(7)
    S7 = symmetric_group(7)
    x = parse_permutation("(1,2)(3,4)(5,6)", 7)
    phi = OvergroupAutomorphism(group=A7, overgroup=S7, conjugator=x)

    # P = P0^g for the least g in A_7's table order that makes P0^g
    # phi-invariant. The conjugators carrying P0 to a conjugate Q form the
    # right coset N g_Q of N = N_A7(P0), so g is the least coset label of
    # some g_Q over the phi-invariant Q; each g_Q is the conjugator that
    # ``conjugacy_orbit_of_subgroup`` carries to Q.
    P0 = sylow_subgroup(A7, 2)
    elems, index = A7.element_bytes(), A7.element_index()
    p_gens = [index[g] for g in P0._gens_bytes()]
    p_set = _closure(A7, p_gens)
    orbit = conjugacy_orbit_of_subgroup(A7, p_set, p_gens)
    N, _ = _normalizer(A7, p_set, p_gens, A7.order // len(orbit))
    label = right_coset_reps(A7, N)
    invariant = [label[index[g_q]] for q_set, _, g_q in orbit
                 if conjugate_indices(A7, q_set, x._b) == q_set]
    assert invariant, "no phi-invariant Sylow 2-subgroup found"
    g_perm = Permutation._from_bytes(elems[min(invariant)])
    chosen_p = PermutationGroup([gen ** g_perm for gen in P0.generators], 7)

    # the least 7-cycle with a phi-invariant subgroup, from the class of <(1,...,7)>
    c = [index[parse_permutation("(1,2,3,4,5,6,7)", 7)._b]]
    sevens = conjugacy_orbit_of_subgroup(A7, _closure(A7, c), c)
    least = min((min(fs - {0}) for fs, _, _ in sevens
                 if conjugate_indices(A7, fs, x._b) == fs), default=None)
    assert least is not None, "no phi-invariant Sylow 7-subgroup found"
    chosen_h = Permutation._from_bytes(elems[least])

    env = A7Environment(A7=A7, S7=S7, P=chosen_p, seven_cycle=chosen_h, phi=phi)
    assert env.A7.order == 2520 and env.P.order == 8 and env.seven_cycle.order() == 7
    assert env.phi.squares_to_identity()
    return env


@lru_cache(maxsize=4)
def _overgroup_census(ambient: str) -> list[SubgroupRecord]:
    env = build_environment()
    G = env.A7 if ambient == "A7" else env.S7
    return intermediate_subgroups(G, env.P)


def overgroups_of_sylow2(env: A7Environment) -> list[SubgroupRecord]:
    """All subgroups H with P <= H <= A_7, as element-index sets.

    The census is cached for the P of ``build_environment()`` only, so any
    other environment is refused rather than given that P's overgroups.
    """
    if env is not build_environment():
        raise ValueError("overgroups_of_sylow2 takes the environment of build_environment(); "
                         "its cached census is for that environment's P only")
    return _overgroup_census("A7")


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
    assert K.order == rec.order
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
    P_prod = PermutationGroup(
        [embed_in_power(g, b, t) for b in range(t) for g in env.P.generators])
    assert P_prod.order == env.P.order ** t
    report["normalizes_P_product"] = P_prod.is_normalized_by(rho)
    K_diag = diagonal_embedding(env.K, t)
    report["normalizes_K"] = K_diag.is_normalized_by(rho)
    per_factor = []
    for b in range(t):
        P_b = PermutationGroup([embed_in_power(q, b, t) for q in env.P.generators])
        per_factor.append(P_b.is_normalized_by(rho))
    report["normalizes_each_factor_sylow2"] = all(per_factor)
    return report


@dataclass(frozen=True)
class SmithActionSpec:
    """The extended action (P x K) with theta adjoined, on C(G, N), and P's overgroups in G."""
    G: PermutationGroup
    N: PermutationGroup
    P: PermutationGroup
    K: PermutationGroup
    theta: OvergroupAutomorphism
    overgroups: tuple[SubgroupRecord, ...] = field(repr=False)

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
                           overgroups=tuple(_overgroup_census(ambient)))


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
