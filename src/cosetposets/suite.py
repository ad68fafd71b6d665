"""Verification suites over the group catalog, with JSON reports.

Each suite emits one record per subject; a record failure (including an
exception) is captured and marks the run as failed without aborting it.
Reports are deterministic for a fixed configuration, up to the top-level
timestamp.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from math import comb, factorial

from . import a7 as a7mod
from .catalog import GroupCatalogEntry, load_catalog
from .complexes import (
    kunneth_join_betti,
    order_complex,
    poset_reduced_euler_characteristic,
    reduced_betti,
)
from .cosets import build_coset_poset, build_relative_poset, fixed_cosets
from .generation import (
    check_alternating_claims,
    check_diagonal_universal,
    imprimitive_parity_identity,
    sylow2_fixed_point_free_element,
    univ_gen_via_maximal_indices,
    universally_p_generates,
)
from .groups import (
    PermutationGroup,
    _is_prime,
    alternating_group,
    diagonal_embedding,
    direct_power,
    intermediate_subgroups,
    minimal_normal_subgroups,
    quotient_representation,
    sylow_subgroup,
)
from .lattice import LATTICE_ORDER_BOUND, enumerate_subgroups, moebius_to_top
from .perm import parse_permutation_list
from .zeta import (
    TUPLE_BUDGET,
    brute_force_generation_probability,
    evaluate,
    hall_polynomial,
    poset_moebius_hat,
)

ALL_SUITES = ("reciprocity", "homology", "join", "altgen", "a7", "identities")

RECIPROCITY_ORDER_CAP = 120
HOMOLOGY_ORDER_CAP = 60

JOIN_PAIRS = (
    ("S3", "(1,2,3)"),
    ("C4", "(1,3)(2,4)"),
    ("S4", "(1,2)(3,4),(1,3)(2,4)"),
    ("Q8", "(1,3)(2,4)(5,7)(6,8)"),
    ("C6", "(1,3,5)(2,4,6)"),
)

ALTGEN_EXPECTED = {5: True, 6: True, 7: False, 8: False, 9: True, 10: True}


@dataclass(frozen=True)
class SuiteConfig:
    catalog_path: str | None = None
    suites: tuple[str, ...] = ALL_SUITES
    max_order: int | None = None
    prime: int = 2
    slow: bool = False

    def as_dict(self) -> dict:
        return {
            "catalog": self.catalog_path or "bundled",
            "suites": list(self.suites),
            "max_order": self.max_order,
            "prime": self.prime,
            "slow": self.slow,
        }


@dataclass
class VerificationReport:
    version: str
    timestamp: str
    config: dict
    records: list[dict] = field(default_factory=list)

    @property
    def overall(self) -> str:
        """pass iff there is at least one record and every record passes."""
        return "pass" if self.records and all(r["verdict"] for r in self.records) else "fail"

    def to_json(self) -> str:
        body = {
            "version": self.version,
            "timestamp": self.timestamp,
            "config": self.config,
            "records": self.records,
            "overall": self.overall,
        }
        return json.dumps(body, indent=2, default=str) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            status = "pass" if r["verdict"] else "FAIL"
            lines.append(f"[{status}] {r['suite']}: {r['subject']} ({r['millis']:.0f} ms)")
        lines.append(f"overall: {self.overall}")
        return lines


class _Workspace:
    """Per-run cache of built groups, lattices, and posets."""

    def __init__(self, entries: list[GroupCatalogEntry]):
        self.entries = entries
        self._groups: dict[str, PermutationGroup] = {}
        self._lattices: dict[str, tuple] = {}
        self._posets: dict[str, object] = {}

    def group(self, name: str) -> PermutationGroup:
        if name not in self._groups:
            entry = next(e for e in self.entries if e.name == name)
            self._groups[name] = entry.build()
        return self._groups[name]

    def lattice(self, name: str):
        if name not in self._lattices:
            lat = enumerate_subgroups(self.group(name))
            self._lattices[name] = (lat, moebius_to_top(lat))
        return self._lattices[name]

    def coset_poset(self, name: str):
        if name not in self._posets:
            lat, _ = self.lattice(name)
            self._posets[name] = build_coset_poset(self.group(name), lat)
        return self._posets[name]


def _record(suite: str, subject: str, fn) -> dict:
    start = time.perf_counter()
    try:
        verdict, values, witnesses = fn()
    except Exception as exc:  # a failing record must not abort the run
        verdict, values, witnesses = False, {"error": f"{type(exc).__name__}: {exc}"}, []
    return {
        "suite": suite,
        "subject": subject,
        "verdict": bool(verdict),
        "values": values,
        "witnesses": witnesses,
        "millis": (time.perf_counter() - start) * 1000,
    }


def _reciprocity_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    cap = config.max_order or RECIPROCITY_ORDER_CAP
    out = []
    for entry in ws.entries:
        if entry.expected_order > cap:
            continue

        def check(name=entry.name):
            lat, mu = ws.lattice(name)
            poly = hall_polynomial(lat, mu)
            poset = ws.coset_poset(name)
            chi = poset_reduced_euler_characteristic(poset)
            hat = poset_moebius_hat(poset)
            value = evaluate(poly, -1)
            ok = value == -chi and hat == chi
            values = {"chi": chi, "moebius_hat": hat, "p_at_minus_1": str(value),
                      "polynomial": dict(poly.coefficients)}
            return ok, values, []

        out.append(_record("reciprocity", entry.name, check))
    return out


def _homology_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    cap = config.max_order or HOMOLOGY_ORDER_CAP
    p = config.prime
    out = []
    for entry in ws.entries:
        if not 1 < entry.expected_order <= cap:
            continue

        def check(name=entry.name):
            G = ws.group(name)
            poset = ws.coset_poset(name)
            X = order_complex(poset)
            betti = reduced_betti(X, p)
            # arrays indexed from dimension -1
            values = {"f_vector": X.f_vector(), "betti": betti.as_array()}
            ok = not betti.is_zero()
            relative = {}
            for i, N in enumerate(minimal_normal_subgroups(G)):
                lat, _ = ws.lattice(name)
                rel = build_relative_poset(G, N, lat)
                rel_betti = reduced_betti(order_complex(rel), p)
                relative[f"N{i}_order_{N.order}"] = rel_betti.as_array()
                ok = ok and not rel_betti.is_zero()
            values["relative"] = relative
            return ok, values, []

        out.append(_record("homology", entry.name, check))
    return out


def _join_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    p = config.prime
    out = []
    for name, normal_text in JOIN_PAIRS:

        def check(name=name, normal_text=normal_text):
            G = ws.group(name)
            lat, _ = ws.lattice(name)
            N = PermutationGroup(parse_permutation_list(normal_text, G.degree), G.degree)
            whole = reduced_betti(order_complex(ws.coset_poset(name)), p)
            rel = reduced_betti(order_complex(build_relative_poset(G, N, lat)), p)
            Q = quotient_representation(G, N).group
            qlat = enumerate_subgroups(Q)
            quot = reduced_betti(order_complex(build_coset_poset(Q, qlat)), p)
            combined = kunneth_join_betti(quot, rel)
            values = {
                "whole": whole.as_array(),
                "quotient_factor": quot.as_array(),
                "relative_factor": rel.as_array(),
            }
            return combined == whole, values, []

        out.append(_record("join", f"{name} with |N|-factor", check))
    return out


def _altgen_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    out = []
    degrees = [5, 6, 7, 8, 9] + ([10] if config.slow else [])
    for n in degrees:

        def check(n=n):
            report = check_alternating_claims(n)
            expected = ALTGEN_EXPECTED[n]
            length = n if n % 2 == 1 else n - 1
            values = {"computed": report.verdict, "expected": expected,
                      "tests": report.tests, "cycles": report.cycles}
            ok = (report.verdict == expected
                  and report.cycles == comb(n, length) * factorial(length - 1))
            return ok, values, report.witnesses[:2]

        out.append(_record("altgen", f"A_{n} long-cycle sweep", check))

    def fpf_check():
        values = {}
        ok = True
        for n in (7, 9, 10, 12):
            witness = sylow2_fixed_point_free_element(n)
            if n % 2 == 1:
                ok = ok and witness is None
                values[f"n={n}"] = "none (odd degree forces a fixed point)"
            else:
                ok = ok and witness is not None
                values[f"n={n}"] = str(witness)
        return ok, values, []

    out.append(_record("altgen", "fixed-point-free Sylow-2 elements", fpf_check))
    return out


def _a7_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    out = []

    def census_check():
        env = a7mod.build_environment()
        report = a7mod.check_phi_properties(env)
        ok = (report["pgl_count"] == 2 and report["pgl_orders"] == [168, 168]
              and report["pgl_indices"] == [15, 15]
              and report["classes_disjoint"] and report["phi_swaps_classes"]
              and report["phi_normalizes_P"]
              and report["phi_normalizes_seven_cycle_subgroup"])
        strong = all(a7mod.check_pgl_strong_generation(env, rec)
                     for rec in a7mod.pgl_overgroups(env))
        report["strong_generation"] = strong
        report["class_sizes"] = list(report["class_sizes"])
        return ok and strong, report, []

    out.append(_record("a7", "Sylow-2 overgroup structure and phi", census_check))

    for ambient in ("A7", "S7"):

        def smith_check(ambient=ambient):
            spec = a7mod.build_smith_spec(ambient)
            result = a7mod.smith_fixed_point_check(spec)
            ok = (result["fully_fixed"] == [] and all(result["shape"].values()))
            if ambient == "A7":
                ok = ok and len(result["translation_fixed"]) == 2
            values = {
                "translation_fixed": [list(v) for v in result["translation_fixed"]],
                "fully_fixed": [list(v) for v in result["fully_fixed"]],
                "shape": result["shape"],
            }
            return ok, values, []

        out.append(_record("a7", f"fixed points of the extended action on C({ambient}, A7)",
                           smith_check))

    for t in (1, 2):

        def rho_check(t=t):
            report = a7mod.check_rho_on_power(t)
            ok = (report["rho_order"] == 2 and report["factor_property_3"]
                  and report["normalizes_factors"] and report["normalizes_P_product"]
                  and report["normalizes_K"])
            return ok, report, []

        out.append(_record("a7", f"involution on the {t}-fold power of A7", rho_check))
    return out


def _identities_records(ws: _Workspace, config: SuiteConfig) -> list[dict]:
    out = []

    def parity_check():
        checked = 0
        for n in range(4, 41):
            for d in range(2, n):
                if n % d == 0 and d != n:
                    value, parity = imprimitive_parity_identity(n, d)
                    if n % 2 == 1 and n <= 35 and parity != "even":
                        return False, {"n": n, "d": d, "value": value}, []
                    checked += 1
        return True, {"identities_checked": checked}, []

    out.append(_record("identities", "block-system counting identity", parity_check))

    lattice_cap = min(config.max_order or LATTICE_ORDER_BOUND, LATTICE_ORDER_BOUND)
    for entry in ws.entries:
        if entry.expected_order > lattice_cap:
            continue

        def oracle_check(name=entry.name):
            lat, mu = ws.lattice(name)
            poly = hall_polynomial(lat, mu)
            order = lat.group.order
            values = {}
            for k in (1, 2):
                if order**k > TUPLE_BUDGET:
                    continue
                expected = evaluate(poly, k)
                got = brute_force_generation_probability(lat.group, k)
                values[f"k={k}"] = str(got)
                if expected != got:
                    return False, values, [{"k": k, "formula": str(expected),
                                            "oracle": str(got)}]
            return True, values, []

        out.append(_record("identities", f"generation probability oracle: {entry.name}",
                           oracle_check))

    for entry in ws.entries:
        if entry.expected_order > lattice_cap or entry.expected_order < 2:
            continue

        def remark_check(name=entry.name):
            lat, _ = ws.lattice(name)
            G = lat.group
            primes = [p for p in range(2, G.order + 1)
                      if G.order % p == 0 and _is_prime(p)]
            pairs = 0
            for p in primes:
                for r in primes:
                    direct = universally_p_generates(G, sylow_subgroup(G, r), p).verdict
                    via_indices = univ_gen_via_maximal_indices(G, r, p, lat)
                    if direct != via_indices:
                        return False, {"p": p, "r": r}, []
                    pairs += 1
            return True, {"prime_pairs_checked": pairs}, []

        out.append(_record("identities", f"maximal-index criterion: {entry.name}",
                           remark_check))

    def diagonal_check():
        A5 = alternating_group(5)
        K = PermutationGroup(parse_permutation_list("(1,2,3,4,5)", 5), 5)
        values = {}
        ok = True
        for t in (1, 2):
            report = check_diagonal_universal(A5, K, 2, t)
            values[f"t={t}"] = report.verdict
            ok = ok and report.verdict
            N = direct_power(A5, t)
            Kd = diagonal_embedding(K, t)
            P = direct_power(sylow_subgroup(A5, 2), t)
            fixed = fixed_cosets(N, N, intermediate_subgroups(N, P), Kd)
            values[f"t={t}_fixed_cosets"] = len(fixed)
            ok = ok and not fixed
        return ok, values, []

    out.append(_record("identities", "diagonal universal generation for A5 powers",
                       diagonal_check))
    return out


_SUITE_FUNCTIONS = {
    "reciprocity": _reciprocity_records,
    "homology": _homology_records,
    "join": _join_records,
    "altgen": _altgen_records,
    "a7": _a7_records,
    "identities": _identities_records,
}


def run_suite(config: SuiteConfig) -> VerificationReport:
    from . import __version__

    if not _is_prime(config.prime):
        raise ValueError(f"--prime must be prime, got {config.prime}")
    if config.max_order is not None and config.max_order < 1:
        raise ValueError(f"--max-order must be at least 1, got {config.max_order}")
    # a suite named twice runs once, in first-seen order
    config = replace(config, suites=tuple(dict.fromkeys(config.suites)))
    for name in config.suites:
        if name not in _SUITE_FUNCTIONS:
            raise ValueError(f"unknown suite {name!r}; choose from {ALL_SUITES}")
    entries = load_catalog(config.catalog_path)
    ws = _Workspace(entries)
    report = VerificationReport(
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        config=config.as_dict(),
    )
    for name in config.suites:
        report.records.extend(_SUITE_FUNCTIONS[name](ws, config))
    return report
