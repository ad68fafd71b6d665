"""Verification suites over the group catalog, with JSON reports.

Each suite lists one (subject, check) pair per subject and ``run_suite``
records every check; a record failure (including an exception) is captured
and marks the run as failed without aborting it. Reports are deterministic
for a fixed configuration, up to the top-level timestamp.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from math import comb, factorial
from typing import NamedTuple

from . import a7 as a7mod
from .catalog import GroupCatalogEntry, load_catalog
from .complexes import (
    kunneth_join_betti,
    order_complex,
    poset_reduced_euler_characteristic,
    reduced_betti,
)
from .cosets import CosetPoset, build_coset_poset, build_relative_poset, fixed_cosets
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
from .lattice import LATTICE_ORDER_BOUND, SubgroupLattice, enumerate_subgroups, moebius_to_top
from .perm import parse_permutation_list
from .zeta import brute_force_generation_probability, evaluate, hall_polynomial

RECIPROCITY_ORDER_CAP = 120
HOMOLOGY_ORDER_CAP = 60

JOIN_PAIRS = (
    ("S3", "(1,2,3)"),
    ("C4", "(1,3)(2,4)"),
    ("S4", "(1,2)(3,4),(1,3)(2,4)"),
    ("Q8", "(1,3)(2,4)(5,7)(6,8)"),
    ("C6", "(1,3,5)(2,4,6)"),
)

ALTGEN_EXPECTED = {5: True, 6: True, 7: False, 8: False, 9: True, 10: True, 11: True}

# a suite lists (subject, check) pairs; a check returns (verdict, values, witnesses)
Checks = Iterator[tuple[str, Callable[[], tuple]]]


class _Workspace:
    """Per-run memo of shared builds, keyed by (kind, catalog name): each
    group, its subgroup lattice, its mu to the top and its coset poset is
    built once, on first read."""

    def __init__(self, entries: list[GroupCatalogEntry]):
        self.entries = entries
        self._built: dict[tuple[str, str], object] = {}

    def _memo(self, kind: str, name: str, build):
        if (kind, name) not in self._built:
            self._built[kind, name] = build()
        return self._built[kind, name]

    def group(self, name: str) -> PermutationGroup:
        entry = next((e for e in self.entries if e.name == name), None)
        if entry is None:
            raise KeyError(f"no catalog entry named {name!r}")
        return self._memo("group", name, entry.build)

    def lattice(self, name: str) -> SubgroupLattice:
        return self._memo("lattice", name, lambda: enumerate_subgroups(self.group(name)))

    def mu(self, name: str) -> tuple[int, ...]:
        return self._memo("mu", name, lambda: moebius_to_top(self.lattice(name)))

    def coset_poset(self, name: str) -> CosetPoset:
        return self._memo("coset_poset", name,
                          lambda: build_coset_poset(self.group(name), self.lattice(name)))


def _record(suite: str, subject: str, fn) -> dict:
    start = time.perf_counter()
    try:
        verdict, values, witnesses = fn()
    except Exception as exc:  # a failing record must not abort the run
        # KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        verdict, values, witnesses = False, {"error": f"{type(exc).__name__}: {message}"}, []
    return {
        "suite": suite,
        "subject": subject,
        "verdict": bool(verdict),
        "values": values,
        "witnesses": witnesses,
        "millis": (time.perf_counter() - start) * 1000,
    }


def _reciprocity_records(ws: _Workspace, config: SuiteConfig) -> Checks:
    cap = config.max_order or RECIPROCITY_ORDER_CAP
    for entry in ws.entries:
        if entry.expected_order > cap:
            continue

        def check(name=entry.name):
            poly = hall_polynomial(ws.lattice(name), ws.mu(name))
            poset = ws.coset_poset(name)
            chi = poset_reduced_euler_characteristic(poset)
            hat = poset.moebius_bottom_to_top()
            value = evaluate(poly, -1)
            ok = value == -chi and hat == chi
            values = {"chi": chi, "moebius_hat": hat, "p_at_minus_1": str(value),
                      "polynomial": dict(poly.coefficients)}
            return ok, values, []

        yield entry.name, check


def _homology_records(ws: _Workspace, config: SuiteConfig) -> Checks:
    cap = config.max_order or HOMOLOGY_ORDER_CAP
    p = config.prime
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
                rel = build_relative_poset(G, N, ws.lattice(name))
                rel_betti = reduced_betti(order_complex(rel), p)
                relative[f"N{i}_order_{N.order}"] = rel_betti.as_array()
                ok = ok and not rel_betti.is_zero()
            values["relative"] = relative
            return ok, values, []

        yield entry.name, check


def _join_records(ws: _Workspace, config: SuiteConfig) -> Checks:
    p = config.prime
    for name, normal_text in JOIN_PAIRS:

        def check(name=name, normal_text=normal_text):
            G = ws.group(name)
            N = PermutationGroup(parse_permutation_list(normal_text, G.degree), G.degree)
            whole = reduced_betti(order_complex(ws.coset_poset(name)), p)
            rel = reduced_betti(order_complex(build_relative_poset(G, N, ws.lattice(name))), p)
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

        yield f"{name} with |N|-factor", check


def _altgen_records(ws: _Workspace, config: SuiteConfig) -> Checks:
    degrees = [5, 6, 7, 8, 9] + ([10, 11] if config.slow else [])
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

        yield f"A_{n} long-cycle sweep", check

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

    yield "fixed-point-free Sylow-2 elements", fpf_check


def _a7_records(ws: _Workspace, config: SuiteConfig) -> Checks:
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
        return ok and strong, report, []

    yield "Sylow-2 overgroup structure and phi", census_check

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

        yield f"fixed points of the extended action on C({ambient}, A7)", smith_check

    for t in (1, 2):

        def rho_check(t=t):
            report = a7mod.check_rho_on_power(t)
            ok = (report["rho_order"] == 2 and report["factor_property_3"]
                  and report["normalizes_factors"] and report["normalizes_P_product"]
                  and report["normalizes_K"])
            return ok, report, []

        yield f"involution on the {t}-fold power of A7", rho_check


def _identities_records(ws: _Workspace, config: SuiteConfig) -> Checks:
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

    yield "block-system counting identity", parity_check

    lattice_cap = min(config.max_order or LATTICE_ORDER_BOUND, LATTICE_ORDER_BOUND)
    for entry in ws.entries:
        if entry.expected_order > lattice_cap:
            continue

        def oracle_check(name=entry.name):
            lat = ws.lattice(name)
            poly = hall_polynomial(lat, ws.mu(name))
            values = {}
            for k in (1, 2):
                expected = evaluate(poly, k)
                got = brute_force_generation_probability(lat.group, k)
                values[f"k={k}"] = str(got)
                if expected != got:
                    return False, values, [{"k": k, "formula": str(expected),
                                            "oracle": str(got)}]
            return True, values, []

        yield f"generation probability oracle: {entry.name}", oracle_check

    for entry in ws.entries:
        if entry.expected_order > lattice_cap or entry.expected_order < 2:
            continue

        def remark_check(name=entry.name):
            lat = ws.lattice(name)
            G = lat.group
            primes = [p for p in range(2, G.order + 1)
                      if G.order % p == 0 and _is_prime(p)]
            sylows = {r: sylow_subgroup(G, r) for r in primes}
            pairs = 0
            for p in primes:
                for r in primes:
                    direct = universally_p_generates(G, sylows[r], p).verdict
                    via_indices = univ_gen_via_maximal_indices(G, r, p, lat)
                    if direct != via_indices:
                        return False, {"p": p, "r": r}, []
                    pairs += 1
            return True, {"prime_pairs_checked": pairs}, []

        yield f"maximal-index criterion: {entry.name}", remark_check

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

    yield "diagonal universal generation for A5 powers", diagonal_check


_SUITE_FUNCTIONS = {
    "reciprocity": _reciprocity_records,
    "homology": _homology_records,
    "join": _join_records,
    "altgen": _altgen_records,
    "a7": _a7_records,
    "identities": _identities_records,
}

ALL_SUITES = tuple(_SUITE_FUNCTIONS)


class SuiteConfig(NamedTuple):
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


class VerificationReport:
    """A run's records, with the version, time and configuration they ran under."""

    def __init__(self, version: str, timestamp: str, config: dict,
                 records: list[dict] | None = None):
        self.version = version
        self.timestamp = timestamp
        self.config = config
        self.records = [] if records is None else records

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


def run_suite(config: SuiteConfig) -> VerificationReport:
    from . import __version__

    if not _is_prime(config.prime):
        raise ValueError(f"--prime must be prime, got {config.prime}")
    if config.max_order is not None and config.max_order < 1:
        raise ValueError(f"--max-order must be at least 1, got {config.max_order}")
    # a suite named twice runs once, in first-seen order
    config = config._replace(suites=tuple(dict.fromkeys(config.suites)))
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
        for subject, check in _SUITE_FUNCTIONS[name](ws, config):
            report.records.append(_record(name, subject, check))
    return report
