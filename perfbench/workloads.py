"""The benchmark's workloads: seeded inputs, one pass of work, and its checks.

A workload is a setup step, which builds the labelled input groups, and a
list of items. Each item calls the library's public functions, records its
outputs under stable keys and bumps layer counters. Outputs are compared
with ``pinned.json`` key by key; a missing or different value is a failed
check. Each item is also one check that it ran without raising; an item
that raised never stops the pass.

Every pinned value is invariant under relabelling the points of a group, so
the same pins hold for every seed. Label-dependent lists (minimal normal
subgroups, fixed cosets) are sorted before comparison, i.e. compared as
multisets.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import cosetposets as cp
from cosetposets import a7

PINNED_PATH = Path(__file__).with_name("pinned.json")

ALTGEN_DEGREES = (7, 8, 9)
FPF_DEGREES = (7, 9, 10, 12)
SUBGROUP_GROUPS = ("S4", "A5", "S5", "PSL(2,7)", "A6")
HOMOLOGY_MAX_ORDER = 60
GF3_MAX_ORDER = 24
# (group, generators of a normal subgroup N in catalog labelling); the same
# pairs as the suite's, fixed here so the workload cannot drift with it
JOIN_PAIRS = (
    ("S3", "(1,2,3)"),
    ("C4", "(1,3)(2,4)"),
    ("S4", "(1,2)(3,4),(1,3)(2,4)"),
    ("Q8", "(1,3)(2,4)(5,7)(6,8)"),
    ("C6", "(1,3,5)(2,4,6)"),
)


class Spans:
    """Spans around the benchmark's calls into the library's layers.

    A call's layer is the module that defines the function called. With
    recording off, ``call`` is a plain call. Spans stay in memory as
    (name, start, end, parent) with times in seconds from creation and
    parent the index of the enclosing span, or -1.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[list] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.records)
        self.records.append([name, time.perf_counter() - self._t0, None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[idx][2] = time.perf_counter() - self._t0

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = fn.__module__.rpartition(".")[2]
        with self.span(f"{layer}.{fn.__qualname__}"):
            return fn(*args, **kwargs)

    def busy_by_layer(self) -> dict[str, float]:
        """Summed duration of the layer spans (item spans carry a ':')."""
        busy: dict[str, float] = {}
        for name, start, end, _ in self.records:
            if ":" not in name:
                layer = name.partition(".")[0]
                busy[layer] = busy.get(layer, 0.0) + (end - start)
        return busy


def relabelling(seed: int, degree: int) -> cp.Permutation:
    """The seeded relabelling of the points 1..degree; seed 0 is the identity."""
    images = list(range(degree))
    if seed:
        random.Random(f"{seed}:{degree}").shuffle(images)
    return cp.Permutation(images)


def setup(workload: str, seed: int, spans: Spans) -> dict:
    """Load the catalog and build the workload's input groups, relabelled by the seed."""
    entries = spans.call(cp.load_catalog)
    by_name = {e.name: e for e in entries}

    def relabelled(name: str) -> cp.PermutationGroup:
        entry = by_name[name]
        G = spans.call(entry.build)
        return spans.call(G.conjugate_by, relabelling(seed, entry.degree))

    inputs: dict = {}
    if workload == "subgroups":
        inputs["groups"] = {name: relabelled(name) for name in SUBGROUP_GROUPS}
    elif workload == "homology":
        names = [e.name for e in entries if 1 < e.expected_order <= HOMOLOGY_MAX_ORDER]
        inputs["groups"] = {name: relabelled(name) for name in names}
        inputs["gf3"] = [e.name for e in entries
                         if e.expected_order <= GF3_MAX_ORDER and e.expected_order % 3 == 0]
        joins = []
        for name, normal_text in JOIN_PAIRS:
            G = inputs["groups"][name]
            sigma = relabelling(seed, G.degree)
            N = spans.call(cp.PermutationGroup,
                           spans.call(cp.parse_permutation_list, normal_text, G.degree),
                           G.degree)
            joins.append((name, G, spans.call(N.conjugate_by, sigma)))
        inputs["joins"] = joins
    elif workload != "altgen":
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(ITEMS)}")
    return inputs


def _canonical(value):
    """JSON-shaped value: tuples become lists, so outputs compare with pins."""
    return json.loads(json.dumps(value))


def _lattice(G, spans, counters):
    lat = spans.call(cp.enumerate_subgroups, G)
    counters["lattice.subgroups"] += len(lat)
    return lat


# -- altgen ---------------------------------------------------------------

def _altgen_items(inputs, spans, counters):
    def sweep(n):
        def item(out):
            report = spans.call(cp.check_alternating_claims, n)
            counters["generation.sweep_tests"] += report.tests
            out[f"A{n}.verdict"] = report.verdict
            # re-check each witness: <c, P> is the proper subgroup it claims.
            # Which witnesses are reported, and how many, is up to the sweep;
            # the distinct orders of the subgroups they generate are not.
            P = spans.call(cp.sylow_subgroup, spans.call(cp.alternating_group, n), 2)
            orders, rechecked = set(), True
            for w in report.witnesses:
                c = spans.call(cp.parse_permutation, w["cycle"], n)
                got = spans.call(cp.generated_order, [c, *P.generators], n)
                rechecked &= got == w["generated_order"] and 2 * got < math.factorial(n)
                orders.add(got)
            out[f"A{n}.witness_order_set"] = sorted(orders)
            out[f"A{n}.witnesses_rechecked"] = rechecked
        return item

    def fpf(out):
        # which element is found first depends on element order; that one
        # exists, and is an even fixed-point-free element of P, does not
        for n in FPF_DEGREES:
            w = spans.call(cp.sylow2_fixed_point_free_element, n)
            if w is None:
                out[f"fpf.n{n}"] = {"exists": False}
                continue
            P = spans.call(cp.sylow_subgroup, spans.call(cp.alternating_group, n), 2)
            ok = not w.fixed_points() and w.sign() == 1 and spans.call(P.contains, w)
            out[f"fpf.n{n}"] = {"exists": True, "rechecked": ok}

    return [(f"A{n} sweep", sweep(n)) for n in ALTGEN_DEGREES] + [("fpf", fpf)]


# -- subgroups ------------------------------------------------------------

def _subgroups_items(inputs, spans, counters):
    def lattice_item(name, G):
        def item(out):
            lat = _lattice(G, spans, counters)
            mu = spans.call(cp.moebius_to_top, lat)
            poly = spans.call(cp.hall_polynomial, lat, mu)
            out[f"{name}.subgroups"] = len(lat)
            out[f"{name}.hall_polynomial"] = sorted(poly.as_dict().items())
            out[f"{name}.P(-1)"] = str(spans.call(cp.evaluate, poly, -1))
            for k in (1, 2):
                oracle = spans.call(cp.brute_force_generation_probability, G, k)
                out[f"{name}.P({k})"] = str(oracle)
                out[f"{name}.oracle_k{k}_matches"] = oracle == spans.call(cp.evaluate, poly, k)
        return item

    def census(out):
        env = spans.call(a7.build_environment)
        out["A7.phi_report"] = spans.call(a7.check_phi_properties, env)
        out["A7.overgroups_of_P"] = len(spans.call(a7.overgroups_of_sylow2, env))
        pgls = spans.call(a7.pgl_overgroups, env)
        out["A7.strong_generation"] = [
            spans.call(a7.check_pgl_strong_generation, env, rec) for rec in pgls]

    def smith(ambient):
        def item(out):
            spec = spans.call(a7.build_smith_spec, ambient)
            result = spans.call(a7.smith_fixed_point_check, spec)
            # a fixed coset is reported by a representative that depends on
            # element order; the orders of the subgroups H of the fixed
            # cosets Hx, and how many there are, do not
            for kind in ("translation_fixed", "fully_fixed"):
                out[f"C({ambient},A7).{kind}_orders"] = sorted(
                    order for order, _ in result[kind])
            out[f"C({ambient},A7).shape"] = result["shape"]
        return item

    def rho(t):
        def item(out):
            out[f"rho.t{t}"] = spans.call(a7.check_rho_on_power, t)
        return item

    items = [(f"lattice {name}", lattice_item(name, G))
             for name, G in inputs["groups"].items()]
    items.append(("A7 census", census))
    items += [(f"Smith C({amb},A7)", smith(amb)) for amb in ("A7", "S7")]
    items += [(f"rho t={t}", rho(t)) for t in (1, 2)]
    return items


# -- homology -------------------------------------------------------------

def _betti(poset, p, spans, counters):
    X = spans.call(cp.order_complex, poset)
    f = X.f_vector()  # from dimension -1: [1, vertices, edges, ...]
    counters["posets.relations"] += f[2] if len(f) > 2 else 0
    counters["complexes.faces"] += sum(f[1:])
    return spans.call(cp.reduced_betti, X, p), f


def _coset_poset(G, lat, spans, counters, N=None):
    if N is None:
        poset = spans.call(cp.build_coset_poset, G, lat)
    else:
        poset = spans.call(cp.build_relative_poset, G, N, lat)
    counters["cosets.vertices"] += len(poset)
    return poset


def _homology_items(inputs, spans, counters):
    groups = inputs["groups"]

    def gf2(name, G):
        def item(out):
            lat = _lattice(G, spans, counters)
            betti, f = _betti(_coset_poset(G, lat, spans, counters), 2, spans, counters)
            out[f"{name}.gf2"] = betti.as_array()
            out[f"{name}.f_vector"] = f
            relative = []
            for N in spans.call(cp.minimal_normal_subgroups, G):
                rel, _ = _betti(_coset_poset(G, lat, spans, counters, N), 2, spans, counters)
                relative.append([N.order, rel.as_array()])
            out[f"{name}.relative_gf2"] = sorted(relative)
        return item

    def join(name, G, N):
        def item(out):
            lat = _lattice(G, spans, counters)
            whole, _ = _betti(_coset_poset(G, lat, spans, counters), 2, spans, counters)
            rel, _ = _betti(_coset_poset(G, lat, spans, counters, N), 2, spans, counters)
            Q = spans.call(cp.quotient_representation, G, N).group
            qlat = _lattice(Q, spans, counters)
            quot, _ = _betti(_coset_poset(Q, qlat, spans, counters), 2, spans, counters)
            combined = spans.call(cp.kunneth_join_betti, quot, rel)
            out[f"join {name}"] = {"whole": whole.as_array(), "relative": rel.as_array(),
                                   "quotient": quot.as_array(),
                                   "kunneth_holds": combined == whole}
        return item

    def gf3(name, G):
        def item(out):
            lat = _lattice(G, spans, counters)
            betti, _ = _betti(_coset_poset(G, lat, spans, counters), 3, spans, counters)
            out[f"{name}.gf3"] = betti.as_array()
        return item

    items = [(f"GF(2) {name}", gf2(name, G)) for name, G in groups.items()]
    items += [(f"join {name}", join(name, G, N)) for name, G, N in inputs["joins"]]
    items += [(f"GF(3) {name}", gf3(name, groups[name])) for name in inputs["gf3"]]
    return items


ITEMS = {"altgen": _altgen_items, "subgroups": _subgroups_items,
         "homology": _homology_items}


def run_pass(workload: str, inputs: dict, spans: Spans, only=None):
    """Run every item of the workload (or those named in ``only``).

    Returns (outputs, counters, errors, items run); errors maps an item name
    to the exception it raised.
    """
    outputs: dict = {}
    counters: Counter = Counter()
    errors: dict[str, str] = {}
    ran = 0
    for name, item in ITEMS[workload](inputs, spans, counters):
        if only is not None and name not in only:
            continue
        ran += 1
        out: dict = {}
        with spans.span(f"item:{name}"):
            try:
                item(out)
            except Exception as exc:  # a failing item must not stop the pass
                errors[name] = f"{type(exc).__name__}: {exc}"
        outputs.update(_canonical(out))
    return outputs, counters, errors, ran


def load_pinned(workload: str) -> dict:
    return json.loads(PINNED_PATH.read_text())[workload]


def check(outputs: dict, pinned: dict, keys=None) -> list[str]:
    """Keys whose output is missing or differs from its pin."""
    keys = pinned if keys is None else keys
    return [k for k in keys if k not in outputs or outputs[k] != pinned.get(k)]
