"""Per-layer attribution of a cProfile run over the library's modules.

The layers are the modules of ``src/cosetposets``. A Python function's own
time goes to the module that defines it; time in a C builtin (for example
``bytes.translate``) goes to the module of the function that called it.
"""

from __future__ import annotations

import ast
import pstats
from pathlib import Path

LAYERS = ("perm", "groups", "lattice", "posets", "cosets", "complexes", "zeta",
          "generation", "a7", "catalog")
# layers whose work is set-up work: load_catalog and the catalog group builds
SETUP_LAYERS = ("catalog",)

# metric name -> (layer, function name); the metric counts calls to it
HELPER_CALLS = {
    "perm.mul_calls": ("perm", "_mul_bytes"),
    "perm.inv_calls": ("perm", "_inv_bytes"),
    "groups.chain_builds": ("groups", "_build_chain"),
    "groups.sifts": ("groups", "_strip"),
    "groups.enumerations": ("groups", "element_bytes"),
    "lattice.span_calls": ("lattice", "_span"),
    "catalog.groups_built": ("catalog", "build"),
}

# metric name -> ((layer, function), (caller layer, caller function)); the
# metric counts calls to the function made directly by that caller
EDGE_CALLS = {
    # generation tests the tuple oracle really makes, after its memoisation
    "zeta.oracle_tuples": (("groups", "_generated_order"),
                           ("zeta", "brute_force_generation_probability")),
    # subgroup closures built by the overgroup census (intermediate_subgroups,
    # called only by a7 in the subgroups workload)
    "a7.overgroups": (("groups", "_closure"), ("groups", "record_from")),
}

# metric name -> (layer, function name); the metric is that function's self time
HELPER_SELF = {
    "complexes.gf2_self_s": ("complexes", "rank_gf2"),
    "complexes.gfp_self_s": ("complexes", "rank_gfp"),
}


def defined_functions(module_file: Path) -> set[str]:
    """Names of every function and method defined in a module file."""
    if not module_file.is_file():
        return set()
    tree = ast.parse(module_file.read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def src_lines(package_dir: Path) -> dict[str, int]:
    return {layer: len((package_dir / f"{layer}.py").read_text().splitlines())
            for layer in LAYERS if (package_dir / f"{layer}.py").is_file()}


def _is_public(name: str) -> bool:
    return not name.startswith(("_", "<")) or (name.startswith("__") and name.endswith("__"))


def attribute(profile, package_dir: Path) -> tuple[dict, list[str]]:
    """Per-layer self time and calls, and the named helper metrics.

    Returns (metrics, absent): a helper no longer defined in its module is
    listed in ``absent`` and left out of ``metrics`` rather than read as 0.
    """
    package_dir = package_dir.resolve()

    def layer_of(filename: str) -> str | None:
        path = Path(filename)
        if path.parent == package_dir and path.stem in LAYERS:
            return path.stem
        return None

    stats = pstats.Stats(profile).stats
    # own time of each function, plus the builtins it called
    func_self: dict[tuple, float] = {}
    for func, (_, _, tt, _, callers) in stats.items():
        if func[0] == "~":
            for caller, edge in callers.items():
                func_self[caller] = func_self.get(caller, 0.0) + edge[2]
        else:
            func_self[func] = func_self.get(func, 0.0) + tt

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, t in func_self.items():
        layer = layer_of(func[0])
        if layer:
            self_s[layer] += t

    calls = dict.fromkeys(LAYERS, 0)
    helper_calls: dict[tuple[str, str], int] = {}
    helper_self: dict[tuple[str, str], float] = {}
    edge_calls: dict[tuple, int] = {}
    for func, (_, nc, _, _, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is None:
            continue
        key = (layer, func[2])
        helper_calls[key] = helper_calls.get(key, 0) + nc
        helper_self[key] = helper_self.get(key, 0.0) + func_self.get(func, 0.0)
        for caller, edge in callers.items():
            edge_key = (key, (layer_of(caller[0]), caller[2]))
            edge_calls[edge_key] = edge_calls.get(edge_key, 0) + edge[0]
        if _is_public(func[2]):
            calls[layer] += sum(edge[0] for caller, edge in callers.items()
                                if layer_of(caller[0]) != layer)

    metrics: dict[str, float] = {}
    absent = []
    for layer in LAYERS:
        if (package_dir / f"{layer}.py").is_file():
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.calls"] = calls[layer]
        else:
            absent += [f"{layer}.self_s", f"{layer}.calls"]
    defined = {layer: defined_functions(package_dir / f"{layer}.py") for layer in LAYERS}
    for table, found in ((HELPER_CALLS, helper_calls), (HELPER_SELF, helper_self)):
        for metric, (layer, fn) in table.items():
            if fn in defined[layer]:
                metrics[metric] = found.get((layer, fn), 0)
            else:
                absent.append(metric)
    for metric, edge in EDGE_CALLS.items():
        if all(fn in defined[layer] for layer, fn in edge):
            metrics[metric] = edge_calls.get(edge, 0)
        else:
            absent.append(metric)
    return metrics, absent


def by_phase(setup: dict, passed: dict) -> dict:
    """Metrics of the setup-only layer (catalog) from the set-up phase, the
    rest from the pass, so that set-up work never reads as pass work."""
    out = {k: v for k, v in passed.items() if k.partition(".")[0] not in SETUP_LAYERS}
    out.update((k, v) for k, v in setup.items() if k.partition(".")[0] in SETUP_LAYERS)
    return out
