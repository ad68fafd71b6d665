"""Command-line frontend: verification suites and ad-hoc computations."""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import catalog_group
from .complexes import order_complex, reduced_betti
from .cosets import CosetPoset, proper_subgroup_ids, supplement_ids
from .groups import BudgetExceededError, PermutationGroup, _is_prime, is_normal_subgroup
from .lattice import enumerate_subgroups, lattice_dump, moebius_to_top
from .perm import parse_permutation_list
from .zeta import evaluate, hall_polynomial


def _add_group_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", help="catalog entry name")
    parser.add_argument("--gens", help="inline generators in cycle notation")
    parser.add_argument("--degree", type=int, help="degree for inline generators")
    parser.add_argument("--catalog", help="path to a catalog file")


def _resolve_group(args) -> PermutationGroup:
    if args.group:
        if args.degree is not None:  # refused before the catalog is read
            raise ValueError(f"--degree {args.degree} applies to --gens only, not to --group")
        if args.gens is not None:
            raise ValueError(f"--gens {args.gens!r} names a second group beside --group")
        return catalog_group(args.group, args.catalog)
    if args.gens:
        if args.catalog is not None:  # refused before the generators are parsed
            raise ValueError(f"--catalog {args.catalog} applies to --group only, not to --gens")
        if args.degree is not None and args.degree < 1:
            raise ValueError(f"--degree must be at least 1, got {args.degree}")
        gens = parse_permutation_list(args.gens, args.degree)
        if not gens:
            raise ValueError(f"--gens {args.gens!r} lists no generators")
        return PermutationGroup(gens, args.degree or gens[0].degree)
    raise ValueError("specify --group NAME or --gens CYCLES [--degree N]")


def _suite_name(name: str) -> str:
    """A ``--suite`` value, checked against ``suite.ALL_SUITES``. The suites
    load on first use, so a ``compute`` command never imports them."""
    from .suite import ALL_SUITES
    if name not in ALL_SUITES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(map(repr, ALL_SUITES))})")
    return name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cosetposets",
        description="Coset posets of finite groups: homology, generation "
                    "probabilities, and structure checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", type=_suite_name,
                        help="suite to run (repeatable; default: all)")
    verify.add_argument("--catalog", help="path to a catalog file")
    verify.add_argument("--max-order", type=int, default=None)
    verify.add_argument("--prime", type=int, default=2)
    verify.add_argument("--slow", action="store_true",
                        help="include the slow sweeps (the A_10 and A_11 claims)")
    verify.add_argument("--out", help="write the JSON report here")

    compute = sub.add_parser("compute", help="ad-hoc computations for one group")
    compute.add_argument("what", choices=["homology", "zeta", "poset", "lattice"])
    _add_group_args(compute)
    compute.add_argument("--prime", type=int, default=2)
    compute.add_argument("--relative-to",
                         help="generators of a normal subgroup; restricts the "
                              "poset to cosets Hx with HN = G")

    args = parser.parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout: end as a writer killed by SIGPIPE, and
        # point stdout at devnull so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, KeyError, OSError, BudgetExceededError) as exc:
        # KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"cosetposets: error: {message}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "verify":
        from .suite import ALL_SUITES, SuiteConfig, run_suite
        config = SuiteConfig(
            catalog_path=args.catalog,
            suites=tuple(args.suite) if args.suite else ALL_SUITES,
            max_order=args.max_order,
            prime=args.prime,
            slow=args.slow,
        )
        report = run_suite(config)
        for line in report.summary_lines():
            print(line)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report.to_json())
            print(f"report written to {args.out}")
        return 0 if report.overall == "pass" else 1

    if not _is_prime(args.prime):  # refused before the group is built
        raise ValueError(f"--prime must be prime, got {args.prime}")
    if args.what == "lattice" and args.relative_to is not None:
        raise ValueError(f"--relative-to {args.relative_to!r} does not apply to lattice")
    if args.relative_to is not None and not args.relative_to.strip():
        raise ValueError(f"--relative-to {args.relative_to!r} names no generators")
    G = _resolve_group(args)
    lat = enumerate_subgroups(G)
    if args.what == "lattice":
        print(lattice_dump(lat, moebius_to_top(lat)), end="")
        return 0
    if args.relative_to is not None:
        N = PermutationGroup(parse_permutation_list(args.relative_to, G.degree), G.degree)
        if not N.is_subgroup_of(G):
            raise ValueError(f"--relative-to {args.relative_to!r} is not a subgroup of the group")
        if not is_normal_subgroup(G, N):
            raise ValueError(f"--relative-to {args.relative_to!r} is not normal in the group")
        ids = supplement_ids(G, N, lat)
    else:
        ids = proper_subgroup_ids(lat)
    poset = CosetPoset(lat, ids)
    if args.what == "poset":
        print(poset.dump(), end="")
        return 0
    if args.what == "zeta":
        # the terms of G and of the subgroups whose cosets make the poset:
        # P_G, or with --relative-to Brown's P_{G,N}, so that P(-1) = -hat
        kept = {*ids, lat.index_of_parent}
        poly = hall_polynomial(lat, tuple(
            m if i in kept else 0 for i, m in enumerate(moebius_to_top(lat))))
        print("coefficients (index: value):")
        for n, a in poly.coefficients:
            print(f"  {n}: {a}")
        for k in (2, 1, 0, -1):
            print(f"P({k}) = {evaluate(poly, k)}")
        print(f"moebius-hat of the coset poset = {poset.moebius_bottom_to_top()}")
        return 0
    X = order_complex(poset)  # homology; past the face budget, refused before any labelling
    betti = reduced_betti(X, args.prime)
    print(f"f-vector (from dim -1): {X.f_vector()}")
    print(f"reduced Betti numbers over GF({args.prime}):")
    if betti.is_zero():
        print("  all zero (acyclic)")
    for k, v in betti.values:
        print(f"  dim {k}: {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
