"""The bundled group catalog and its loader.

Catalog lines read ``name;degree;comma-separated cycles;expected_order``,
with ``#`` comments. Each line's generators are parsed once, on load; with
verification on, every entry's group is built and checked against its
expected order.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .groups import PermutationGroup
from .perm import Permutation, parse_permutation_list


class CatalogError(ValueError):
    """A catalog line failed to parse or verify; carries the line number."""


@dataclass(frozen=True)
class GroupCatalogEntry:
    name: str
    degree: int
    generators: tuple[Permutation, ...]
    expected_order: int

    def build(self) -> PermutationGroup:
        gens = [g for g in self.generators if not g.is_identity()]
        group = PermutationGroup(gens, self.degree)
        if group.order != self.expected_order:
            raise CatalogError(
                f"entry {self.name!r}: built order {group.order}, "
                f"expected {self.expected_order}")
        return group


def parse_catalog(text: str) -> list[GroupCatalogEntry]:
    entries = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) != 4:
            raise CatalogError(f"line {lineno}: expected 4 ';'-separated fields")
        name, degree_s, gens_s, order_s = (p.strip() for p in parts)
        try:
            degree = int(degree_s)
            expected = int(order_s)
        except ValueError:
            raise CatalogError(f"line {lineno}: degree and order must be integers") from None
        if not name:
            raise CatalogError(f"line {lineno}: empty name")
        if not 1 <= degree <= 255:
            raise CatalogError(f"line {lineno}: degree {degree} outside 1..255")
        if expected < 1:
            raise CatalogError(f"line {lineno}: expected order {expected} below 1")
        if name in names:
            raise CatalogError(f"line {lineno}: duplicate name {name!r}")
        names.add(name)
        try:
            gens = tuple(parse_permutation_list(gens_s, degree))
        except ValueError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from None
        entries.append(GroupCatalogEntry(name, degree, gens, expected))
    return entries


def load_catalog(path: str | Path | None = None,
                 verify: bool = True) -> list[GroupCatalogEntry]:
    """Parse a catalog file (the bundled one by default).

    With ``verify`` set, every entry is built and its order checked.
    """
    if path is None:
        text = resources.files("cosetposets").joinpath("data/catalog.txt").read_text()
    else:
        text = Path(path).read_text()
    entries = parse_catalog(text)
    if verify:
        for entry in entries:
            entry.build()
    return entries


def catalog_group(name: str, path: str | Path | None = None) -> PermutationGroup:
    for entry in load_catalog(path, verify=False):
        if entry.name == name:
            return entry.build()
    raise KeyError(f"no catalog entry named {name!r}")
