"""Permutations of {1..n} with cycle-notation I/O.

Composition is a right action throughout the package: ``p * q`` applies
``p`` first, then ``q``, so that conjugation ``p ** g == g.inverse() * p * g``
matches the usual exponent notation and cosets are right cosets.
Points are 1-based in cycle notation and 0-based internally.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

_ID256 = bytes(range(256))

_CYCLE_RE = re.compile(r"\(\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\)")


def _check_degree(degree: int) -> None:
    # image tables are bytes, so points stop at 255; check before allocating
    if degree > 255:
        raise ValueError(f"degree {degree} exceeds the maximum 255")
    if degree < 1:
        raise ValueError(f"degree {degree} is below the minimum 1")


def _mul_bytes(p: bytes, q: bytes) -> bytes:
    # apply p, then q; q padded to the 256-entry table translate() expects
    return p.translate(q + _ID256[len(q):])


def _inv_bytes(p: bytes) -> bytes:
    # the table that sends p[i] to i; entries past len(p) are the identity's
    return bytes.maketrans(p, _ID256[:len(p)])[:len(p)]


def _conj_bytes(x: bytes, g: bytes) -> bytes:
    # x^g = g^-1 x g, the one conjugation formula on image tables
    return _mul_bytes(_mul_bytes(_inv_bytes(g), x), g)


class Permutation:
    """A bijection of {1..degree}, stored as an image table."""

    __slots__ = ("_b",)

    def __init__(self, images: Sequence[int]):
        b = bytes(images)
        _check_degree(len(b))
        if sorted(b) != list(range(len(b))):
            raise ValueError("images are not a bijection of 0..degree-1")
        self._b = b

    @classmethod
    def _from_bytes(cls, b: bytes) -> "Permutation":
        p = object.__new__(cls)
        p._b = b
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        _check_degree(degree)
        return cls._from_bytes(_ID256[:degree])

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build from disjoint 1-based cycles, e.g. [(1, 2, 3), (4, 5)]."""
        _check_degree(degree)
        cycle_list = [tuple(c) for c in cycles]
        seen = [False] * degree
        for cycle in cycle_list:
            for c in cycle:
                if c < 1 or c > degree:
                    raise ValueError(f"cycle {cycle} out of range for degree {degree}")
                if seen[c - 1]:
                    raise ValueError(f"cycles are not disjoint at point {c}")
                seen[c - 1] = True
        images = list(range(degree))
        for cycle in cycle_list:
            pts = [c - 1 for c in cycle]
            for a, b in zip(pts, pts[1:]):
                images[a] = b
            if pts:
                images[pts[-1]] = pts[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self._b)

    @property
    def images(self) -> tuple[int, ...]:
        """Image of point i+1 is images[i]+1."""
        return tuple(self._b)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self._b[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self._b) != len(other._b):
            raise ValueError("degree mismatch")
        return Permutation._from_bytes(_mul_bytes(self._b, other._b))

    def inverse(self) -> "Permutation":
        return Permutation._from_bytes(_inv_bytes(self._b))

    def __pow__(self, g):
        if isinstance(g, Permutation):
            return Permutation._from_bytes(_conj_bytes(self._b, g._b))
        if isinstance(g, int):
            if g < 0:
                return self.inverse() ** (-g)
            out = _ID256[: len(self._b)]
            b = self._b
            while g:
                if g & 1:
                    out = _mul_bytes(out, b)
                b = _mul_bytes(b, b)
                g >>= 1
            return Permutation._from_bytes(out)
        return NotImplemented

    def is_identity(self) -> bool:
        return self._b == _ID256[: len(self._b)]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points, each starting at its minimum."""
        out = []
        seen = [False] * len(self._b)
        for i in range(len(self._b)):
            if seen[i] or self._b[i] == i:
                continue
            cyc = [i]
            j = self._b[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self._b[j]
            out.append(tuple(c + 1 for c in cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order, fixed points omitted."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def sign(self) -> int:
        s = 1
        for c in self.cycles():
            if len(c) % 2 == 0:
                s = -s
        return s

    def order(self) -> int:
        from math import lcm

        return lcm(1, *(len(c) for c in self.cycles()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, x in enumerate(self._b) if x == i)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def __repr__(self) -> str:
        return f"Permutation.parse({cycle_string(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return cycle_string(self)

    @staticmethod
    def parse(text: str, degree: int | None = None) -> "Permutation":
        return parse_permutation(text, degree)


def cycle_string(p: Permutation) -> str:
    """Cycle notation like "(1,2,3)(4,5)"; the identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def _strip_whitespace(text: str) -> str:
    """text without its whitespace, refused where whitespace separates two
    digits: "(1 2)" would otherwise read as the point 12."""
    if re.search(r"\d\s+\d", text):
        raise ValueError(f"points separated by whitespace in {text!r}; "
                         "separate points with commas, as in (1,2)")
    return re.sub(r"\s", "", text)


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation on 1-based points, ignoring whitespace except
    between two digits, where it is refused.

    Raises ValueError on malformed input (unbalanced parens, stray tokens).
    """
    if degree is not None:
        _check_degree(degree)
    stripped = _strip_whitespace(text)
    cycles: list[tuple[int, ...]] = []
    pos = 0
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ValueError(f"could not parse permutation {text!r} at offset {pos}")
        body = m.group(1)
        if body:
            cycles.append(tuple(int(t) for t in body.split(",")))
        pos = m.end()
    maxpt = max((max(c) for c in cycles), default=1)
    if maxpt > 255:
        raise ValueError(f"point {maxpt} exceeds the maximum degree 255 in {text!r}")
    if degree is None:
        degree = maxpt
    elif maxpt > degree:
        raise ValueError(f"point {maxpt} exceeds degree {degree} in {text!r}")
    return Permutation.from_cycles(cycles, degree)


def parse_permutation_list(text: str, degree: int | None = None) -> list[Permutation]:
    """Parse a comma-separated list of cycle-notation permutations.

    A comma at cycle boundary level separates entries, so
    "(1,2,3)(4,5),(1,2)" is two permutations. Each is parsed at ``degree``
    when it is given; all results share one degree.
    """
    stripped = _strip_whitespace(text)
    if not stripped:
        return []
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(stripped):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(stripped[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced '(' in {text!r}")
    parts.append(stripped[start:])
    if any(not part for part in parts):
        raise ValueError(f"empty entry in permutation list {text!r}")
    perms = [parse_permutation(part, degree) for part in parts]
    n = max(p.degree for p in perms)
    return [extend_degree(p, n) for p in perms]


def extend_degree(p: Permutation, degree: int) -> Permutation:
    """Reinterpret p on a larger point set, fixing the new points."""
    if degree < p.degree:
        raise ValueError(f"cannot shrink degree {p.degree} to {degree}")
    _check_degree(degree)
    if degree == p.degree:
        return p
    return Permutation._from_bytes(p._b + _ID256[p.degree: degree])
