"""Order complexes, joins, and reduced homology over prime fields.

All complexes are augmented: the empty face sits in dimension -1, so the
one-face complex {0} (written {emptyset}) has Betti number 1 in dimension
-1 and is not acyclic. Boundary ranks come from one top-down reduction with
clearing: int-bitset rows over GF(2), sparse {column: value} rows over odd
primes, built by face position and streamed into the rank kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter, lshift, or_
from typing import Iterable, Iterator, Mapping

from .groups import BudgetExceededError, _is_prime
from .posets import FinitePoset

FACE_BUDGET = 10**6


def _as_poset(p) -> FinitePoset:
    return p.poset if hasattr(p, "poset") else p


class SimplicialComplex:
    """Faces by dimension; dimension -1 holds exactly the empty face."""

    def __init__(self, faces_by_dimension: Mapping[int, list[tuple[int, ...]]],
                 n_vertices: int):
        self.faces: dict[int, list[tuple[int, ...]]] = {-1: [()]}
        for k, faces in faces_by_dimension.items():
            if k == -1:
                continue
            if faces:
                self.faces[k] = sorted(faces)
        self.n_vertices = n_vertices

    @property
    def dimension(self) -> int:
        return max(self.faces)

    def f_vector(self) -> list[int]:
        """Face counts from dimension -1 upward."""
        return [len(self.faces.get(k, ())) for k in range(-1, self.dimension + 1)]

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.faces == other.faces

    def __repr__(self) -> str:
        return f"<complex f={self.f_vector()}>"


def check_face_budget(faces: int) -> None:
    """Raise BudgetExceededError for an order complex past FACE_BUDGET
    nonempty faces."""
    if faces > FACE_BUDGET:
        raise BudgetExceededError(
            f"the order complex has {faces} nonempty faces, over the face budget {FACE_BUDGET}")


def order_complex(poset) -> SimplicialComplex:
    """All chains of a poset, as faces; the empty poset yields {emptyset}.
    Past FACE_BUDGET chains, counted first, it builds no face and raises."""
    p = _as_poset(poset)
    check_face_budget(sum(p.chain_counts()))
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    faces = [(v,) for v in range(p.n)]
    while faces:  # each chain extended by every element above its top
        by_dim[len(faces[0]) - 1] = faces
        faces = [c + (w,) for c in faces for w in p.above[c[-1]]]
    return SimplicialComplex(by_dim, p.n)


def poset_f_vector(poset) -> list[int]:
    """f-vector of the order complex, counted without materializing faces."""
    p = _as_poset(poset)
    return [1] + p.chain_counts()


def poset_reduced_euler_characteristic(poset) -> int:
    chi = 0
    for k, f in enumerate(poset_f_vector(poset)):
        chi += f if (k - 1) % 2 == 0 else -f
    return chi


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Join X * Y: unions of a face of X and a (reindexed) face of Y."""
    shift = X.n_vertices
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for i, xfaces in X.faces.items():
        for j, yfaces in Y.faces.items():
            k = i + j + 1
            if k == -1:
                continue
            acc = by_dim.setdefault(k, [])
            for s in xfaces:
                for t in yfaces:
                    acc.append(s + tuple(v + shift for v in t))
    return SimplicialComplex(by_dim, X.n_vertices + Y.n_vertices)


def reduced_euler_characteristic(X: SimplicialComplex) -> int:
    """Alternating face-count sum from dimension -1: -1 + f0 - f1 + ..."""
    chi = 0
    for k, faces in X.faces.items():
        chi += len(faces) if k % 2 == 0 else -len(faces)
    return chi


def rank_gf2(rows: Iterable[int]) -> set[int]:
    """Pivot columns of rows given as int bitsets, reduced over GF(2).

    A row's pivot is its highest set bit; the number of pivots is the rank.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            bit = row.bit_length() - 1
            pivot = pivots.get(bit)
            if pivot is None:
                pivots[bit] = row
                break
            row ^= pivot
    return set(pivots)


def rank_gfp(rows: Iterable[dict[int, int]], p: int) -> set[int]:
    """Pivot columns of sparse rows {column: value}, reduced over GF(p).

    Values lie in 1..p-1 and each row is reduced in place. A row's pivot is
    its largest column; the number of pivots is the rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, p)
                for col in row:
                    row[col] = row[col] * inv % p
                pivots[lead] = row
                break
            c = row[lead]
            for col, y in pivot.items():
                x = (row.get(col, 0) - c * y) % p
                if x:
                    row[col] = x
                else:
                    row.pop(col, None)
    return set(pivots)


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over GF(prime); absent dimensions are zero."""
    prime: int
    values: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, prime: int, d: Mapping[int, int]) -> "BettiVector":
        return cls(prime, tuple(sorted((k, v) for k, v in d.items() if v)))

    def get(self, k: int) -> int:
        return dict(self.values).get(k, 0)

    def as_dict(self) -> dict[int, int]:
        return dict(self.values)

    def as_array(self) -> list[int]:
        """Betti numbers as a list indexed from dimension -1."""
        top = max((k for k, _ in self.values), default=-1)
        d = dict(self.values)
        return [d.get(k, 0) for k in range(-1, top + 1)]

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self) -> str:
        body = ", ".join(f"b{k}={v}" for k, v in self.values) or "0"
        return f"<Betti GF({self.prime}): {body}>"


def _boundary_rows(X: SimplicialComplex, k: int, p: int, cleared: set[int]) -> Iterator:
    """Rows of the boundary map C_k -> C_{k-1} over GF(p), one per k-face
    outside ``cleared`` (face indices), in face order: int bitsets at p = 2,
    ``{column: sign}`` dicts at odd p.

    The rows are built by face position: for each position i, one lookup
    stream yields, face by face, the index of the facet that omits i, and
    the k + 1 streams are combined into rows as they are consumed. Nothing
    is listed but the kept faces, so the rank kernels hold only their
    pivots. In dimension 0 every facet is the empty face, at index 0; in
    dimension 1 a facet is one vertex, looked up through the vertex index
    (vertex labels need not be 0..n-1).
    """
    faces = [f for j, f in enumerate(X.faces.get(k, [])) if j not in cleared]
    if k == 0:
        streams = [repeat(0, len(faces))]
    else:
        lower = X.faces[k - 1]
        if k == 1:
            lower = map(itemgetter(0), lower)
        index = dict(zip(lower, count())).__getitem__
        streams = [map(index, map(itemgetter(*(j for j in range(k + 1) if j != i)), faces))
                   for i in range(k + 1)]
    if p == 2:
        rows = map(lshift, repeat(1), streams[0])
        for stream in streams[1:]:
            rows = map(or_, rows, map(lshift, repeat(1), stream))
        return rows
    signs = (1, p - 1) * (k // 2 + 1)
    return map(dict, map(zip, zip(*streams), repeat(signs)))


def _boundary_ranks(X: SimplicialComplex, p: int) -> dict[int, int]:
    """rank of the boundary map C_k -> C_{k-1} for k = 0..dim.

    The maps are reduced from the top dimension down, on rows streamed by
    ``_boundary_rows`` into ``rank_gf2`` or ``rank_gfp``. Each pivot column
    of the reduced map from C_{k+1} is a k-face that leads a boundary, and a
    boundary is a cycle, so that face's row is a combination of the rows of
    lower k-faces. Those rows are skipped ("clearing", Chen and Kerber,
    2011), which leaves every rank unchanged.
    """
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for k in range(X.dimension, -1, -1):
        rows = _boundary_rows(X, k, p, cleared)
        cleared = rank_gf2(rows) if p == 2 else rank_gfp(rows, p)
        ranks[k] = len(cleared)
    return ranks


def reduced_betti(X: SimplicialComplex, p: int) -> BettiVector:
    """Reduced Betti numbers of the augmented chain complex over GF(p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    ranks = _boundary_ranks(X, p)
    out: dict[int, int] = {}
    for k in range(-1, X.dimension + 1):
        f_k = len(X.faces.get(k, ()))
        out[k] = f_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return BettiVector.from_dict(p, out)


def is_acyclic(X: SimplicialComplex, p: int) -> bool:
    return reduced_betti(X, p).is_zero()


def kunneth_join_betti(bX: BettiVector, bY: BettiVector) -> BettiVector:
    """Betti vector of a join from the factors: convolution shifted by one."""
    if bX.prime != bY.prime:
        raise ValueError("Betti vectors over different fields")
    out: dict[int, int] = {}
    for i, a in bX.values:
        for j, b in bY.values:
            k = i + j + 1
            out[k] = out.get(k, 0) + a * b
    return BettiVector.from_dict(bX.prime, out)
