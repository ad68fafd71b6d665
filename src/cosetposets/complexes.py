"""Order complexes, their reduced homology over prime fields, and the
Kunneth formula for the homology of a join.

All complexes are augmented: the empty face sits in dimension -1, so the
one-face complex {0} (written {emptyset}) has Betti number 1 in dimension
-1 and is not acyclic. Boundary ranks come from one top-down reduction with
clearing: int-bitset rows over GF(2), sparse {column: value} rows over odd
primes, streamed into the rank kernels.

A complex given by its faces (``SimplicialComplex``, the order complex of
any poset but a coset poset) builds its rows by face position, one facet
lookup per face and position. The order complex of a coset poset
(``CosetComplex``) stores no face tuple. A face H0x < ... < Hkx is fixed by
its subgroup chain and the coset H0x, so dimension k is one block of
[G : H0] faces per chain H0 < ... < Hk, in the order of H0's cosets, and
each facet of face t but the one that drops H0 is face t of its own block.
A GF(2) row is then one shifted mask, S << t, and one more bit for the
H1-coset of H0x.

The blocks follow their chains from the largest subgroup down, in
decreasing lexicographic order, so a row's pivot, its highest column, is
the facet that drops the chain's largest subgroup. Over the catalog's C(G)
and C(G, N) of order 2..60 the GF(2) reduction then makes 95,880 XORs,
against 199,494 with the chains in increasing order and 184,693 on the face
tuples (C(A5): 29,440, 85,074 and 71,994).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import add, itemgetter, lshift, or_
from typing import Iterable, Iterator, Mapping

from .cosets import CosetPoset, subgroup_chain_poset
from .groups import BudgetExceededError, _is_prime
from .posets import FinitePoset

FACE_BUDGET = 10**6


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

    def _boundary_rows(self, k: int, p: int, cleared: set[int]) -> Iterator:
        """Rows of the boundary map C_k -> C_{k-1} over GF(p), one per k-face
        outside ``cleared`` (face indices), in face order: int bitsets at
        p = 2, ``{column: sign}`` dicts at odd p.

        The rows are built by face position: for each position i, one lookup
        stream yields, face by face, the index of the facet that omits i, and
        the k + 1 streams are combined into rows as they are consumed.
        Nothing is listed but the kept faces, so the rank kernels hold only
        their pivots. In dimension 0 every facet is the empty face, at index
        0; in dimension 1 a facet is one vertex, looked up through the vertex
        index (vertex labels need not be 0..n-1).
        """
        faces = [f for j, f in enumerate(self.faces.get(k, [])) if j not in cleared]
        if k == 0:
            streams = [repeat(0, len(faces))]
        else:
            lower = self.faces[k - 1]
            if k == 1:
                lower = map(itemgetter(0), lower)
            index = dict(zip(lower, count())).__getitem__
            streams = [map(index, map(itemgetter(*(j for j in range(k + 1) if j != i)), faces))
                       for i in range(k + 1)]
        return _combine(streams, k, p)


class CosetComplex(SimplicialComplex):
    """The order complex of a coset poset, stored by blocks, with no face
    tuple until ``faces`` is read.

    A k-face H0x < ... < Hkx is fixed by its subgroup chain H0 < ... < Hk
    and by the coset H0x. ``blocks[k]`` maps each chain, a tuple of
    positions in ``poset.subgroup_ids``, to the offset of its block: its
    ``block_size[H0]`` = [G : H0] faces, in the order of H0's cosets. The
    face count is checked against FACE_BUDGET before any block is made.
    """

    def __init__(self, poset: CosetPoset):
        subgroups, block_size = subgroup_chain_poset(poset.lattice, poset.subgroup_ids)
        self._counts = subgroups.chain_counts(block_size)
        check_face_budget(sum(self._counts))
        self.poset = poset
        self.n_vertices = poset.n
        self.block_size = block_size
        # each subgroup's coset representatives (least elements) in vertex
        # order, and the position among them of each representative
        self._reps = [[r for _, r in vs] for _, vs in groupby(poset.vertices, itemgetter(0))]
        self._coset_number = [dict(zip(reps, count())).__getitem__ for reps in self._reps]
        self._coset_rep = [poset.coset_rep[h].__getitem__ for h in poset.subgroup_ids]
        self.blocks: list[dict[tuple[int, ...], int]] = []
        chains = [(h,) for h in reversed(range(subgroups.n))]
        while chains:  # in decreasing lexicographic order; the module docstring says why
            self.blocks.append(dict(zip(chains, accumulate(
                (block_size[c[0]] for c in chains), initial=0))))
            chains = [c + (h,) for c in chains for h in reversed(subgroups.above[c[-1]])]

    @property
    def dimension(self) -> int:
        return len(self._counts) - 1

    def f_vector(self) -> list[int]:
        return [1] + self._counts

    @cached_property
    def faces(self) -> dict[int, list[tuple[int, ...]]]:
        """The faces as sorted vertex tuples, built on first read."""
        vertex = self.poset.vertex_index.__getitem__
        ids = self.poset.subgroup_ids
        by_dim = {k: [face for c in blocks for face in zip(*(
            map(vertex, zip(repeat(ids[h]), map(self._coset_rep[h], self._reps[c[0]])))
            for h in c))] for k, blocks in enumerate(self.blocks)}
        return SimplicialComplex(by_dim, self.n_vertices).faces

    def _boundary_rows(self, k: int, p: int, cleared: set[int]) -> Iterator:
        """The rows of ``SimplicialComplex._boundary_rows``, in block order.

        Face t of the block of H0 < ... < Hk has, for each i >= 1, the facet
        that drops Hi at t in the block of the shorter chain, and the facet
        that drops H0 at proj[t], the position of the H1-coset of H0x, found
        through ``coset_rep``, in the block of H1 < ... < Hk, at offset q. So
        over GF(2) the row is (S << t) | (1 << (q + proj[t])), with S the OR
        of 1 << offset over the blocks of the i >= 1 facets.
        """
        keep = bytearray(b"\x01") * self._counts[k]
        for j in cleared:
            keep[j] = 0
        lower = self.blocks[k - 1] if k else {(): 0}  # the empty face, at 0
        rows = []
        for c, o in self.blocks[k].items():
            m = self.block_size[c[0]]
            kept = keep[o:o + m]
            if 1 not in kept:  # cleared whole, as blocks often are
                continue
            ts = compress(range(m), kept)
            if k:
                reps = compress(self._reps[c[0]], kept)
                proj = map(self._coset_number[c[1]], map(self._coset_rep[c[1]], reps))
            else:
                proj = compress(repeat(0, m), kept)
            q = lower[c[1:]]
            offsets = [lower[c[:i] + c[i + 1:]] for i in range(1, k + 1)]
            if p == 2:
                S = sum(map(lshift, repeat(1), offsets))
                rows.append(map(or_, map(lshift, repeat(S), ts),
                                map(lshift, repeat(1 << q), proj)))
            else:
                ts = list(ts)
                rows.append(_combine([map(add, repeat(q), proj)]
                                     + [map(add, repeat(f), ts) for f in offsets], k, p))
        return chain.from_iterable(rows)


def check_face_budget(faces: int) -> None:
    """Raise BudgetExceededError for an order complex past FACE_BUDGET
    nonempty faces."""
    if faces > FACE_BUDGET:
        raise BudgetExceededError(
            f"the order complex has {faces} nonempty faces, over the face budget {FACE_BUDGET}")


def order_complex(poset: FinitePoset) -> SimplicialComplex:
    """All chains of a poset, as faces; the empty poset yields {emptyset}.
    Past FACE_BUDGET chains, counted first, it builds no face and raises.

    A coset poset gives a ``CosetComplex``, counted by its subgroup chains;
    any other poset gives its chains as sorted tuples.
    """
    if isinstance(poset, CosetPoset):
        return CosetComplex(poset)
    check_face_budget(sum(poset.chain_counts()))
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    faces = [(v,) for v in range(poset.n)]
    while faces:  # each chain extended by every element above its top
        by_dim[len(faces[0]) - 1] = faces
        faces = [c + (w,) for c in faces for w in poset.above[c[-1]]]
    return SimplicialComplex(by_dim, poset.n)


def poset_f_vector(poset: FinitePoset) -> list[int]:
    """f-vector of the order complex, counted without materializing faces."""
    return [1] + poset.chain_counts()


def poset_reduced_euler_characteristic(poset: FinitePoset) -> int:
    chi = 0
    for k, f in enumerate(poset_f_vector(poset)):
        chi += f if (k - 1) % 2 == 0 else -f
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


def _combine(streams: list[Iterator[int]], k: int, p: int) -> Iterator:
    """Rows of C_k -> C_{k-1} from k + 1 facet-index streams, stream i the
    facet that omits position i: int bitsets at p = 2, and at odd p
    ``{column: sign}`` dicts with sign (-1)^i."""
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
    the complex's ``_boundary_rows`` into ``rank_gf2`` or ``rank_gfp``. Each
    pivot column of the reduced map from C_{k+1} is a k-face that leads a
    boundary, and a boundary is a cycle, so that face's row is a combination
    of the rows of lower k-faces. Those rows are skipped ("clearing", Chen and Kerber,
    2011), which leaves every rank unchanged.
    """
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for k in range(X.dimension, -1, -1):
        rows = X._boundary_rows(k, p, cleared)
        cleared = rank_gf2(rows) if p == 2 else rank_gfp(rows, p)
        ranks[k] = len(cleared)
    return ranks


def reduced_betti(X: SimplicialComplex, p: int) -> BettiVector:
    """Reduced Betti numbers of the augmented chain complex over GF(p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    ranks = _boundary_ranks(X, p)
    out: dict[int, int] = {}
    for k, f_k in enumerate(X.f_vector(), -1):
        out[k] = f_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return BettiVector.from_dict(p, out)


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
