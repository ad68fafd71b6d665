"""Order complexes, their reduced homology over prime fields, and the
Kunneth formula for the homology of a join.

All complexes are augmented: the empty face sits in dimension -1, so the
one-face complex {0} (written {emptyset}) has Betti number 1 in dimension
-1 and is not acyclic. Ranks come from the coboundary maps, reduced from
dimension -1 up with clearing: int-bitset rows over GF(2) up to
GF2_BITSET_COLUMNS columns, sparse {column: value} rows past it and over
odd primes. ``reduced_betti`` reduces the order complex of the poset's
beat-point core, which has the same Betti numbers and, on C(S5), 202,449 of
its 320,283 faces.

A row's pivot is read off its block; on the cores 85-92% are emergent (the
column is unclaimed) and keep their face alone, and a row is built only if
its pivot is taken or a later row meets it. At p = 2, C(S5) then peaks at
32 MB, C(PSL(2,7)) at 43 and C(A6) at 380, against 49, 79 and 738 with
every kept row built and stored. A stored bitset row costs its column span,
so GF2_BITSET_COLUMNS = 20,000 bounds n rows of n columns to n^2 / 8 = 50 MB.

The order complex of a coset poset (``CosetComplex``) stores no face
tuple: a face H0x < ... < Hkx is fixed by its subgroup chain and the coset
H0x, so dimension k is one block of [G : H0] faces per chain H0 < ... < Hk,
in the order of H0's cosets. The blocks follow their chains from the
largest subgroup down, in decreasing lexicographic order, so a row's pivot,
its highest column, is the coface that inserts the least subgroup as low in
the chain as it goes. Over the catalog's C(G) and C(G, N) of order 2..60,
the GF(2) reduction of the full complexes then makes 13,245 XORs, against
16,841 with the chains in increasing order, 17,387 on the sorted face
tuples and 95,880 when the boundaries are reduced from the top down (C(A5):
3,203, 2,252, 3,377 and 29,440); 8,476 on the cores (C(A5): 2,960).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import add, itemgetter, lshift
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .cosets import CosetPoset
from .groups import BudgetExceededError, _is_prime
from .posets import FinitePoset

FACE_BUDGET = 10**6
GF2_BITSET_COLUMNS = 20_000  # the module docstring says why


class CosetComplex:
    """The order complex of a coset poset, stored by blocks, with no face
    tuple. ``blocks[k]`` maps each chain H0 < ... < Hk, a tuple of positions
    in ``poset.subgroup_ids``, to the offset of its block: its
    ``block_size[H0]`` = [G : H0] faces, in the order of H0's cosets. The
    face count is checked against FACE_BUDGET when the complex is made; the
    blocks and the coset tables are read only when pivots or rows are."""

    def __init__(self, poset: CosetPoset):
        self._counts = poset.chain_counts()
        faces = sum(self._counts)
        if faces > FACE_BUDGET:
            raise BudgetExceededError(f"the order complex has {faces} nonempty faces, "
                                      f"over the face budget {FACE_BUDGET}")
        self._chains, self.block_size = poset.subgroup_chains
        self.poset = poset
        self._preimages: dict[tuple[int, int, bool], list] = {}

    @property
    def dimension(self) -> int:
        return len(self._counts) - 1

    def f_vector(self) -> list[int]:
        return [1] + self._counts

    @cached_property
    def blocks(self) -> list[dict[tuple[int, ...], int]]:
        blocks = []
        chains = [(h,) for h in reversed(range(self._chains.n))]
        while chains:  # in decreasing lexicographic order; the module docstring says why
            blocks.append(dict(zip(chains, accumulate(
                (self.block_size[c[0]] for c in chains), initial=0))))
            chains = [c + (h,) for c in chains for h in reversed(self._chains.above[c[-1]])]
        return blocks

    def core(self) -> CosetComplex:
        """The order complex of the poset's beat-point core
        (``CosetPoset.beat_point_core``). Raises RuntimeError unless its
        reduced Euler characteristic, read from the chain counts, is this
        complex's."""
        core = CosetComplex(self.poset.beat_point_core())
        chi, core_chi = _reduced_euler(self.f_vector()), _reduced_euler(core.f_vector())
        if chi != core_chi:
            raise RuntimeError(f"the beat-point core has reduced Euler characteristic "
                               f"{core_chi}, the order complex {chi}")
        return core

    @cached_property
    def _offsets(self) -> list[tuple[list[tuple[int, ...]], list[int]]]:
        """Each dimension's chains and their block offsets, then its size."""
        return [(list(b), [*b.values(), n]) for b, n in zip(self.blocks, self._counts)]

    def _preimage(self, k: int, h: int, bitsets: bool) -> list:
        """For each coset of H = position h, the positions of the cosets of
        K = position k < h inside it, increasing: a list, or an int bitset."""
        table = self._preimages.get((k, h, bitsets))
        if table is None:
            ids = self.poset.subgroup_ids
            table = self._preimages[k, h, bitsets] = (
                [sum(map(lshift, repeat(1), pre)) for pre in self._preimage(k, h, False)]
                if bitsets else self.poset.cosets_inside(ids[k], ids[h]))
        return table

    @cached_property
    def _cofaces(self) -> list[list[list[tuple[int, int]]]]:
        """For each dimension k and each of its blocks, H0 < ... < Hk, the
        cofaces that insert K at i >= 1 and so keep H0x: face t of the block
        at offset q, sign (-1)^i, as (q, i & 1), by increasing q. Built once,
        from the (k+1)-chains: each is listed under each of its k+1 faces
        that drop a subgroup other than the least one."""
        out = []
        for k, upper in enumerate(self.blocks[1:]):
            lists: dict[tuple[int, ...], list[tuple[int, int]]] = {c: [] for c in self.blocks[k]}
            for d, q in upper.items():
                for i in range(1, k + 2):
                    lists[d[:i] + d[i + 1:]].append((q, i & 1))
            out.append(list(lists.values()))
        return out

    def _pivots(self, k: int, keep: bytes) -> Iterator[tuple[int, int]]:
        """(face, pivot) for each k-face (k >= 0) marked in ``keep`` whose row
        is nonzero, in face order, with no row built: the highest column, the
        last coset of the least K < H0 inside H0x, else the highest column
        of the block's ``_cofaces`` list, its last."""
        (chains, starts), below, upper = self._offsets[k], self._chains.below, self.blocks[k + 1]
        cofaces, pairs = self._cofaces[k], []
        for b, (c, o, end) in enumerate(zip(chains, starts, starts[1:])):
            kept = keep[o:end]
            if 1 not in kept:  # cleared whole, as blocks often are
                continue
            ts = list(compress(range(end - o), kept)) if 0 in kept else range(end - o)
            if below[c[0]]:
                h = below[c[0]][0]
                pre = map(self._preimage(h, c[0], False).__getitem__, ts)
                pivots = map(add, repeat(upper[(h,) + c]), map(itemgetter(-1), pre))
            elif cofaces[b]:
                pivots = map(add, repeat(cofaces[b][-1][0]), ts)
            else:  # a maximal chain, with no coface
                continue
            pairs.append(zip(map(add, repeat(o), ts), pivots))
        return chain.from_iterable(pairs)

    def _coboundary_rows(self, k: int, p: int, bitsets: bool) -> Callable[[int], int | dict]:
        """A k-face's row in C^k -> C^(k+1) over GF(p), k >= 0, by face: its
        block b bisected from the offsets and, made on b's first row, b's
        ``_cofaces`` list, or S, the bits of its q, if ``bitsets``, and the
        cofaces that put K < H0 first: the cosets of K inside H0x, sign +1,
        at the positions table[t] (``_preimage``) of the block at offset q,
        as (q, table), the least K first. The row is then (S << t) + the sum
        of (table[t] << q), bitset or dict."""
        (chains, starts), cofaces = self._offsets[k], self._cofaces[k]
        below, upper = self._chains.below, self.blocks[k + 1]
        made = [None] * len(starts)

        def row(face: int) -> int | dict[int, int]:
            b = bisect_right(starts, face) - 1
            if made[b] is None:
                c = chains[b]
                made[b] = (sum(1 << q for q, _ in cofaces[b]) if bitsets else cofaces[b],
                           [(upper[(h,) + c], self._preimage(h, c[0], bitsets))
                            for h in below[c[0]]])
            t, (inserted, firsts) = face - starts[b], made[b]
            if bitsets:  # inserted is S
                r = inserted << t
                for q, pre in firsts:
                    r += pre[t] << q
                return r
            r = {q + t: (1, p - 1)[odd] for q, odd in inserted}
            r.update((q + s, 1) for q, pre in firsts for s in pre[t])
            return r
        return row


def order_complex(poset: CosetPoset) -> CosetComplex:
    """All chains of a coset poset, as a ``CosetComplex``; the empty poset
    yields {emptyset}. Past FACE_BUDGET chains it raises."""
    if not isinstance(poset, CosetPoset):
        raise TypeError(f"order_complex takes a CosetPoset, not a {type(poset).__name__}")
    return CosetComplex(poset)


def poset_f_vector(poset: CosetPoset | FinitePoset) -> list[int]:
    """f-vector of the order complex, counted without materializing faces."""
    return [1] + poset.chain_counts()


def poset_reduced_euler_characteristic(poset: CosetPoset | FinitePoset) -> int:
    return _reduced_euler(poset_f_vector(poset))


def _reduced_euler(f: list[int]) -> int:
    """-1 + f_0 - f_1 + ... of an f-vector read from dimension -1."""
    return sum(x if k % 2 else -x for k, x in enumerate(f))  # f[k]: dim k - 1


def rank_gf2(pivots: Iterable[tuple[int, int]], row: Callable[[int], int],
             columns: int) -> bytearray:
    """The pivot columns, marked 1 in a bytearray over ``columns``, of int
    bitset rows over GF(2), given as (face, pivot) in turn by ``pivots``
    and built by ``row(face)``. A row whose pivot is unclaimed is emergent:
    it claims it and keeps only its face (Bauer's Ripser, 2021). The others
    are built and reduced, and each emergent row they meet is built once."""
    claimed, faces = bytearray(columns), memoryview(bytearray(4 * columns)).cast("i")
    rows: dict[int, int] = {}
    for face, bit in pivots:
        if not claimed[bit]:  # emergent
            claimed[bit], faces[bit] = 1, face
            continue
        r = row(face)
        while r:
            bit = r.bit_length() - 1
            if not claimed[bit]:
                claimed[bit], rows[bit] = 1, r
                break
            pivot = rows.get(bit)
            if pivot is None:
                pivot = rows[bit] = row(faces[bit])
            r ^= pivot
    return claimed


def rank_gfp(pivots: Iterable[tuple[int, int]], row: Callable[[int], dict[int, int]],
             columns: int, p: int) -> bytearray:
    """``rank_gf2`` over GF(p), on sparse rows {column: value} with values
    in 1..p-1, each reduced in place; a row's pivot is its largest column."""
    claimed, faces = bytearray(columns), memoryview(bytearray(4 * columns)).cast("i")
    rows: dict[int, dict[int, int]] = {}
    for face, lead in pivots:
        if not claimed[lead]:  # emergent
            claimed[lead], faces[lead] = 1, face
            continue
        r = row(face)
        while r:
            lead = max(r)
            if not claimed[lead]:
                claimed[lead], rows[lead] = 1, r
                break
            pivot = rows.get(lead)
            if pivot is None:
                pivot = rows[lead] = row(faces[lead])
            if p == 2:  # every value is 1: adding the pivot row is a symmetric difference
                for col in pivot:
                    if r.pop(col, None) is None:
                        r[col] = 1
                continue
            c = r[lead] * pow(pivot[lead], -1, p) % p
            for col, y in pivot.items():
                x = (r.get(col, 0) - c * y) % p
                if x:
                    r[col] = x
                else:
                    r.pop(col, None)
    return claimed


class BettiVector(NamedTuple):
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
        d = dict(self.values)
        return [d.get(k, 0) for k in range(-1, max(d, default=-1) + 1)]

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self) -> str:
        body = ", ".join(f"b{k}={v}" for k, v in self.values) or "0"
        return f"<Betti GF({self.prime}): {body}>"


def _boundary_ranks(X: CosetComplex, p: int) -> dict[int, int]:
    """rank of the boundary map C_k -> C_{k-1} for k = 0..dim, read as the
    rank of the coboundary map C^{k-1} -> C^k. The empty face's row, every
    vertex, has rank 1 and the last vertex as its pivot; the maps from
    dimension 0 up are reduced by ``rank_gf2`` (at p = 2 up to
    GF2_BITSET_COLUMNS columns) or ``rank_gfp`` on the complex's
    ``_pivots`` and ``_coboundary_rows``.

    Each pivot column of C^{k-1} -> C^k is a k-face that leads a coboundary,
    a cocycle, so that face's row in the next map is a combination of the
    rows of lower k-faces. Those rows are skipped ("clearing", Chen and
    Kerber, 2011, on coboundaries as in Bauer's Ripser, 2021)."""
    f = X.f_vector()  # {emptyset} has no map; else the last vertex is claimed
    ranks, keep = ({0: 1}, b"\x01" * (f[1] - 1) + b"\x00") if len(f) > 1 else ({}, b"")
    for k in range(X.dimension):
        bitsets = p == 2 and f[k + 2] <= GF2_BITSET_COLUMNS  # f[k + 2]: the (k+1)-faces
        pivots, row = X._pivots(k, keep), X._coboundary_rows(k, p, bitsets)
        claimed = rank_gf2(pivots, row, f[k + 2]) if bitsets else rank_gfp(pivots, row, f[k + 2], p)
        ranks[k + 1] = claimed.count(1)
        keep = claimed.translate(b"\x01" + bytes(255))  # the unclaimed (k+1)-faces
    return ranks


def reduced_betti(X: CosetComplex, p: int) -> BettiVector:
    """Reduced Betti numbers of the augmented chain complex over GF(p),
    computed on ``X.core()``, the order complex of the beat-point core of
    X's coset poset.

    Removing a beat point, an element whose upper set has a least element
    or whose lower set a greatest, is a strong deformation retraction of the
    order complex (Stong, "Finite topological spaces", 1966), so the core's
    order complex has X's Betti numbers over every field. A coset poset has
    no down beat point: below Hx lie the [H : L] >= 2 pairwise incomparable
    cosets of each included L < H inside Hx. Its up beat points are read off
    the subgroups (``CosetPoset.beat_point_core``), and ``X.core()`` raises
    RuntimeError unless the core's reduced Euler characteristic is X's."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    core = X.core()
    ranks = _boundary_ranks(core, p)
    return BettiVector.from_dict(p, {k: f_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
                                     for k, f_k in enumerate(core.f_vector(), -1)})


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
