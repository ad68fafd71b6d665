"""Order complexes, their reduced homology over prime fields, and the
Kunneth formula for the homology of a join.

All complexes are augmented: the empty face sits in dimension -1, so the
one-face complex {0} (written {emptyset}) has Betti number 1 in dimension
-1 and is not acyclic. Ranks come from the coboundary maps, reduced from
dimension -1 up with clearing: int-bitset rows over GF(2) up to
GF2_BITSET_COLUMNS columns, sparse {column: value} rows past it and over
odd primes, streamed into the rank kernels. ``reduced_betti`` reduces the
order complex of the poset's beat-point core, which has the same Betti
numbers and, on C(S5), 202,449 of its 320,283 faces.

Int rows reduce 2.6-5x faster than dict rows up to 11,100 columns (every
complex of the catalog up to order 60), 0.85-1.4x as fast at 40,804-66,906
(C(S5) and C(PSL(2,7))) and half as fast at 96,840. But a bitset costs its
column span in memory: C(S5) peaks at 284 MB with bitsets up to 70,000
columns against 50 MB with none, and C(PSL(2,7)) at 175 MB with bitsets up
to 50,000 against 80 MB. So GF2_BITSET_COLUMNS is 20,000, where n pivot
rows of n columns hold at most n^2 / 8 bytes, 50 MB.

The order complex of a coset poset (``CosetComplex``) stores no face
tuple. A face H0x < ... < Hkx is fixed by its subgroup chain and the coset
H0x, so dimension k is one block of [G : H0] faces per chain H0 < ... < Hk,
in the order of H0's cosets. Each coface of face t that inserts a subgroup
above H0 is face t of its own block, and those that put K < H0 first are
the cosets of K inside H0x (``CosetPoset.cosets_inside``). A GF(2) row is
then one shifted mask, S << t, and one mask of K-cosets for each K < H0.

The blocks follow their chains from the largest subgroup down, in
decreasing lexicographic order, so a row's pivot, its highest column, is
the coface that inserts the least subgroup as low in the chain as it goes.
Over the catalog's C(G) and C(G, N) of order 2..60, the GF(2) reduction of
the full complexes then makes 13,245 XORs, against 16,841 with the chains
in increasing order, 17,387 on the sorted face tuples and 95,880 when the
boundaries are reduced from the top down (C(A5): 3,203, 2,252, 3,377 and
29,440). On the beat-point cores it makes 8,476 (C(A5): 2,960).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import add, lshift
from typing import Iterable, Iterator, Mapping, NamedTuple

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
    face count is checked against FACE_BUDGET when the complex is made,
    before any coset is labelled; the blocks and the coset tables are read
    only when rows are.
    """

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

    def _preimage(self, k: int, h: int, bitsets: bool) -> list:
        """For each coset H x of H = position h, the positions among the
        cosets of K = position k < h of those inside it
        (``CosetPoset.cosets_inside``): a list each, or one int bitset each.
        Made once per pair and complex."""
        table = self._preimages.get((k, h, bitsets))
        if table is None:
            ids = self.poset.subgroup_ids
            table = self.poset.cosets_inside(ids[k], ids[h])
            if bitsets:
                table = [sum(map(lshift, repeat(1), pre)) for pre in table]
            self._preimages[k, h, bitsets] = table
        return table

    def _coboundary_rows(self, k: int, p: int, cleared: set[int], bitsets: bool) -> Iterator:
        """Rows of the coboundary map C^k -> C^(k+1) over GF(p), one per
        k-face outside ``cleared`` (face indices), in block order: int
        bitsets if ``bitsets`` (at p = 2), else ``{column: sign}`` dicts.

        Face t of the block of H0 < ... < Hk, the chain of H0x, has two kinds
        of cofaces. K inserted at position i >= 1 keeps H0x: the coface is
        face t of the longer chain's block, with sign (-1)^i. K < H0 put
        first gives the [H0 : K] cosets of K inside H0x, with sign +1, at the
        positions ``_preimage`` lists in the block of K < H0 < ... < Hk. So
        over GF(2) the row is (S << t) | sum over K of (mask_K[t] << q_K),
        with S the OR of 1 << offset over the blocks of the insertions and
        q_K the offset of K's block.
        """
        if k == -1:  # the empty face, whose cofaces are the vertices
            f0 = self._counts[0]
            return iter([] if cleared else [
                (1 << f0) - 1 if bitsets else dict.fromkeys(range(f0), 1)])
        keep = bytearray(b"\x01") * self._counts[k]
        for j in cleared:
            keep[j] = 0
        upper = self.blocks[k + 1]
        above, below = self._chains.above, self._chains.below
        signs = (1, p - 1)
        rows = []
        for c, o in self.blocks[k].items():
            m = self.block_size[c[0]]
            kept = keep[o:o + m]
            if 1 not in kept:  # cleared whole, as blocks often are
                continue
            ts = list(compress(range(m), kept)) if 0 in kept else range(m)
            inserted = [(upper[c[:i] + (h,) + c[i:]], i & 1) for i in range(1, k + 1)
                        for h in set(above[c[i - 1]]).intersection(below[c[i]])]
            inserted += [(upper[c + (h,)], (k + 1) & 1) for h in above[c[-1]]]
            firsts = [(upper[(h,) + c], self._preimage(h, c[0], bitsets)) for h in below[c[0]]]
            if bitsets:
                S = sum(1 << q for q, _ in inserted)
                block = map(lshift, repeat(S), ts)
                if firsts:
                    block = map(sum, zip(block, *(map(lshift, map(pre.__getitem__, ts), repeat(q))
                                                  for q, pre in firsts)))
            else:
                block = _dict_rows(ts, inserted, firsts, signs)
            rows.append(block)
        return chain.from_iterable(rows)


def _dict_rows(ts: Iterable[int], inserted: list[tuple[int, int]],
               firsts: list[tuple[int, list[list[int]]]], signs: tuple[int, int]) -> Iterator:
    """The ``{column: sign}`` rows of ``CosetComplex._coboundary_rows`` for
    the faces ``ts`` of one block."""
    for t in ts:
        row = {q + t: signs[odd] for q, odd in inserted}
        for q, pre in firsts:
            row.update(zip(map(add, repeat(q), pre[t]), repeat(1)))
        yield row


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
        top = max((k for k, _ in self.values), default=-1)
        d = dict(self.values)
        return [d.get(k, 0) for k in range(-1, top + 1)]

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self) -> str:
        body = ", ".join(f"b{k}={v}" for k, v in self.values) or "0"
        return f"<Betti GF({self.prime}): {body}>"


def _boundary_ranks(X: CosetComplex, p: int) -> dict[int, int]:
    """rank of the boundary map C_k -> C_{k-1} for k = 0..dim, read as the
    rank of the coboundary map C^{k-1} -> C^k.

    The coboundary maps are reduced from dimension -1 up, on rows streamed
    by the complex's ``_coboundary_rows`` into ``rank_gf2`` (int bitsets, at
    p = 2 up to GF2_BITSET_COLUMNS columns) or ``rank_gfp``. Each pivot
    column of the reduced map C^{k-1} -> C^k is a k-face that leads a
    coboundary, and a coboundary is a cocycle, so that face's row in the
    next map is a combination of the rows of lower k-faces. Those rows are
    skipped ("clearing", Chen and Kerber, 2011, on coboundaries as in
    Bauer's Ripser, 2021), which leaves every rank unchanged.
    """
    f = X.f_vector()
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for k in range(-1, X.dimension):
        bitsets = p == 2 and f[k + 2] <= GF2_BITSET_COLUMNS  # f[k + 2]: the (k+1)-faces
        rows = X._coboundary_rows(k, p, cleared, bitsets)
        cleared = rank_gf2(rows) if bitsets else rank_gfp(rows, p)
        ranks[k + 1] = len(cleared)
    return ranks


def reduced_betti(X: CosetComplex, p: int) -> BettiVector:
    """Reduced Betti numbers of the augmented chain complex over GF(p),
    computed on ``X.core()``, the order complex of the beat-point core of
    X's coset poset.

    Removing a beat point, an element whose upper set has a least element
    or whose lower set a greatest, is a strong deformation retraction of the
    order complex (Stong, "Finite topological spaces", 1966), so the core's
    order complex is homotopy equivalent to X and has its Betti numbers over
    every field. A coset poset has no down beat point: below Hx lie the
    [H : L] >= 2 cosets of each included L < H inside Hx, pairwise
    incomparable, so what lies below Hx has no greatest element. Its up beat
    points are read off the subgroups (``CosetPoset.beat_point_core``), and
    ``X.core()`` raises RuntimeError unless the core's reduced Euler
    characteristic equals X's.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    core = X.core()
    ranks = _boundary_ranks(core, p)
    out: dict[int, int] = {}
    for k, f_k in enumerate(core.f_vector(), -1):
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
