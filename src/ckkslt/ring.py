"""Negacyclic polynomial ring Z_q[x]/(x^N + 1), batched over RNS limbs.

Polynomials live either in coefficient form or in evaluation (NTT) form.
The forward transform takes natural-order coefficients to bit-reversed
evaluation order: position s of an NTT-domain polynomial holds the value
at the root psi^(2*bitrev(s)+1). That layout is load-bearing: the banked
permutation network in :mod:`ckkslt.permutation` derives its address math
from it, so it is not configurable.

Every kernel works on a block, an (L, N) uint64 array whose row j holds
residues mod the j-th of L moduli, or on a (B, L, N) stack of blocks, so
one numpy call per butterfly stage or per operation covers every limb.
Each moduli tuple has one interned :class:`BasisContext`: its moduli, their
route, and the operands the kernels read (contiguous modulus blocks, stage-
shaped twiddles with float quotients), built on first use per length.
The polynomial functions take :class:`Poly`, the one polynomial class:
an (L, N) block, or an (N,) row for a single modulus, with its
``context`` (whose ``moduli`` it exposes) and ``domain``; ``like`` hands
the context on to a kernel's result.

Vectorized modular multiplication: for q < 2^51 the quotient of the
128-bit product is estimated in float64 and rounded to nearest, which
leaves the residual, recovered exactly through uint64 wraparound, in
(-q, q); one wraparound minimum then gives the residue, with no integer
division (the bound is proved next to ``_residual``). A block with any
wider row takes object-dtype (native big-int) arithmetic on every row. A sum
of products (:func:`mod_mul_acc`) adds the signed residuals in int64 and
reduces once per sum, in the manner of Harvey's lazy reduction.

The butterfly stages keep their operands contiguous: in Pease's constant
geometry every stage reads its pairs from the two halves of the block and
writes them interleaved, so a stage's twiddles, their float quotients and
the moduli are (L, n/2) tables the context builds once per length.

The forward transform runs on the subring a block lies in: when every row is
zero off the multiples of g (the largest such power of two), the polynomial is
B(X^g), and the (N/g)-point transform of B with root psi^g, spread to N slots,
is its transform. A vector of period n over the N/2 slots encodes to such a
polynomial with g = N/(2n), the sparse packing of Cheon, Han, Kim, Kim and Song
(EUROCRYPT 2018), so a packed n-slot diagonal costs a 2n-point transform.
:func:`ntt_many` stacks many blocks' slices on their common (smallest) gap,
zero-filling wider ones, and :func:`ntt` is its one-block case. The gap is read
off the integer residues, so the result is the full-length transform bit for
bit; a dense block pays one strided test. :func:`ntt_subring` takes the same
path from coefficient stacks of B that a caller built in the subring, as
packing does, and does not spread: it returns the gap and the (B, L, N/g) stack
of values, and :func:`spread` repeats a row g times when a product reads it, so
the dense (L, N) blocks are never held together. The inverse always runs at
length N, over a stack too (:func:`intt_many`, of which :func:`intt` is the
one-block case), and its last stage's constant twiddle rides in the multiply
by its output scale.

The coefficient automorphism x -> x^{g_r} maps Z_q[X^g] to itself: on B it is
y -> y^{g_r} at ring dimension N/g. Its kernel, :func:`automorphism_block`,
takes a stack of blocks of any length, so packing pre-rotates its subring
coefficients as one call per rotation; :func:`automorphism_coef` is its
one-polynomial case.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .modarith import Modulus

FAST_LIMIT = 1 << 51  # the bound proved next to _residual
_ROUND = np.float64(2.0**52)
_ROUND_BITS = _ROUND.view(np.uint64)
_SIGNED_ROUND = np.float64(1.5 * 2.0**52)  # rounds any |x| < 2^51 to the integer nearest
_SIGNED_ROUND_BITS = _SIGNED_ROUND.view(np.uint64)


class DomainMismatch(ValueError):
    """Operation received a polynomial in the wrong domain."""


class BasisMismatch(ValueError):
    """Operands, limbs, slot vectors or bank arrays do not carry the
    expected moduli or lengths."""


class Domain(enum.Enum):
    COEF = "coefficient"
    NTT = "ntt"


# ---------------------------------------------------------------------------
# vector kernels


class Moduli(NamedTuple):
    """A uint64 modulus array and, when every modulus is below FAST_LIMIT, its
    float64 copy (None otherwise): the route and the float modulus that
    :func:`mod_mul_vec` reads."""

    q: np.ndarray
    qf: np.ndarray | None

    def view(self, *shape) -> "Moduli":
        """A view of an (L, n) block's first columns as ``shape`` (rows are constant)."""
        cols = math.prod(shape[1:])
        return Moduli(*(None if x is None else x[:, :cols].reshape(shape) for x in self))


def _quotient(b, q: Moduli):
    """fl(b/q) for operands b of the float route; None on the exact route."""
    # operands and moduli are below 2^63: their int64 views convert to float faster
    return None if q.qf is None else np.true_divide(np.asarray(b, np.uint64).view(np.int64), q.qf)


def _residual(a, b, q: Moduli, quot) -> tuple[np.ndarray, np.ndarray]:
    """r = ab - tq with t the integer nearest fl(a * fl(b/q)): r lies in (-q, q),
    held as wrapping uint64 (the bound below), and a scratch array of its shape."""
    # Error bound (a float-quotient reduction in the manner of Harvey,
    # J. Symb. Comp. 2014). Let q < 2^51 and a, b < 2^51 with one of them < q,
    # so a, b, q are exact in float64 and ab/q < 2^51 - 1.
    # - Two roundings, each of relative error <= 2^-53, give x = fl(a * fl(b/q))
    #   with |x - ab/q| <= (ab/q)(2^-52 + 2^-106) < (2^51 - 1)(2^-52 + 2^-106) < 1/2.
    # - 0 <= x < 2^52, so fl(x + 2^52) = 2^52 + t with t the integer nearest to
    #   x; its low 52 bits are t, and |x - t| <= 1/2.
    # - Hence |ab/q - t| < 1: the residual r = ab - tq lies in (-q, q) and is
    #   exact through uint64 wraparound.
    # A precomputed quotient (a table's, or one shared by several products) is
    # the same float fl(b/q): b and q are exact in float64 and IEEE division
    # rounds correctly.
    b = np.asarray(b, np.uint64)
    quot = np.multiply(a.view(np.int64), _quotient(b, q) if quot is None else quot)
    quot += _ROUND
    t = quot.view(np.uint64)
    t -= _ROUND_BITS
    t *= q.q
    r = np.multiply(a, b, out=np.empty_like(t))
    r -= t
    return r, t


def _mul_fast(a, b, q: Moduli, quot):
    # min(r, r + q) as uint64 is r mod q: a negative r wraps above 2^63, where
    # r + q lands in [0, q)
    r, t = _residual(a, b, q, quot)
    np.add(r, q.q, out=t)
    return np.minimum(r, t, out=r)


def _mul_exact(a, b, q):
    return (a.astype(object) * b.astype(object) % q.astype(object)).astype(np.uint64)


def mod_mul_vec(a: np.ndarray, b: np.ndarray, q: Moduli, quot=None) -> np.ndarray:
    """Elementwise a*b mod q for uint64 operands, result in [0, q).

    ``q`` is a :class:`Moduli` operand, as a :class:`BasisContext` builds them,
    with the limb axis first and broadcasting against the operands; its float
    copy selects the route, so ``Moduli(q, None)`` is the exact one. ``quot``
    is fl(b/q) when the caller holds it (the context's tables), so the call
    skips the division.

    The whole block takes one route: if every q is below FAST_LIMIT (2^51),
    the float-quotient path, whose operands must both lie below FAST_LIMIT
    with one below its row's q (a residue times a residue of the same row
    always does); otherwise the exact path, which takes any uint64
    operands. A caller that multiplies residues of a wider modulus by a
    narrower one reduces them first (see :func:`ckkslt.rns.bconv`).
    """
    return _mul_exact(a, b, q.q) if q.qf is None else _mul_fast(a, b, q, quot)


class PartialSum(NamedTuple):
    """A sum of products that :func:`mod_mul_acc` left unreduced: ``total``'s
    words hold the running sum (of int64 residuals in (-q, q), wrapping, on the
    float route; of canonical products on the exact one) and ``terms`` counts
    its summands."""

    total: np.ndarray
    terms: int


def _sum_limit(q: Moduli) -> int:
    """How many summands a running sum of products takes before it is reduced.
    A float-route residual lies in (-q, q), so floor(2^63/q_max) - 1 of them,
    one of which may be the sum reduced so far, keep the int64 total from
    overflowing; the cap 2^50 keeps the total's float quotient within 1/4 of
    s/q (:func:`_reduce_sum`). An exact-route product lies in [0, q), and
    floor((2^64 - 1)/q_max) - 1 of them keep the uint64 total below 2^64."""
    top = int(q.q[..., :1].max())  # rows are constant along the last axis
    if q.qf is None:
        return ((1 << 64) - 1) // top - 1
    return min((1 << 63) // top, 1 << 50) - 1


def _reduce_sum(total: np.ndarray, terms: int, q: Moduli) -> np.ndarray:
    """The residues of a running sum of ``terms`` summands, in place.

    On the float route ``total`` holds an int64 sum s with |s| < terms*q: at
    |s/q| < 2^50 - 1 two roundings put x = fl(fl(s)/q) within
    |s/q| (2^-52 + 2^-106) < 1/4 of s/q, so with t the integer nearest x,
    s - tq lies in (-q, q) and one wraparound minimum gives s mod q. A single
    summand is already in (-q, q).
    """
    if q.qf is None:
        return total if terms == 1 else np.remainder(total, q.q, out=total)
    if terms > 1:
        x = np.true_divide(total.view(np.int64), q.qf)
        x += _SIGNED_ROUND  # for |x| < 2^51 this rounds x to t, held in the low bits
        t = x.view(np.uint64)
        t -= _SIGNED_ROUND_BITS
        t *= q.q
        total -= t
    return np.minimum(total, total + q.q, out=total)


def mod_mul_acc(terms, q: Moduli, partials=None, reduce: bool = True) -> list:
    """Sums of products mod q with one reduction each. ``terms`` yields (f,
    operands) pairs, and sum i is the sum over the terms of operands[i] * f mod
    q, bit for bit the sum of :func:`mod_mul_vec` products: operands follow its
    contract and broadcast as it does, blocks or stacks. f's quotient is
    computed once per term.

    On the float route each product enters as its residual in (-q, q), summed
    in int64 with no per-term correction; the exact route sums canonical
    products in uint64. Either reduces a sum before it can overflow
    (:func:`_sum_limit`). ``partials`` continues, and consumes, the
    :class:`PartialSum` list an earlier call over the same moduli returned with
    ``reduce=False`` (a None entry starts empty); ``reduce`` decides whether
    this call returns the residues or partial sums again."""
    sums, limit = list(partials or ()), _sum_limit(q)
    for f, operands in terms:
        sums = sums or [None] * len(operands)
        if len(operands) != len(sums):
            raise BasisMismatch(f"{len(operands)} products for {len(sums)} sums")
        quot = _quotient(f, q)
        for i, a in enumerate(operands):
            if q.qf is None:
                product = _mul_exact(a, f, q.q)
            else:
                product = _residual(a, f, q, quot)[0]
            if sums[i] is None:
                sums[i] = PartialSum(product, 1)
                continue
            total, count = sums[i]
            if count == limit:  # in place: the reduced sum is one summand
                total, count = _reduce_sum(total, count, q), 1
            total += product
            sums[i] = PartialSum(total, count + 1)
    return [_reduce_sum(*s, q) for s in sums] if reduce else sums


def mod_add_vec(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    s = a + b
    # s - q wraps above s exactly when s < q, so the minimum is s mod q
    return np.minimum(s, s - np.asarray(q, np.uint64), out=s)


def mod_sub_vec(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    d = a - b
    return np.minimum(d, d + np.asarray(q, np.uint64), out=d)


@lru_cache(maxsize=None)
def bitrev_table(n: int) -> np.ndarray:
    """Permutation p with p[i] = bit-reversal of i over log2(n) bits."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    out = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        out |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(bits - 1 - b)
    return out.astype(np.int64)


@lru_cache(maxsize=None)
def _powers(q: int, root: int, n: int) -> np.ndarray:
    """root^0 .. root^(n-1) mod q in bit-reversed index order."""
    return np.array(list(accumulate(range(n - 1), lambda x, _: x * root % q, initial=1)),
                    dtype=np.uint64)[bitrev_table(n)]


def _readonly(values, dtype=np.uint64) -> np.ndarray:
    table = np.array(values, dtype=dtype, order="C")
    table.flags.writeable = False
    return table


def _operand(values: np.ndarray, q: Moduli) -> tuple:
    """Read-only multipliers and their quotients fl(b/q), None off the float path."""
    quot = _quotient(values, q)
    return _readonly(values), None if quot is None else _readonly(quot, np.float64)


@dataclass(frozen=True, eq=False)
class BasisContext:
    """The constants of one moduli tuple. Interned by :func:`basis_context`,
    so two polynomials share a basis exactly when they share the object.

    It holds the operands the kernels read as read-only tables, built on
    first use per length: same-shape contiguous operands keep numpy on one
    flat loop, where a broadcast column or twiddle splits it into short runs.
    The per-length tables live in method caches that hold their context, which
    is no leak: interned contexts live as long as the process anyway.
    """

    moduli: tuple[Modulus, ...]
    q: np.ndarray  # the moduli as a read-only (L, 1) uint64 column
    fast: bool  # every q below FAST_LIMIT, so mod_mul_vec takes the float path

    @cache
    def block(self, n: int) -> Moduli:
        """The moduli as a contiguous (L, n) block; n = 1 gives the column."""
        q = _readonly(np.repeat(self.q, n, axis=1))
        return Moduli(q, _readonly(q, np.float64) if self.fast else None)

    @cache
    def stages(self, n: int, inverse: bool) -> list[tuple]:
        """Per stage of the n-point transform, mm = 1, 2, ..., n/2 blocks (the
        inverse runs them backwards): the twiddles in the order the stage reads
        them, (L, n/2) with block b's in every column j with j mod mm = b (see
        :func:`_butterflies`), and their quotients. The forward root is
        psi^(N/n), a primitive 2n-th root of unity, the inverse's its inverse.
        Callers pass ``inverse`` positionally, so each table has one cache key."""
        step = self.moduli[0].ring_dim // n * (-1 if inverse else 1)
        table = np.stack([_powers(m.q, pow(m.two_n_root, step, m.q), n) for m in self.moduli])
        half = self.block(n).view(len(self.moduli), n // 2)
        return [_operand(np.tile(table[:, mm : 2 * mm], n // (2 * mm)), half)
                for mm in (1 << s for s in range(n.bit_length() - 1))]

    @cached_property
    def hat_inverse(self) -> np.ndarray:
        """[q̂_j^-1]_{q_j}, with q̂_j the product of the other moduli, as an (L, 1)
        column: the first constant of a basis conversion out of this basis."""
        values = [m.q for m in self.moduli]
        big = math.prod(values)
        return _readonly([[pow(big // q % q, -1, q)] for q in values])

    @cache
    def last_stage(self, hat_inverse: bool) -> tuple:
        """The inverse transform's last multiply as one (L, N) table with its
        quotients: the mm = 1 stage's twiddle w0, constant per row, and the output
        scale N^-1, times q̂_j^-1 when ``hat_inverse``; the lower half holds the
        scale, the upper half w0 times it. Callers pass the flag positionally, so
        each table has one cache key."""
        n = self.moduli[0].ring_dim
        w0 = self.stages(n, True)[0][0][:, 0]
        hat = self.hat_inverse[:, 0].tolist() if hat_inverse else [1] * len(self.moduli)
        scales = [m.n_inv * h % m.q for m, h in zip(self.moduli, hat)]
        rows = [[s, s * w % m.q] for m, s, w in zip(self.moduli, scales, w0.tolist())]
        return _operand(np.repeat(np.array(rows, np.uint64), n // 2, axis=1), self.block(n))

    @cached_property
    def top_inverse(self) -> np.ndarray:
        """The top modulus's inverse mod every other, as an (L-1, 1) column."""
        top = self.moduli[-1].q
        return _readonly([[pow(top % m.q, -1, m.q)] for m in self.moduli[:-1]])


@lru_cache(maxsize=None)
def _intern(moduli: tuple[Modulus, ...]) -> BasisContext:
    if not moduli:
        raise BasisMismatch("a basis needs at least one modulus")
    q = _readonly([[m.q] for m in moduli])
    return BasisContext(moduli, q, bool(q.max() < FAST_LIMIT))


def basis_context(moduli) -> BasisContext:
    """The one context of a moduli sequence; a context is returned as is."""
    return moduli if isinstance(moduli, BasisContext) else _intern(tuple(moduli))


def _butterflies(values: np.ndarray, context: BasisContext) -> np.ndarray:
    """The n-point forward transforms of a block or stack over ``context``.

    The stages run in Pease's constant geometry: each reads its butterfly
    pairs from the two contiguous halves and writes them interleaved. Element
    i starts at slot i; a stage takes the pair bit from the top of the slot
    index to the bottom, so after log2(n) stages element i is back at slot i,
    where the in-place transform leaves it. At the stage with mm blocks, slot
    j of the lower half holds block j mod mm.
    """
    n, h = values.shape[-1], values.shape[-1] // 2
    q = context.block(n)
    half = q.view(len(context.moduli), h)
    a, out = values, np.empty(values.shape, np.uint64)
    for w, wq in context.stages(n, False):
        lo, hi = a[..., :h], a[..., h:]
        v = mod_mul_vec(hi, w, half, wq)
        pairs = out.reshape(*out.shape[:-1], h, 2)
        # lo + v and lo - v + q, both in [0, 2q), then one reduction
        np.add(lo, v, out=pairs[..., 0])
        np.subtract(lo, v, out=pairs[..., 1])
        pairs[..., 1] += half.q
        np.minimum(out, out - q.q, out=out)
        a, out = out, (a if a is not values else np.empty_like(out))
    return a


def subring_gap(values: np.ndarray) -> int:
    """The largest power of two g such that every row of a block (or stack) is
    zero off the multiples of g: the block lies in Z_q[X^g]. N for constants;
    1, after one strided test, for a dense block."""
    n = values.shape[-1]
    g = 1
    while g < n and not values[..., g :: 2 * g].any():
        g *= 2
    return g


def _forward_ntt(slices: list, context: BasisContext) -> tuple[int, np.ndarray]:
    """The transforms of B(X^g) for (g, stack) pairs, a stack (..., L, N/g) holding one
    or more B's coefficients, on their common (smallest) gap g: g and the (B, L, N/g)
    stack of B's values in stack order, which :func:`spread` takes to N slots.
    Empties the list; no pairs give gap N and an empty stack."""
    # A block in Z_q[X^g] is B(X^g) with deg B < M = N/g. Its value at
    # psi^(2e+1) is B's at (psi^g)^(2e+1), which depends on e mod M only, so
    # the M-point transform of B with root psi^g yields all N values: storage
    # slot s takes sub-slot bitrev_M(bitrev_N(s) mod M), which is s // g.
    # A block in Z_q[X^g'] lies in Z_q[X^g] for g dividing g'.
    g = min((gap for gap, _ in slices), default=context.moduli[0].ring_dim)
    rows, m = len(context.q), context.moduli[0].ring_dim // g
    if len(slices) == 1:
        stack = slices[0][1].reshape(-1, rows, m)
    else:
        count = sum(math.prod(sub.shape[:-1]) // rows for _, sub in slices)
        stack, start = np.zeros((count, rows, m), np.uint64), 0
        for gap, sub in slices:
            sub = sub.reshape(-1, rows, sub.shape[-1])
            stack[start : start + len(sub), :, :: gap // g] = sub
            start += len(sub)
            del sub
    slices.clear()
    return g, _butterflies(stack, context)


def spread(values: np.ndarray, gap: int) -> np.ndarray:
    """The N-slot NTT values of B(X^g) from B's (..., N/g) values: storage slot s
    takes sub-slot s // g, so each value repeats g times. At g = 1, ``values``."""
    return np.repeat(values, gap, axis=-1) if gap > 1 else values


def _inverse_ntt(values: np.ndarray, context: BasisContext, hat_inverse: bool) -> np.ndarray:
    """The forward stages undone in reverse order: each reads the interleaved
    pairs and writes the two halves. The last stage's constant twiddle and the
    output scale are one multiply (:meth:`BasisContext.last_stage`), so the
    result is scaled by q̂_j^-1 too when ``hat_inverse``. ``values``, a block or
    stack the caller owns, is overwritten."""
    n, h = values.shape[-1], values.shape[-1] // 2
    q = context.block(n)
    half = q.view(len(context.moduli), h)
    a, out = values, np.empty(values.shape, np.uint64)
    stages = context.stages(n, True)
    for s in reversed(range(len(stages))):
        pairs = a.reshape(*a.shape[:-1], h, 2)
        lo, hi = pairs[..., 0], pairs[..., 1]
        # lo + hi and lo - hi + q, both in [0, 2q), then one reduction
        np.add(lo, hi, out=out[..., :h])
        np.subtract(lo, hi, out=out[..., h:])
        out[..., h:] += half.q
        np.minimum(out, out - q.q, out=out)
        if not s:
            w, wq = context.last_stage(hat_inverse)
            return mod_mul_vec(out, w, q, wq)
        w, wq = stages[s]
        out[..., h:] = mod_mul_vec(out[..., h:], w, half, wq)
        a, out = out, a


# ---------------------------------------------------------------------------
# rotation indices and polynomials

ROTATION_GENERATOR = 5


@dataclass(frozen=True)
class RotationIndex:
    """Slot offset r together with the automorphism exponent g^r mod 2N.
    g = 5 has order N/2 mod 2N, so any integer offset is taken mod N/2
    here, the one place an offset is reduced: r + N/2 and r - N/2 are r."""

    r: int
    ring_dim: int
    g_r: int = 0

    def __post_init__(self):
        object.__setattr__(self, "r", self.r % (self.ring_dim // 2))
        object.__setattr__(self, "g_r", pow(ROTATION_GENERATOR, self.r, 2 * self.ring_dim))
        assert self.g_r % 2 == 1

    def inverse(self) -> "RotationIndex":
        return RotationIndex(-self.r, self.ring_dim)


class Poly:
    """A polynomial over a tuple of moduli, held as one uint64 block: an
    (L, N) array whose row j holds the residues mod ``moduli[j]``, every
    row in the same domain, or an (N,) row for a single modulus.

    ``Poly(block, moduli, domain)`` wraps a block without copying, with
    ``moduli`` a :class:`Modulus`, a sequence of them or their context;
    ``Poly(limbs)`` stacks a list of single-modulus polynomials. A limb
    taken from ``limbs`` is a view of its block, so writing through its
    ``coeffs[...]`` writes into the block.
    """

    __slots__ = ("_coeffs", "context", "domain")

    def __init__(self, coeffs, moduli=None, domain: Domain | None = None):
        if moduli is None:
            limbs = list(coeffs)
            if len({(limb.n, limb.domain) for limb in limbs}) != 1:
                raise BasisMismatch("limbs missing or disagreeing on length or domain")
            coeffs = np.stack([limb.coeffs for limb in limbs])
            moduli = [limb.modulus for limb in limbs]
            domain = limbs[0].domain
        context = basis_context((moduli,) if isinstance(moduli, Modulus) else moduli)
        rows, n = len(context.moduli), context.moduli[0].ring_dim
        if coeffs.dtype != np.uint64 or coeffs.shape != (rows, n) and (
                coeffs.shape != (n,) or rows != 1):
            raise BasisMismatch("block shape or dtype does not match the moduli")
        self._coeffs, self.context, self.domain = coeffs, context, domain

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def modulus(self) -> Modulus:
        return self.context.moduli[0]

    @property
    def moduli(self) -> tuple[Modulus, ...]:
        return self.context.moduli

    @property
    def n(self) -> int:
        return self._coeffs.shape[-1]

    @property
    def limbs(self) -> list["Poly"]:
        """One single-modulus :class:`Poly` per row, a view of the block."""
        return [Poly(row, m, self.domain) for row, m in zip(_block(self), self.moduli)]

    def like(self, block: np.ndarray, domain: Domain) -> "Poly":
        return Poly(block.reshape(self.coeffs.shape), self.context, domain)

    def copy(self) -> "Poly":
        return Poly(self.coeffs.copy(), self.context, self.domain)


def random_poly(m: Modulus, rng: np.random.Generator, domain: Domain = Domain.COEF) -> Poly:
    return Poly(rng.integers(0, m.q, m.ring_dim, dtype=np.uint64), m, domain)


def _block(p) -> np.ndarray:
    return p.coeffs.reshape(-1, p.n)


def _require(p, domain: Domain):
    if p.domain != domain:
        raise DomainMismatch(f"expected {domain}, got {p.domain}")


def _member(p, context: BasisContext | None, domain: Domain) -> BasisContext:
    """p's context, checked against the one of the batch read so far (None at first)."""
    _require(p, domain)
    if context is not None and p.context is not context:
        raise BasisMismatch("polynomials disagree on moduli or length")
    return p.context


def ntt_many(polys) -> list[Poly]:
    """``[ntt(p) for p in polys]`` bit for bit, over one context, in one stacked transform
    ([] for none); it keeps only each polynomial's subring slice while reading the next."""
    context, shapes, slices = None, [], []
    for p in polys:
        context = _member(p, context, Domain.COEF)
        block = _block(p)
        g = subring_gap(block)
        shapes.append(p.coeffs.shape)
        slices.append((g, block[:, ::g].copy() if g > 1 else block))
    if context is None:
        return []
    g, out = _forward_ntt(slices, context)
    # one array per polynomial: freeing a multi-MB stacked result raised malloc's mmap threshold
    return [Poly(spread(block, g).reshape(shape), context, Domain.NTT)
            for block, shape in zip(out, shapes)]


def ntt(p):
    return ntt_many([p])[0]


def ntt_subring(stacks, context: BasisContext) -> tuple[int, np.ndarray]:
    """The NTT-form polynomials B(X^g) over ``context`` of (g, stack) pairs, a
    (B, L, N/g) stack holding B's coefficients, in one transform, left in the
    subring: their common gap g and the (B, L, N/g) stack of every B's values,
    in stack order. ``spread`` of a row is its polynomial's (L, N) block.

    It reads the iterable to the end before transforming, so a caller can build
    each stack lazily."""
    return _forward_ntt(list(stacks), context)


def intt_many(polys, hat_inverse: bool = False) -> list[Poly]:
    """``[intt(p) for p in polys]`` bit for bit, over one context, in one stacked
    transform ([] for none); every polynomial is checked before it runs. With
    ``hat_inverse`` row j of every result is also multiplied by
    :attr:`BasisContext.hat_inverse`'s q̂_j^-1, in the same last multiply: the
    first step of a basis conversion (``rns.bconv``)."""
    polys, context = list(polys), None
    for p in polys:
        context = _member(p, context, Domain.NTT)
    if context is None:
        return []
    out = _inverse_ntt(np.stack([_block(p) for p in polys]), context, hat_inverse)
    return [p.like(block, Domain.COEF) for p, block in zip(polys, out)]


def intt(p):
    return intt_many([p])[0]


def to_ntt(p):
    return p if p.domain == Domain.NTT else ntt(p)


def to_coef(p):
    return p if p.domain == Domain.COEF else intt(p)


def _same_basis(a, b) -> Moduli:
    if a.context is not b.context:
        raise BasisMismatch("operands disagree on moduli or length")
    if a.domain != b.domain:
        raise DomainMismatch("operands in different domains")
    return a.context.block(a.n)


def pointwise_mul(a, b):
    return pointwise_mul_acc([(b, [a])])[0]


def pointwise_mul_acc(terms, partials=None, reduce: bool = True) -> list:
    """:func:`mod_mul_acc` over polynomials: for (f, polys) terms, sum i is the
    pointwise sum of polys[i] * f over the terms; a single term multiplies
    several polynomials by one shared operand. Each term must be over the
    first's basis and domain and is checked before its products run, reading
    its ``polys`` once; ``partials`` and ``reduce`` pass through, and reduced
    sums come back as polynomials like the first term's."""
    terms = iter(terms)
    f0, like = next(terms, (None, ()))
    if f0 is None:
        raise BasisMismatch("a sum of products needs at least one term")
    like = list(like)

    def blocks():
        for f, polys in itertools.chain([(f0, like)], terms):
            _same_basis(f, f0)
            polys = list(polys)
            for p in polys:
                _same_basis(p, f)
            yield _block(f), [_block(p) for p in polys]

    sums = mod_mul_acc(blocks(), f0.context.block(f0.n), partials, reduce)
    return [p.like(s, p.domain) for p, s in zip(like, sums)] if reduce else sums


def pointwise_add(a, b):
    q = _same_basis(a, b)
    return a.like(mod_add_vec(_block(a), _block(b), q.q), a.domain)


def pointwise_sub(a, b):
    q = _same_basis(a, b)
    return a.like(mod_sub_vec(_block(a), _block(b), q.q), a.domain)


def scalar_mul(p, c: int):
    """Multiply by the integer c, reduced mod every limb's modulus."""
    residues = np.array([[c % m.q] for m in p.moduli], dtype=np.uint64)
    return p.like(mod_mul_vec(_block(p), residues, p.context.block(p.n)), p.domain)


# ---------------------------------------------------------------------------
# automorphisms


@lru_cache(maxsize=None)
def coef_permutation(ring_dim: int, g_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter positions g_r*i mod N of x -> x^{g_r} and where the sign flips."""
    n = ring_dim
    idx = (np.arange(n, dtype=np.int64) * g_r) % (2 * n)
    return idx % n, idx >= n


def automorphism_block(block: np.ndarray, q: np.ndarray, g_r: int) -> np.ndarray:
    """x -> x^{g_r} on a (..., L, M) stack of coefficient blocks, row j mod q[j]:
    coefficient i lands at g_r*i mod 2M, negated whenever the exponent wraps
    past M. At M = N/g it acts on B for B(X^g), as x^{g_r} maps X^g to
    (X^g)^{g_r}, so it takes g_r mod 2M."""
    m = block.shape[-1]
    pos, flip = coef_permutation(m, g_r % (2 * m))
    out = np.empty_like(block)
    out[..., pos] = np.where(flip & (block != 0), q - block, block)
    return out


def automorphism_coef(p, rot: RotationIndex):
    """Substitution x -> x^{g_r} on one coefficient-domain polynomial."""
    _require(p, Domain.COEF)
    return p.like(automorphism_block(_block(p), p.context.q, rot.g_r), Domain.COEF)


@lru_cache(maxsize=None)
def eval_permutation(ring_dim: int, g_r: int) -> np.ndarray:
    """Gather indices realizing x -> x^{g_r} on bit-reversed NTT storage.

    Storage slot s holds the evaluation at root index bitrev(s); the
    substituted polynomial's value there comes from root index
    ((g_r*(2*bitrev(s)+1) mod 2N) - 1)/2 of the input.
    """
    n = ring_dim
    rev = bitrev_table(n)
    t = rev  # eval index per storage slot
    src_eval = ((g_r * (2 * t + 1)) % (2 * n) - 1) // 2
    src = rev[src_eval]
    assert np.array_equal(np.sort(src), np.arange(n)), "permutation must be a bijection"
    return src


def automorphism_eval(p, rot: RotationIndex):
    """NTT-domain automorphism: a pure index permutation, no transform."""
    _require(p, Domain.NTT)
    # take, not [:, idx], which lays the result out limb-innermost (Fortran order)
    return p.like(_block(p).take(eval_permutation(p.n, rot.g_r), axis=1), Domain.NTT)

