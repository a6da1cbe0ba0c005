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
Each moduli tuple has one interned :class:`BasisContext` holding the
moduli as an (L, 1) column, whether the block takes the float path, and
the stacked twiddle tables, built on first use per transform length.
The polynomial functions take :class:`Poly`, the one polynomial class:
an (L, N) block, or an (N,) row for a single modulus, with its
``context`` (whose ``moduli`` it exposes) and ``domain``; ``like`` hands
the context on to a kernel's result.

Vectorized modular multiplication: for q < 2^51 the quotient of the
128-bit product is estimated in float64 and rounded to nearest, which
leaves the residual, recovered exactly through uint64 wraparound, in
(-q, q); one wraparound minimum then gives the residue, with no integer
division (the bound is proved next to ``_mul_fast``). A block with any
wider row takes object-dtype (native big-int) arithmetic on every row.

The butterfly stages keep their inner axis long: once a stage's blocks
outnumber their half-length, the block is permuted to bit-reversed
storage, where the remaining stages pair elements whole block-index runs
apart, and it is permuted back at the end.

The forward transform runs on the subring a block lies in: when every row is
zero off the multiples of g (the largest such power of two), the polynomial is
B(X^g), and the (N/g)-point transform of B with root psi^g, spread to N slots,
is its transform. A vector of period n over the N/2 slots encodes to such a
polynomial with g = N/(2n), the sparse packing of Cheon, Han, Kim, Kim and Song
(EUROCRYPT 2018), so a packed n-slot diagonal costs a 2n-point transform.
:func:`ntt_many` stacks many blocks' slices on their common (smallest) gap,
zero-filling wider ones, and :func:`ntt` is its one-block case. The gap is read
off the integer residues, so the result is the full-length transform bit for
bit; a dense block pays one strided test. The inverse always runs at length N.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .modarith import Modulus

FAST_LIMIT = 1 << 51  # the bound proved next to _mul_fast
_ROUND = np.float64(2.0**52)
_ROUND_BITS = _ROUND.view(np.uint64)


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


def _mul_fast(a, b, q):
    # Error bound (a float-quotient reduction in the manner of Harvey,
    # J. Symb. Comp. 2014). Let q < 2^51 and a, b < 2^51 with one of them < q,
    # so a, b, q are exact in float64 and ab/q < 2^51 - 1.
    # - Two roundings, each of relative error <= 2^-53, give x = fl(a * fl(b/q))
    #   with |x - ab/q| <= (ab/q)(2^-52 + 2^-106) < (2^51 - 1)(2^-52 + 2^-106) < 1/2.
    # - 0 <= x < 2^52, so fl(x + 2^52) = 2^52 + t with t the integer nearest to
    #   x; its low 52 bits are t, and |x - t| <= 1/2.
    # - Hence |ab/q - t| < 1: the residual r = ab - tq lies in (-q, q) and is
    #   exact through uint64 wraparound.
    # - min(r, r + q) as uint64 is r mod q: a negative r wraps above 2^63,
    #   where r + q lands in [0, q).
    b = np.asarray(b, np.uint64)
    # operands and moduli are below 2^63: their int64 views convert to float faster
    quot = np.multiply(a.view(np.int64), np.true_divide(b.view(np.int64), q.astype(np.float64)))
    quot += _ROUND
    t = quot.view(np.uint64)
    t -= _ROUND_BITS
    t *= q
    r = np.multiply(a, b, out=np.empty_like(t))
    r -= t
    np.add(r, q, out=t)
    return np.minimum(r, t, out=r)


def _mul_exact(a, b, q):
    return (a.astype(object) * b.astype(object) % q.astype(object)).astype(np.uint64)


def mod_mul_vec(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """Elementwise a*b mod q for uint64 operands, result in [0, q).

    ``q`` is a uint64 array with the limb axis first that broadcasts
    against the operands (an (L, 1) column for (L, N) blocks); a plain int
    is taken as a 0-d array.

    The whole block takes one route: if every q is below FAST_LIMIT (2^51),
    the float-quotient path, whose operands must both lie below FAST_LIMIT
    with one below its row's q (a residue times a residue of the same row
    always does); otherwise the exact path, which takes any uint64
    operands. A caller that multiplies residues of a wider modulus by a
    narrower one reduces them first (see :func:`ckkslt.rns.bconv`).
    """
    q = np.asarray(q, np.uint64)
    return (_mul_fast if q.max() < FAST_LIMIT else _mul_exact)(a, b, q)


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


def _switch_stage(n: int) -> int:
    """Block count of the first butterfly stage whose blocks outnumber their
    half-length t = n/(2*mm); n when no stage does (n = 2)."""
    mm = 1
    while mm <= n // (2 * mm):
        mm *= 2
    return mm


def _readonly(values) -> np.ndarray:
    table = np.asarray(values, dtype=np.uint64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _stage_order(n: int) -> np.ndarray:
    """Column order of an n-point twiddle table: columns mm..2mm-1 hold the
    twiddles of the stage with mm blocks, in the order that stage reads them:
    block j's twiddle at j on natural storage, at bitrev(j) over log2(mm)
    bits on bit-reversed storage."""
    order = np.arange(n)
    mm = _switch_stage(n)
    while mm < n:
        order[mm : 2 * mm] = mm + bitrev_table(mm)
        mm *= 2
    return order


@dataclass(frozen=True, eq=False)
class BasisContext:
    """The constants of one moduli tuple. Interned by :func:`basis_context`,
    so two polynomials share a basis exactly when they share the object."""

    moduli: tuple[Modulus, ...]
    q: np.ndarray  # the moduli as a read-only (L, 1) uint64 column
    fast: bool  # every q below FAST_LIMIT, so mod_mul_vec takes the float path
    _psi: dict = field(default_factory=dict, init=False, repr=False)

    def psi_table(self, n: int) -> np.ndarray:
        """Stacked (L, n) forward twiddles of the n-point transform, read-only
        and built on first use per length.

        The n-point transform's root is psi^(N/n), a primitive 2n-th root of
        unity, with psi each modulus's 2N-th root; columns follow
        :func:`_stage_order`.
        """
        table = self._psi.get(n)
        if table is None:
            step = self.moduli[0].ring_dim // n
            table = np.stack([_powers(m.q, pow(m.two_n_root, step, m.q), n)
                              for m in self.moduli])[:, _stage_order(n)]
            table = self._psi[n] = _readonly(table)
        return table

    @cached_property
    def inverse_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The N-point inverse twiddles, stacked (L, N) in :func:`_stage_order`,
        and the N^-1 column, read-only."""
        n = self.moduli[0].ring_dim
        ipsi = np.stack([_powers(m.q, pow(m.two_n_root, -1, m.q), n) for m in self.moduli])
        return _readonly(ipsi[:, _stage_order(n)]), _readonly([[m.n_inv] for m in self.moduli])

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


def _stage(a: np.ndarray, mm: int, switch: int, table: np.ndarray):
    """Butterfly halves of the stage with mm blocks of length 2t, and the
    stage's twiddles broadcast against them.

    Before the switch stage, storage is natural: an (..., L, mm, 2, t) view
    pairs elements t apart inside each block. From it on, storage is
    bit-reversed (slot bitrev(i) holds element i), where the same pairs are
    (..., L, t, 2, mm) with the block index innermost, so every stage walks
    runs of at least sqrt(N/2) contiguous elements.
    """
    lead, n = a.shape[:-1], a.shape[-1]
    t = n // (2 * mm)
    twiddles = table[:, mm : 2 * mm]
    if mm < switch:
        view, twiddles = a.reshape(*lead, mm, 2, t), twiddles[:, :, None]
    else:
        view, twiddles = a.reshape(*lead, t, 2, mm), twiddles[:, None, :]
    return view[..., 0, :], view[..., 1, :], twiddles


def _butterflies(values: np.ndarray, psi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The n-point forward transforms of a block or stack with twiddle table psi."""
    n = values.shape[-1]
    switch = _switch_stage(n)
    a = values.copy()
    mm = 1
    while mm < n:
        if mm == switch:  # enter bit-reversed storage
            a = a.take(bitrev_table(n), axis=-1)
        lo, hi, twiddles = _stage(a, mm, switch, psi)
        v = mod_mul_vec(hi, twiddles, q)
        lo[...], hi[...] = mod_add_vec(lo, v, q), mod_sub_vec(lo, v, q)
        mm *= 2
    return a.take(bitrev_table(n), axis=-1) if switch < n else a


def _subring_gap(values: np.ndarray) -> int:
    """The largest power of two g such that every row of a block (or stack) is
    zero off the multiples of g: the block lies in Z_q[X^g]. N for constants;
    1, after one strided test, for a dense block."""
    n = values.shape[-1]
    g = 1
    while g < n and not values[..., g :: 2 * g].any():
        g *= 2
    return g


def _forward_ntt(slices: list, context: BasisContext) -> list[np.ndarray]:
    """The (L, N) transforms of B (g, slice on gap g) pairs; empties the list."""
    # A block in Z_q[X^g] is B(X^g) with deg B < M = N/g. Its value at
    # psi^(2e+1) is B's at (psi^g)^(2e+1), which depends on e mod M only, so
    # the M-point transform of B with root psi^g yields all N values: storage
    # slot s takes sub-slot bitrev_M(bitrev_N(s) mod M), which is s // g.
    # A block in Z_q[X^g'] lies in Z_q[X^g] for g dividing g'.
    g = min(gap for gap, _ in slices)
    stack = slices[0][1][None]
    if len(slices) > 1:
        stack = np.zeros((len(slices), len(context.q), context.moduli[0].ring_dim // g), np.uint64)
        for i, (gap, sub) in enumerate(slices):
            stack[i, :, :: gap // g] = sub
    slices.clear()
    sub = _butterflies(stack, context.psi_table(stack.shape[-1]), context.q[:, :, None])
    del stack
    # one array per block: freeing a multi-MB stacked result raised malloc's mmap threshold
    return [np.repeat(block, g, axis=-1) for block in sub] if g > 1 else list(sub)


def _inverse_ntt(values: np.ndarray, context: BasisContext) -> np.ndarray:
    ipsi, n_inv = context.inverse_tables
    q = context.q[:, :, None]
    n = values.shape[1]
    switch = _switch_stage(n)
    a = values.take(bitrev_table(n), axis=1) if switch < n else values.copy()
    mm = n // 2
    while mm >= 1:
        if mm == switch // 2 and switch < n:  # back to natural storage
            a = a.take(bitrev_table(n), axis=1)
        lo, hi, twiddles = _stage(a, mm, switch, ipsi)
        lo[...], hi[...] = mod_add_vec(lo, hi, q), mod_mul_vec(mod_sub_vec(lo, hi, q), twiddles, q)
        mm //= 2
    return mod_mul_vec(a, n_inv, q[:, :, 0])


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
    ``Poly(limbs)`` stacks a list of single-modulus polynomials. Assigning
    to ``coeffs`` writes into the existing array, so a limb taken from
    ``limbs`` stays a view of its block.
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

    @coeffs.setter
    def coeffs(self, values):
        self._coeffs[...] = values

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


def zero_poly(m: Modulus, domain: Domain = Domain.COEF) -> Poly:
    return Poly(np.zeros(m.ring_dim, dtype=np.uint64), m, domain)


def random_poly(m: Modulus, rng: np.random.Generator, domain: Domain = Domain.COEF) -> Poly:
    return Poly(rng.integers(0, m.q, m.ring_dim, dtype=np.uint64), m, domain)


def _block(p) -> np.ndarray:
    return p.coeffs.reshape(-1, p.n)


def _require(p, domain: Domain):
    if p.domain != domain:
        raise DomainMismatch(f"expected {domain}, got {p.domain}")


def ntt_many(polys) -> list[Poly]:
    """``[ntt(p) for p in polys]`` bit for bit, over one context, in one stacked transform
    ([] for none); it keeps only each polynomial's subring slice while reading the next."""
    context, shapes, slices = None, [], []
    for p in polys:
        _require(p, Domain.COEF)
        context = context or p.context
        if p.context is not context:
            raise BasisMismatch("polynomials disagree on moduli or length")
        block = _block(p)
        g = _subring_gap(block)
        shapes.append(p.coeffs.shape)
        slices.append((g, block[:, ::g].copy() if g > 1 else block))
    if context is None:
        return []
    out = _forward_ntt(slices, context)
    return [Poly(block.reshape(shape), context, Domain.NTT) for block, shape in zip(out, shapes)]


def ntt(p):
    return ntt_many([p])[0]


def intt(p):
    _require(p, Domain.NTT)
    return p.like(_inverse_ntt(_block(p), p.context), Domain.COEF)


def to_ntt(p):
    return p if p.domain == Domain.NTT else ntt(p)


def to_coef(p):
    return p if p.domain == Domain.COEF else intt(p)


def _same_basis(a, b):
    if a.context is not b.context:
        raise BasisMismatch("operands disagree on moduli or length")
    if a.domain != b.domain:
        raise DomainMismatch("operands in different domains")
    return a.context.q


def pointwise_mul(a, b):
    q = _same_basis(a, b)
    return a.like(mod_mul_vec(_block(a), _block(b), q), a.domain)


def pointwise_add(a, b):
    q = _same_basis(a, b)
    return a.like(mod_add_vec(_block(a), _block(b), q), a.domain)


def pointwise_sub(a, b):
    q = _same_basis(a, b)
    return a.like(mod_sub_vec(_block(a), _block(b), q), a.domain)


def scalar_mul(p, c: int):
    """Multiply by the integer c, reduced mod every limb's modulus."""
    residues = np.array([[c % m.q] for m in p.moduli], dtype=np.uint64)
    return p.like(mod_mul_vec(_block(p), residues, p.context.q), p.domain)


# ---------------------------------------------------------------------------
# automorphisms


@lru_cache(maxsize=None)
def coef_permutation(ring_dim: int, g_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter positions g_r*i mod N of x -> x^{g_r} and where the sign flips."""
    n = ring_dim
    idx = (np.arange(n, dtype=np.int64) * g_r) % (2 * n)
    return idx % n, idx >= n


def automorphism_coef(p, rot: RotationIndex):
    """Substitution x -> x^{g_r}: coefficient i lands at g_r*i mod 2N,
    negated whenever the exponent wraps past N."""
    _require(p, Domain.COEF)
    block = _block(p)
    pos, flip = coef_permutation(p.n, rot.g_r)
    out = np.empty_like(block)
    out[:, pos] = np.where(flip & (block != 0), p.context.q - block, block)
    return p.like(out, Domain.COEF)


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
    return p.like(_block(p)[:, eval_permutation(p.n, rot.g_r)], Domain.NTT)


def negacyclic_mul_schoolbook(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """O(N^2) reference product mod (x^N + 1, q), exact big-int arithmetic."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return np.array(out, dtype=np.uint64)
