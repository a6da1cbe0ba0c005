"""Negacyclic polynomial ring Z_q[x]/(x^N + 1), batched over RNS limbs.

Polynomials live either in coefficient form or in evaluation (NTT) form.
The forward transform takes natural-order coefficients to bit-reversed
evaluation order: position s of an NTT-domain polynomial holds the value
at the root psi^(2*bitrev(s)+1). That layout is load-bearing: the banked
permutation network in :mod:`ckkslt.permutation` derives its address math
from it, so it is not configurable.

Every kernel works on a block: an (L, N) uint64 array whose row j holds
residues mod the j-th of L moduli, with the moduli as an (L, 1) column
and, for the transforms, stacked (L, N) twiddle tables, so one numpy call
per butterfly stage or per operation covers all limbs. The polynomial
functions take :class:`Poly` (one limb) or :class:`ckkslt.rns.RnsPoly`;
both carry ``coeffs``, ``moduli``, ``domain``, ``n`` and ``like``.

Vectorized modular multiplication: for q < 2^53 the quotient of the
128-bit product is approximated in float64 and the residual recovered
exactly through uint64 wraparound; the approximation error is at most a
few multiples of q, removed by one exact remainder. Wider moduli fall
back to object-dtype (native big-int) arithmetic; a block that mixes
widths splits its rows between the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .modarith import Modulus

_FAST_LIMIT = 1 << 53


class DomainMismatch(ValueError):
    """Operation received a polynomial in the wrong domain."""


class ModulusMismatch(ValueError):
    """Operands carry different moduli or lengths."""


class Domain(enum.Enum):
    COEF = "coefficient"
    NTT = "ntt"


# ---------------------------------------------------------------------------
# vector kernels


def _mul_fast(a, b, q):
    # the truncated quotient is floor(a*b/q) up to a few units: non-negative
    quot = a.astype(np.float64) * (np.asarray(b, np.float64) / np.asarray(q, np.float64))
    r = a * np.asarray(b, np.uint64) - quot.astype(np.uint64) * np.asarray(q, np.uint64)
    return np.remainder(r.view(np.int64), np.asarray(q, np.int64)).view(np.uint64)


def _mul_exact(a, b, q):
    prod = a.astype(object) * (b.astype(object) if isinstance(b, np.ndarray) else int(b))
    return (prod % (q.astype(object) if isinstance(q, np.ndarray) else q)).astype(np.uint64)


def mod_mul_vec(a: np.ndarray, b, q) -> np.ndarray:
    """Elementwise a*b mod q for uint64 operands.

    ``q`` is an int, or a uint64 array with the limb axis first that
    broadcasts against the operands (an (L, 1) column for (L, N) blocks).
    Requires one operand < q and the other < 2^53 on rows that take the
    fast path; arbitrary word-sized values go through the exact path.
    """
    if not isinstance(q, np.ndarray):
        q = int(q)
        return _mul_exact(a, b, q) if q >= _FAST_LIMIT else _mul_fast(a, b, q)
    wide = q.reshape(-1) >= _FAST_LIMIT
    if not wide.any():
        return _mul_fast(a, b, q)
    if wide.all():
        return _mul_exact(a, b, q)
    out = np.empty(np.broadcast_shapes(a.shape, np.shape(b), q.shape), dtype=np.uint64)
    for rows, kernel in ((~wide, _mul_fast), (wide, _mul_exact)):
        # operands without a limb axis of their own broadcast over every row
        a_rows, b_rows = (x[rows] if np.ndim(x) and len(x) == len(rows) else x for x in (a, b))
        out[rows] = kernel(a_rows, b_rows, q[rows])
    return out


def mod_add_vec(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    s = a + b
    # s - q wraps above s exactly when s < q, so the minimum is s mod q
    return np.minimum(s, s - np.asarray(q, np.uint64))


def mod_sub_vec(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    d = a - b
    return np.minimum(d, d + np.asarray(q, np.uint64))


@lru_cache(maxsize=None)
def modulus_column(moduli: tuple[Modulus, ...]) -> np.ndarray:
    """The moduli as a read-only (L, 1) uint64 column."""
    col = np.array([[m.q] for m in moduli], dtype=np.uint64)
    col.flags.writeable = False
    return col


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


@lru_cache(maxsize=None)
def _block_tables(moduli: tuple[Modulus, ...]):
    """Stacked (L, N) butterfly twiddles (psi powers and their inverses in
    bit-reversed index order) plus the N^-1 column, read-only."""
    psi = np.stack([_powers(m.q, m.two_n_root, m.ring_dim) for m in moduli])
    ipsi = np.stack([_powers(m.q, pow(m.two_n_root, -1, m.q), m.ring_dim) for m in moduli])
    n_inv = np.array([[m.n_inv] for m in moduli], dtype=np.uint64)
    for table in (psi, ipsi, n_inv):
        table.flags.writeable = False
    return psi, ipsi, n_inv


def _forward_ntt(values: np.ndarray, moduli: tuple[Modulus, ...]) -> np.ndarray:
    psi_rev, _, _ = _block_tables(moduli)
    q = modulus_column(moduli)[:, :, None]
    a = values.copy()
    limbs, n = a.shape
    t = n
    mm = 1
    while mm < n:
        t //= 2
        view = a.reshape(limbs, mm, 2 * t)
        lo = view[:, :, :t].copy()
        v = mod_mul_vec(view[:, :, t:], psi_rev[:, mm : 2 * mm, None], q)
        view[:, :, :t] = mod_add_vec(lo, v, q)
        view[:, :, t:] = mod_sub_vec(lo, v, q)
        mm *= 2
    return a


def _inverse_ntt(values: np.ndarray, moduli: tuple[Modulus, ...]) -> np.ndarray:
    _, ipsi_rev, n_inv = _block_tables(moduli)
    q = modulus_column(moduli)[:, :, None]
    a = values.copy()
    limbs, n = a.shape
    t = 1
    mm = n
    while mm > 1:
        h = mm // 2
        view = a.reshape(limbs, h, 2 * t)
        lo = view[:, :, :t].copy()
        hi = view[:, :, t:].copy()
        view[:, :, :t] = mod_add_vec(lo, hi, q)
        view[:, :, t:] = mod_mul_vec(mod_sub_vec(lo, hi, q), ipsi_rev[:, h : 2 * h, None], q)
        t *= 2
        mm //= 2
    return mod_mul_vec(a, n_inv, q[:, :, 0])


# ---------------------------------------------------------------------------
# rotation indices and polynomials

ROTATION_GENERATOR = 5


@dataclass(frozen=True)
class RotationIndex:
    """Slot offset r together with the automorphism exponent g^r mod 2N."""

    r: int
    ring_dim: int
    g_r: int = 0

    def __post_init__(self):
        n = self.ring_dim
        if not 0 <= self.r < n // 2:
            raise ValueError(f"rotation {self.r} outside [0, N/2)")
        g_r = pow(ROTATION_GENERATOR, self.r, 2 * n)
        object.__setattr__(self, "g_r", g_r)
        assert g_r % 2 == 1

    def inverse(self) -> "RotationIndex":
        half = self.ring_dim // 2
        return RotationIndex((half - self.r) % half, self.ring_dim)


class Poly:
    """One residue polynomial: N values mod a single prime.

    The one-limb case of :class:`ckkslt.rns.RnsPoly`. Assigning to
    ``coeffs`` writes into the existing array, so a limb taken from
    ``RnsPoly.limbs`` stays a view of its block.
    """

    __slots__ = ("_coeffs", "modulus", "domain")

    def __init__(self, coeffs: np.ndarray, modulus: Modulus, domain: Domain):
        if coeffs.dtype != np.uint64:
            coeffs = coeffs.astype(np.uint64)
        if coeffs.shape != (modulus.ring_dim,):
            raise ModulusMismatch("coefficient count != ring dimension")
        self._coeffs = coeffs
        self.modulus = modulus
        self.domain = domain

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @coeffs.setter
    def coeffs(self, values):
        self._coeffs[...] = values

    @property
    def moduli(self) -> tuple[Modulus]:
        return (self.modulus,)

    @property
    def n(self) -> int:
        return self.modulus.ring_dim

    def like(self, block: np.ndarray, domain: Domain) -> "Poly":
        return Poly(block.reshape(-1), self.modulus, domain)

    def copy(self) -> "Poly":
        return Poly(self.coeffs.copy(), self.modulus, self.domain)


def zero_poly(m: Modulus, domain: Domain = Domain.COEF) -> Poly:
    return Poly(np.zeros(m.ring_dim, dtype=np.uint64), m, domain)


def random_poly(m: Modulus, rng: np.random.Generator, domain: Domain = Domain.COEF) -> Poly:
    return Poly(rng.integers(0, m.q, m.ring_dim, dtype=np.uint64), m, domain)


def _block(p) -> np.ndarray:
    return p.coeffs.reshape(-1, p.n)


def _require(p, domain: Domain):
    if p.domain != domain:
        raise DomainMismatch(f"expected {domain}, got {p.domain}")


def ntt(p):
    _require(p, Domain.COEF)
    return p.like(_forward_ntt(_block(p), p.moduli), Domain.NTT)


def intt(p):
    _require(p, Domain.NTT)
    return p.like(_inverse_ntt(_block(p), p.moduli), Domain.COEF)


def to_ntt(p):
    return p if p.domain == Domain.NTT else ntt(p)


def to_coef(p):
    return p if p.domain == Domain.COEF else intt(p)


def _same_basis(a, b):
    if a.moduli != b.moduli:
        raise ModulusMismatch("operands disagree on moduli or length")
    if a.domain != b.domain:
        raise DomainMismatch("operands in different domains")
    return modulus_column(a.moduli)


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
    return p.like(mod_mul_vec(_block(p), residues, modulus_column(p.moduli)), p.domain)


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
    out[:, pos] = np.where(flip & (block != 0), modulus_column(p.moduli) - block, block)
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
