"""RNS tower over Q and PQ: limb-batched polynomials, basis conversion,
digit decomposition, modulus reduction, and rescaling.

An :class:`RnsPoly` is one (L, N) uint64 block: row j holds the residues
mod ``moduli[j]``, and every row is in the same domain. The kernels of
:mod:`ckkslt.ring` process all rows in one numpy call per step.

Limb ordering convention for polynomials over the raised modulus PQ:
the alpha special limbs come first, then the L+1 data limbs, i.e. rows
[p_0 .. p_{alpha-1}, q_0 .. q_L]. ModDown indexes its inputs under that
convention.

Basis conversion is the fast (error-carrying) variant: the converted
value equals the true one plus u * prod(source basis) for an integer
0 <= u <= len(source basis) - 1. The overshoot is absorbed into
ciphertext noise downstream, never corrected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .modarith import Modulus
from .ring import Domain, Poly, mod_mul_vec, mod_sub_vec, modulus_column, to_coef, to_ntt


class BasisOverlap(ValueError):
    """Source and target bases of a conversion share a modulus."""


class BasisMismatch(ValueError):
    """Polynomial limbs do not match the expected basis."""


class SingleLimb(ValueError):
    """Rescale would drop the last remaining limb."""


class RnsPoly:
    """A polynomial over a tuple of moduli, held as one (L, N) uint64 block.

    ``RnsPoly(limbs)`` stacks a list of one-limb :class:`Poly`;
    ``RnsPoly(block, moduli, domain)`` wraps a block without copying.
    """

    __slots__ = ("coeffs", "moduli", "domain")

    def __init__(self, coeffs, moduli=None, domain: Domain | None = None):
        if moduli is None:
            limbs = list(coeffs)
            if len({(limb.n, limb.domain) for limb in limbs}) != 1:
                raise BasisMismatch("limbs missing or disagreeing on length or domain")
            coeffs = np.stack([limb.coeffs for limb in limbs])
            moduli = [limb.modulus for limb in limbs]
            domain = limbs[0].domain
        moduli = tuple(moduli)
        if not moduli or coeffs.dtype != np.uint64 or coeffs.shape != (
                len(moduli), moduli[0].ring_dim):
            raise BasisMismatch("block shape or dtype does not match the moduli")
        self.coeffs = coeffs
        self.moduli = moduli
        self.domain = domain

    @property
    def limbs(self) -> list[Poly]:
        """One :class:`Poly` per row; its coefficients are a view of the block."""
        return [Poly(row, m, self.domain) for row, m in zip(self.coeffs, self.moduli)]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def like(self, block: np.ndarray, domain: Domain) -> "RnsPoly":
        return RnsPoly(block, self.moduli, domain)

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.coeffs.copy(), self.moduli, self.domain)


@dataclass
class RnsBasis:
    """Moduli of Q = q_0..q_L and P = p_0..p_{alpha-1} plus conversion tables."""

    q_moduli: tuple[Modulus, ...]
    p_moduli: tuple[Modulus, ...]
    _conv_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.q_moduli = tuple(self.q_moduli)
        self.p_moduli = tuple(self.p_moduli)
        values = [m.q for m in self.q_moduli + self.p_moduli]
        if len(set(values)) != len(values):
            raise ValueError("moduli must be pairwise distinct")

    @property
    def level_count(self) -> int:
        return len(self.q_moduli)

    @property
    def alpha(self) -> int:
        return len(self.p_moduli)

    @property
    def beta(self) -> int:
        return -(-self.level_count // self.alpha)

    @property
    def pq_moduli(self) -> tuple[Modulus, ...]:
        return self.p_moduli + self.q_moduli

    @property
    def q_product(self) -> int:
        return prod(m.q for m in self.q_moduli)

    @property
    def p_product(self) -> int:
        return prod(m.q for m in self.p_moduli)

    def digit_group(self, b: int) -> list[int]:
        """Indices into q_moduli forming digit group b."""
        alpha = self.alpha
        return list(range(b * alpha, min((b + 1) * alpha, self.level_count)))

    def digit_modulus(self, b: int) -> int:
        return prod(self.q_moduli[j].q for j in self.digit_group(b))

    def conversion_tables(self, src: tuple[Modulus, ...], dst: tuple[Modulus, ...]):
        """bconv constants: the (S, 1) column [qhat_j^-1]_{q_j} and the
        (D, S, 1) array qhat_j mod p_i."""
        key = (src, dst)
        if key not in self._conv_cache:
            src_vals = [m.q for m in src]
            hat = [prod(src_vals) // qj for qj in src_vals]
            hat_inv = [[pow(h % qj, -1, qj)] for h, qj in zip(hat, src_vals)]
            hat_mod_dst = [[[h % p.q] for h in hat] for p in dst]
            self._conv_cache[key] = (np.array(hat_inv, dtype=np.uint64),
                                     np.array(hat_mod_dst, dtype=np.uint64))
        return self._conv_cache[key]


@lru_cache(maxsize=None)
def _inverse_column(value: int, moduli: tuple[Modulus, ...]) -> np.ndarray:
    """value^-1 mod every modulus, as an (L, 1) uint64 column."""
    return np.array([[pow(value % m.q, -1, m.q)] for m in moduli], dtype=np.uint64)


def _sum_limbs(terms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum (D, S, N) terms, each < its row's modulus, over axis 1 mod the
    (D, 1) column q. Reducing every floor((2^64-1)/q_max) - 1 terms keeps
    each uint64 partial sum, carry included, below 2^64."""
    chunk = (2**64 - 1) // int(q.max()) - 1
    acc = np.zeros((terms.shape[0], terms.shape[2]), dtype=np.uint64)
    for s in range(0, terms.shape[1], chunk):
        acc = np.remainder(acc + terms[:, s:s + chunk].sum(axis=1, dtype=np.uint64), q)
    return acc


def bconv(p: RnsPoly, target, basis: RnsBasis) -> RnsPoly:
    """Fast basis conversion of a coefficient-domain polynomial.

    Output limb over p_i is sum_j [qhat_j^-1 a_j]_{q_j} * qhat_j mod p_i,
    which equals the exact value plus u * prod(src) with 0 <= u < len(src).
    """
    if p.domain != Domain.COEF:
        raise BasisMismatch("bconv requires coefficient domain")
    target = tuple(target)
    if {m.q for m in p.moduli} & {m.q for m in target}:
        raise BasisOverlap("source and target bases overlap")
    hat_inv, hat_mod_dst = basis.conversion_tables(p.moduli, target)
    scaled = mod_mul_vec(p.coeffs, hat_inv, modulus_column(p.moduli))
    q = modulus_column(target)
    terms = mod_mul_vec(scaled[None], hat_mod_dst, q[:, :, None])
    return RnsPoly(_sum_limbs(terms, q), target, Domain.COEF)


def decompose(c: RnsPoly, basis: RnsBasis) -> list[RnsPoly]:
    """Split into beta digits, each raised to the full PQ basis.

    Digit b keeps its own group's limbs verbatim and fills every other
    modulus of PQ by converting out of the group (the ModUp step). The
    digits are in c's domain; from the NTT domain only the group is
    inverse-transformed and only the converted limbs are transformed.
    """
    if len(c.moduli) != basis.level_count:
        raise BasisMismatch("decompose expects a full set of Q limbs")
    pq = basis.pq_moduli
    digits = []
    for b in range(basis.beta):
        group = basis.digit_group(b)
        rows = slice(group[0], group[-1] + 1)
        lo, hi = basis.alpha + rows.start, basis.alpha + rows.stop
        group_poly = RnsPoly(c.coeffs[rows], c.moduli[rows], c.domain)
        converted = bconv(to_coef(group_poly), pq[:lo] + pq[hi:], basis)
        converted = (to_ntt(converted) if c.domain == Domain.NTT else converted).coeffs
        block = np.empty((len(pq), c.n), dtype=np.uint64)
        block[:lo] = converted[:lo]
        block[lo:hi] = group_poly.coeffs
        block[hi:] = converted[lo:]
        digits.append(RnsPoly(block, pq, c.domain))
    return digits


def moddown(c: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """Divide by P and drop the special limbs: out over Q only, in c's domain.

    Expects PQ ordering [p..., q...]; the result approximates round(c/P)
    with additive error at most alpha from the conversion overshoot. From
    the NTT domain only the special limbs are inverse-transformed: the
    correction is linear, so it applies to the transformed data limbs.
    """
    alpha = basis.alpha
    if len(c.moduli) != alpha + basis.level_count:
        raise BasisMismatch("moddown expects PQ limbs")
    p_part = RnsPoly(c.coeffs[:alpha], c.moduli[:alpha], c.domain)
    conv = bconv(to_coef(p_part), basis.q_moduli, basis)
    conv = to_ntt(conv) if c.domain == Domain.NTT else conv
    q = modulus_column(basis.q_moduli)
    diff = mod_sub_vec(c.coeffs[alpha:], conv.coeffs, q)
    p_inv = _inverse_column(basis.p_product, basis.q_moduli)
    return RnsPoly(mod_mul_vec(diff, p_inv, q), basis.q_moduli, c.domain)


def rescale(c: RnsPoly) -> RnsPoly:
    """Drop the top limb and divide by its modulus (rounding error <= 1)."""
    if c.domain != Domain.COEF:
        raise BasisMismatch("rescale requires coefficient domain")
    if len(c.moduli) < 2:
        raise SingleLimb("cannot rescale a single-limb polynomial")
    kept = c.moduli[:-1]
    q = modulus_column(kept)
    reduced = np.remainder(c.coeffs[-1], q)
    diff = mod_sub_vec(c.coeffs[:-1], reduced, q)
    inv = _inverse_column(c.moduli[-1].q, kept)
    return RnsPoly(mod_mul_vec(diff, inv, q), kept, Domain.COEF)


# ---------------------------------------------------------------------------
# exact reconstruction helpers (shared by decode and the test oracles)


def crt_reconstruct(p: RnsPoly) -> list[int]:
    """Exact values in [0, M) via the Chinese remainder theorem."""
    mods = [m.q for m in p.moduli]
    big = prod(mods)
    weights = [big // q for q in mods]
    weights = np.array([[c * pow(c % q, -1, q) % big] for c, q in zip(weights, mods)],
                       dtype=object)
    return ((p.coeffs.astype(object) * weights).sum(axis=0) % big).tolist()


def crt_reconstruct_centered(p: RnsPoly) -> list[int]:
    """Exact values lifted into (-M/2, M/2]."""
    big = prod(m.q for m in p.moduli)
    return [v - big if v > big // 2 else v for v in crt_reconstruct(p)]


def rns_from_ints(values, moduli, domain: Domain = Domain.COEF) -> RnsPoly:
    """Reduce arbitrary (possibly negative) integers into every limb."""
    moduli = tuple(moduli)
    q = modulus_column(moduli)
    try:
        ints = np.asarray(values, dtype=np.int64)
    except OverflowError:
        block = np.array(values, dtype=object)[None] % q.astype(object)
    else:
        block = np.remainder(ints[None], q.astype(np.int64))
    return RnsPoly(block.astype(np.uint64), moduli, domain)
