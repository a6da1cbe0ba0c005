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

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .modarith import Modulus
from .ring import (BasisContext, BasisMismatch, Domain, DomainMismatch, Poly, basis_context,
                   mod_mul_vec, mod_sub_vec, to_coef, to_ntt)


class BasisOverlap(ValueError):
    """Source and target bases of a conversion share a modulus."""


class SingleLimb(ValueError):
    """Rescale would drop the last remaining limb."""


class RnsPoly(Poly):
    """A polynomial over a tuple of moduli, held as one (L, N) uint64 block.

    ``RnsPoly(limbs)`` stacks a list of one-limb :class:`Poly`;
    ``RnsPoly(block, moduli, domain)`` wraps a block without copying, with
    ``moduli`` a sequence of :class:`Modulus` or their context.
    """

    __slots__ = ()

    def __init__(self, coeffs, moduli=None, domain: Domain | None = None):
        if moduli is None:
            limbs = list(coeffs)
            if len({(limb.n, limb.domain) for limb in limbs}) != 1:
                raise BasisMismatch("limbs missing or disagreeing on length or domain")
            coeffs = np.stack([limb.coeffs for limb in limbs])
            moduli = [limb.modulus for limb in limbs]
            domain = limbs[0].domain
        context = basis_context(moduli)
        if coeffs.dtype != np.uint64 or coeffs.shape != (
                len(context.moduli), context.moduli[0].ring_dim):
            raise BasisMismatch("block shape or dtype does not match the moduli")
        self._coeffs, self.context, self.domain = coeffs, context, domain

    @property
    def limbs(self) -> list[Poly]:
        """One :class:`Poly` per row; its coefficients are a view of the block."""
        return [Poly(row, m, self.domain) for row, m in zip(self.coeffs, self.moduli)]


@dataclass
class RnsBasis:
    """Moduli of Q = q_0..q_L and P = p_0..p_{alpha-1}; the contexts of Q, P,
    PQ and of each digit's group and its PQ complement; P^-1 mod Q."""

    q_moduli: tuple[Modulus, ...]
    p_moduli: tuple[Modulus, ...]

    def __post_init__(self):
        self.q_moduli = tuple(self.q_moduli)
        self.p_moduli = tuple(self.p_moduli)
        values = [m.q for m in self.q_moduli + self.p_moduli]
        if len(set(values)) != len(values):
            raise BasisOverlap("moduli must be pairwise distinct")
        self.q_context = basis_context(self.q_moduli)
        self.p_context = basis_context(self.p_moduli)
        self.pq_context = basis_context(self.pq_moduli)
        # per digit: its rows of Q, their context, and the rest of PQ's
        pq, alpha = self.pq_moduli, self.alpha
        self.digit_contexts = []
        for b in range(self.beta):
            group = self.digit_group(b)
            rows = slice(group[0], group[-1] + 1)
            rest = pq[:alpha + rows.start] + pq[alpha + rows.stop:]
            self.digit_contexts.append(
                (rows, basis_context(self.q_moduli[rows]), basis_context(rest)))
        big_p = self.p_product
        self.p_inverse = np.array([[pow(big_p % m.q, -1, m.q)] for m in self.q_moduli], np.uint64)

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


@lru_cache(maxsize=None)
def _conversion_tables(src: BasisContext, dst: BasisContext):
    """bconv constants: the (S, 1) column [qhat_j^-1]_{q_j} and the
    (D, S, 1) array qhat_j mod p_i."""
    src_vals = [m.q for m in src.moduli]
    if set(src_vals) & {m.q for m in dst.moduli}:
        raise BasisOverlap("source and target bases overlap")
    hat = [prod(src_vals) // qj for qj in src_vals]
    hat_inv = [[pow(h % qj, -1, qj)] for h, qj in zip(hat, src_vals)]
    hat_mod_dst = [[[h % p.q] for h in hat] for p in dst.moduli]
    return np.array(hat_inv, dtype=np.uint64), np.array(hat_mod_dst, dtype=np.uint64)


def _sum_limbs(terms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum (D, S, N) terms, each < its row's modulus, over axis 1 mod the
    (D, 1) column q. Reducing every floor((2^64-1)/q_max) - 1 terms keeps
    each uint64 partial sum, carry included, below 2^64."""
    chunk = (2**64 - 1) // int(q.max()) - 1
    acc = np.zeros((terms.shape[0], terms.shape[2]), dtype=np.uint64)
    for s in range(0, terms.shape[1], chunk):
        acc = np.remainder(acc + terms[:, s:s + chunk].sum(axis=1, dtype=np.uint64), q)
    return acc


def bconv(p: RnsPoly, target) -> RnsPoly:
    """Fast basis conversion of a coefficient-domain polynomial to ``target``.

    Output limb over p_i is sum_j [qhat_j^-1 a_j]_{q_j} * qhat_j mod p_i,
    which equals the exact value plus u * prod(src) with 0 <= u < len(src).
    The residues of a source that is not on the float path are reduced
    mod p_i first when the target is, as that path's contract requires.
    """
    if p.domain != Domain.COEF:
        raise DomainMismatch("bconv requires coefficient domain")
    src, dst = p.context, basis_context(target)
    hat_inv, hat_mod_dst = _conversion_tables(src, dst)
    scaled = mod_mul_vec(p.coeffs, hat_inv, src.q)[None]
    q = dst.q[:, :, None]
    if dst.fast and not src.fast:
        scaled = np.remainder(scaled, q)
    terms = mod_mul_vec(scaled, hat_mod_dst, q)
    return RnsPoly(_sum_limbs(terms, dst.q), dst, Domain.COEF)


def decompose(c: RnsPoly, basis: RnsBasis) -> list[RnsPoly]:
    """Split into beta digits, each raised to the full PQ basis.

    Digit b keeps its own group's limbs verbatim and fills every other
    modulus of PQ by converting out of the group (the ModUp step). The
    digits are in c's domain; from the NTT domain only the group is
    inverse-transformed and only the converted limbs are transformed.

    Only top-level input is accepted: c must be over exactly the Q basis
    of ``basis``, and an input below the top level (a limb dropped by
    rescaling) raises :class:`BasisMismatch`, because the digit groups
    and the switching keys are laid out for the full basis.
    """
    if c.context is not basis.q_context:
        raise BasisMismatch("decompose expects a full set of Q limbs")
    pq = basis.pq_context
    digits = []
    for rows, group, rest in basis.digit_contexts:
        lo, hi = basis.alpha + rows.start, basis.alpha + rows.stop
        group_poly = RnsPoly(c.coeffs[rows], group, c.domain)
        converted = bconv(to_coef(group_poly), rest)
        converted = (to_ntt(converted) if c.domain == Domain.NTT else converted).coeffs
        block = np.empty((len(pq.moduli), c.n), dtype=np.uint64)
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
    if c.context is not basis.pq_context:
        raise BasisMismatch("moddown expects PQ limbs")
    p_part = RnsPoly(c.coeffs[:alpha], basis.p_context, c.domain)
    conv = bconv(to_coef(p_part), basis.q_context)
    conv = to_ntt(conv) if c.domain == Domain.NTT else conv
    q = basis.q_context.q
    diff = mod_sub_vec(c.coeffs[alpha:], conv.coeffs, q)
    return RnsPoly(mod_mul_vec(diff, basis.p_inverse, q), basis.q_context, c.domain)


def rescale(c: RnsPoly) -> RnsPoly:
    """Drop the top limb and divide by its modulus (rounding error <= 1)."""
    if c.domain != Domain.COEF:
        raise DomainMismatch("rescale requires coefficient domain")
    if len(c.moduli) < 2:
        raise SingleLimb("cannot rescale a single-limb polynomial")
    kept = basis_context(c.moduli[:-1])
    reduced = np.remainder(c.coeffs[-1], kept.q)
    diff = mod_sub_vec(c.coeffs[:-1], reduced, kept.q)
    return RnsPoly(mod_mul_vec(diff, c.context.top_inverse, kept.q), kept, Domain.COEF)


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


def rns_from_ints(values, moduli) -> RnsPoly:
    """Reduce arbitrary (possibly negative) integers into every limb,
    coefficient domain."""
    context = basis_context(moduli)
    q = context.q
    try:
        ints = np.asarray(values, dtype=np.int64)
    except OverflowError:
        block = np.array(values, dtype=object)[None] % q.astype(object)
    else:
        block = np.remainder(ints[None], q.astype(np.int64))
    return RnsPoly(block.astype(np.uint64), context, Domain.COEF)
