"""RNS tower over Q and PQ: limb-batched polynomials, basis conversion,
digit decomposition, modulus reduction, and rescaling.

Polynomials are :class:`ckkslt.ring.Poly` blocks, (L, N) uint64 arrays
whose row j holds the residues mod ``moduli[j]``; ``RnsPoly`` is another
name for that one class. The kernels of :mod:`ckkslt.ring` process all
rows in one numpy call per step.

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
                   intt_many, mod_mul_vec, mod_sub_vec, ntt_many)


class BasisOverlap(ValueError):
    """Source and target bases of a conversion share a modulus."""


class SingleLimb(ValueError):
    """Rescale would drop the last remaining limb."""


RnsPoly = Poly


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
def _hat_mod_target(src: BasisContext, dst: BasisContext) -> np.ndarray:
    """bconv's second constant, the (D, S, 1) array qhat_j mod p_i (its first is
    ``src.hat_inverse``)."""
    src_vals = [m.q for m in src.moduli]
    if set(src_vals) & {m.q for m in dst.moduli}:
        raise BasisOverlap("source and target bases overlap")
    hat = [prod(src_vals) // qj for qj in src_vals]
    return np.array([[[h % p.q] for h in hat] for p in dst.moduli], dtype=np.uint64)


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
    """
    if p.domain != Domain.COEF:
        raise DomainMismatch("bconv requires coefficient domain")
    src = p.context
    return _convert_scaled(mod_mul_vec(p.coeffs, src.hat_inverse, src.block(p.n)), src,
                           basis_context(target))


def _convert_scaled(scaled: np.ndarray, src: BasisContext, dst: BasisContext) -> RnsPoly:
    """bconv past its first multiply: ``scaled``, an (S, N) block over ``src``,
    holds [qhat_j^-1 a_j]_{q_j}. The residues of a source that is not on the
    float path are reduced mod p_i first when the target is, as that path's
    contract requires."""
    hat_mod_dst = _hat_mod_target(src, dst)
    q = dst.block(1).view(-1, 1, 1)
    scaled = scaled[None]
    if dst.fast and not src.fast:
        scaled = np.remainder(scaled, q.q)
    terms = mod_mul_vec(scaled, hat_mod_dst, q)
    return RnsPoly(_sum_limbs(terms, dst.q), dst, Domain.COEF)


def _convert_many(parts: list[RnsPoly], target: BasisContext) -> list[RnsPoly]:
    """``bconv`` of every part to ``target``, in the parts' one domain. From the
    NTT domain they take one stacked inverse transform, which multiplies by
    qhat_j^-1 in its last step, so no conversion multiplies by it again, and the
    conversions one forward transform; the conversions run per part, as a
    stacked (B, D, S, N) term tensor would multiply its memory by B."""
    if not parts or parts[0].domain != Domain.NTT:
        return [bconv(p, target) for p in parts]
    dst = basis_context(target)
    return ntt_many(_convert_scaled(p.coeffs, p.context, dst)
                    for p in intt_many(parts, hat_inverse=True))


def decompose_many(polys, basis: RnsBasis) -> list[list[RnsPoly]]:
    """``[decompose(c, basis) for c in polys]`` bit for bit, for polynomials in
    one domain: each digit's conversions run as one batch (a digit's
    complement is its own basis, so digits are never stacked together)."""
    polys = list(polys)
    if any(c.context is not basis.q_context for c in polys):
        raise BasisMismatch("decompose expects a full set of Q limbs")
    pq = basis.pq_context
    digits = [[] for _ in polys]
    for rows, group, rest in basis.digit_contexts:
        lo, hi = basis.alpha + rows.start, basis.alpha + rows.stop
        groups = [RnsPoly(c.coeffs[rows], group, c.domain) for c in polys]
        for out, part, converted in zip(digits, groups, _convert_many(groups, rest)):
            block = np.empty((len(pq.moduli), part.n), dtype=np.uint64)
            block[:lo] = converted.coeffs[:lo]
            block[lo:hi] = part.coeffs
            block[hi:] = converted.coeffs[lo:]
            out.append(RnsPoly(block, pq, part.domain))
    return digits


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
    return decompose_many([c], basis)[0]


def moddown_many(polys, basis: RnsBasis) -> list[RnsPoly]:
    """``[moddown(c, basis) for c in polys]`` bit for bit, for polynomials in one
    domain, with the special limbs' conversions run as one batch."""
    polys = list(polys)
    if any(c.context is not basis.pq_context for c in polys):
        raise BasisMismatch("moddown expects PQ limbs")
    alpha, qc = basis.alpha, basis.q_context
    parts = [RnsPoly(c.coeffs[:alpha], basis.p_context, c.domain) for c in polys]
    out = []
    for c, conv in zip(polys, _convert_many(parts, qc)):
        q = qc.block(c.n)
        diff = mod_sub_vec(c.coeffs[alpha:], conv.coeffs, q.q)
        out.append(RnsPoly(mod_mul_vec(diff, basis.p_inverse, q), qc, c.domain))
    return out


def moddown(c: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """Divide by P and drop the special limbs: out over Q only, in c's domain.

    Expects PQ ordering [p..., q...]; the result approximates round(c/P)
    with additive error at most alpha from the conversion overshoot. From
    the NTT domain only the special limbs are inverse-transformed: the
    correction is linear, so it applies to the transformed data limbs.
    """
    return moddown_many([c], basis)[0]


def rescale(c: RnsPoly) -> RnsPoly:
    """Drop the top limb and divide by its modulus (rounding error <= 1)."""
    if c.domain != Domain.COEF:
        raise DomainMismatch("rescale requires coefficient domain")
    if len(c.moduli) < 2:
        raise SingleLimb("cannot rescale a single-limb polynomial")
    kept = basis_context(c.moduli[:-1])
    reduced = np.remainder(c.coeffs[-1], kept.q)
    q = kept.block(c.n)
    diff = mod_sub_vec(c.coeffs[:-1], reduced, q.q)
    return RnsPoly(mod_mul_vec(diff, c.context.top_inverse, q), kept, Domain.COEF)


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


def rns_residues(values, moduli) -> np.ndarray:
    """Arbitrary (possibly negative) integers, an (..., M) array, reduced into
    every limb of ``moduli``: the (..., L, M) uint64 residue stack."""
    q = basis_context(moduli).q
    try:
        ints = np.asarray(values, dtype=np.int64)
    except OverflowError:
        block = np.array(values, dtype=object)[..., None, :] % q.astype(object)
    else:
        block = np.remainder(ints[..., None, :], q.astype(np.int64))
    return block.astype(np.uint64)


def rns_from_ints(values, moduli) -> RnsPoly:
    """Reduce arbitrary (possibly negative) integers into every limb,
    coefficient domain."""
    context = basis_context(moduli)
    return RnsPoly(rns_residues(values, context), context, Domain.COEF)
