"""CKKS scheme operations at desk scale.

Packing follows the canonical embedding with slot j tied to the root
exponent 5^j mod 2N, which makes the ring automorphism x -> x^(5^r) act
as a cyclic slot shift by r. Ciphertexts are held in NTT form over the
active level basis; switching keys are held in NTT form over PQ with the
special limbs first.

NOT FOR PRODUCTION CRYPTOGRAPHY: parameter profiles here are sized for
verifying algorithmic behavior, not for security.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .modarith import Modulus, find_ntt_primes
from .ring import (
    Domain,
    RotationIndex,
    automorphism_eval,
    coef_permutation,
    mod_mul_vec,
    modulus_column,
    ntt,
    pointwise_add,
    pointwise_mul,
    pointwise_sub,
    scalar_mul,
    to_coef,
    to_ntt,
)
from .rns import (
    RnsBasis,
    RnsPoly,
    crt_reconstruct_centered,
    decompose,
    moddown,
    rescale,
    rns_from_ints,
)

NOISE_SIGMA = 3.2


class LevelMismatch(ValueError):
    """Operands live at different levels or scales."""


class Overflow(ValueError):
    """Scaled values would not fit the level modulus with margin."""


class MissingKey(KeyError):
    """A required switching key was not supplied."""


@dataclass
class CkksParams:
    """Ring dimension, RNS basis, and default encoding scale."""

    ring_dim: int
    basis: RnsBasis
    scale: float = float(2**40)

    @property
    def slots(self) -> int:
        return self.ring_dim // 2

    @property
    def level(self) -> int:
        return self.basis.level_count - 1

    @classmethod
    def make(cls, ring_dim: int = 2**10, levels: int = 5, alpha: int = 5,
             prime_bits: int = 44, scale: float | None = None) -> "CkksParams":
        """Toy profile: one shared prime width for data and special moduli."""
        primes = find_ntt_primes(prime_bits, ring_dim, levels + alpha)
        basis = RnsBasis(primes[:levels], primes[levels:])
        if scale is None:
            scale = float(2 ** min(40, prime_bits - 4))
        if scale >= primes[levels - 1].q:
            raise Overflow("scale must stay below the top data modulus")
        return cls(ring_dim, basis, scale)


@dataclass
class Plaintext:
    poly: RnsPoly
    scale: float


@dataclass
class SecretKey:
    coeffs: np.ndarray  # ternary entries in {-1, 0, 1}
    _ntt_cache: dict = field(default_factory=dict, repr=False)

    def ntt_form(self, moduli: tuple[Modulus, ...]) -> RnsPoly:
        missing = [m for m in moduli if m.q not in self._ntt_cache]
        if missing:
            rows = ntt(rns_from_ints(self.coeffs, missing)).coeffs
            self._ntt_cache.update(zip((m.q for m in missing), rows))
        return RnsPoly(np.stack([self._ntt_cache[m.q] for m in moduli]), moduli, Domain.NTT)


@dataclass
class PublicKey:
    k0: RnsPoly  # -a*s + e, NTT over Q
    k1: RnsPoly  # a, NTT over Q


@dataclass
class Ciphertext:
    c0: RnsPoly
    c1: RnsPoly
    level: int
    scale: float

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy(), self.level, self.scale)


@dataclass
class SwitchingKey:
    """beta digit pairs over PQ, NTT domain.

    hoist_offset r != 0 marks a key stored pre-twisted by the inverse
    automorphism, so the rotation can be applied after the inner product.
    """

    digits: list[tuple[RnsPoly, RnsPoly]]
    hoist_offset: int = 0


# ---------------------------------------------------------------------------
# canonical embedding


@lru_cache(maxsize=None)
def slot_exponents(ring_dim: int) -> np.ndarray:
    n = ring_dim
    exps = np.empty(n // 2, dtype=np.int64)
    e = 1
    for j in range(n // 2):
        exps[j] = e
        e = e * 5 % (2 * n)
    return exps


def embed_inverse(v: np.ndarray, ring_dim: int) -> np.ndarray:
    """Real polynomial coefficients whose evaluations at the slot roots are v."""
    n = ring_dim
    exps = slot_exponents(n)
    spectrum = np.zeros(2 * n, dtype=np.complex128)
    vc = np.asarray(v, dtype=np.complex128)
    spectrum[exps] = vc
    spectrum[(2 * n - exps) % (2 * n)] = np.conj(vc)
    return (np.fft.fft(spectrum)[:n] / n).real


def embed_forward(coeffs: np.ndarray, ring_dim: int) -> np.ndarray:
    """Evaluate real coefficients at the slot roots."""
    n = ring_dim
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[:n] = coeffs
    evals = np.fft.ifft(padded) * (2 * n)
    return evals[slot_exponents(n)].real


def encode(v, params: CkksParams, scale: float | None = None,
           moduli: list[Modulus] | None = None, domain: Domain = Domain.COEF) -> Plaintext:
    """Scale, embed, and round a length-N/2 real vector into RNS limbs."""
    scale = params.scale if scale is None else scale
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.slots,):
        raise ValueError(f"expected {params.slots} slots, got {v.shape}")
    coeffs = embed_inverse(v, params.ring_dim) * scale
    peak = np.max(np.abs(coeffs)) if len(coeffs) else 0.0
    if peak > 2**62:
        raise Overflow("scaled coefficients exceed the integer range")
    target = params.basis.q_moduli if moduli is None else moduli
    poly = rns_from_ints(np.rint(coeffs).astype(np.int64), target)
    return Plaintext(to_ntt(poly) if domain == Domain.NTT else poly, scale)


def decode(pt: Plaintext, params: CkksParams) -> np.ndarray:
    centered = crt_reconstruct_centered(to_coef(pt.poly))
    coeffs = np.array(centered, dtype=object).astype(np.float64) / pt.scale
    return embed_forward(coeffs, params.ring_dim)


# ---------------------------------------------------------------------------
# sampling and key generation


def sample_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1, 2, n, dtype=np.int64)


def sample_gaussian_ints(rng: np.random.Generator, n: int) -> list[int]:
    return [int(x) for x in np.rint(rng.normal(0.0, NOISE_SIGMA, n))]


def uniform_rns(rng: np.random.Generator, moduli: list[Modulus],
                ring_dim: int, domain: Domain = Domain.NTT) -> RnsPoly:
    # independent uniform residues per limb are CRT-equivalent to uniform mod the product
    moduli = tuple(moduli)
    block = rng.integers(0, modulus_column(moduli), (len(moduli), ring_dim), dtype=np.uint64)
    return RnsPoly(block, moduli, domain)


def gaussian_rns(rng: np.random.Generator, moduli: list[Modulus],
                 ring_dim: int, domain: Domain = Domain.NTT) -> RnsPoly:
    poly = rns_from_ints(sample_gaussian_ints(rng, ring_dim), moduli)
    return to_ntt(poly) if domain == Domain.NTT else poly


def mul_secret(p: RnsPoly, sk: SecretKey) -> RnsPoly:
    return pointwise_mul(p, sk.ntt_form(p.moduli))


rns_add = pointwise_add
rns_sub = pointwise_sub


def keygen(params: CkksParams, rng: np.random.Generator) -> tuple[SecretKey, PublicKey]:
    sk = SecretKey(sample_ternary(rng, params.ring_dim))
    a = uniform_rns(rng, params.basis.q_moduli, params.ring_dim)
    e = gaussian_rns(rng, params.basis.q_moduli, params.ring_dim)
    k0 = rns_sub(e, mul_secret(a, sk))
    return sk, PublicKey(k0, a)


def encrypt(pt: Plaintext, key, params: CkksParams,
            rng: np.random.Generator) -> Ciphertext:
    """Fresh encryption under a PublicKey or (for tests) a SecretKey."""
    m = to_ntt(pt.poly)
    moduli = m.moduli
    if isinstance(key, SecretKey):
        c1 = uniform_rns(rng, moduli, params.ring_dim)
        e = gaussian_rns(rng, moduli, params.ring_dim)
        c0 = rns_sub(rns_add(m, e), mul_secret(c1, key))
    else:
        u = SecretKey(sample_ternary(rng, params.ring_dim))
        e0 = gaussian_rns(rng, moduli, params.ring_dim)
        e1 = gaussian_rns(rng, moduli, params.ring_dim)
        c0 = rns_add(rns_add(mul_secret(key.k0, u), e0), m)
        c1 = rns_add(mul_secret(key.k1, u), e1)
    return Ciphertext(c0, c1, len(moduli) - 1, pt.scale)


def trivial_encrypt(pt: Plaintext) -> Ciphertext:
    m = to_ntt(pt.poly)
    zero = RnsPoly(np.zeros_like(m.coeffs), m.moduli, Domain.NTT)
    return Ciphertext(m, zero, len(m.moduli) - 1, pt.scale)


def decrypt(ct: Ciphertext, sk: SecretKey) -> Plaintext:
    if len(ct.c0.moduli) != len(ct.c1.moduli):
        raise LevelMismatch("ciphertext components at different levels")
    m = rns_add(ct.c0, mul_secret(ct.c1, sk))
    return Plaintext(to_coef(m), ct.scale)


def add_ct(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.level != b.level or a.scale != b.scale:
        raise LevelMismatch("addition requires matching level and scale")
    return Ciphertext(rns_add(a.c0, b.c0), rns_add(a.c1, b.c1), a.level, a.scale)


# ---------------------------------------------------------------------------
# key switching


def automorphism_ints(coeffs: np.ndarray, rot: RotationIndex) -> np.ndarray:
    """x -> x^{g_r} on a signed integer coefficient vector (exact)."""
    pos, flip = coef_permutation(len(coeffs), rot.g_r)
    out = np.empty_like(coeffs)
    out[pos] = np.where(flip, -coeffs, coeffs)
    return out


def gadget_constants(basis: RnsBasis) -> list[list[int]]:
    """P*(Q/Q_b)*[(Q/Q_b)^-1]_{Q_b} mod every PQ modulus, per digit."""
    big_q = basis.q_product
    big_p = basis.p_product
    out = []
    for b in range(basis.beta):
        q_b = basis.digit_modulus(b)
        g = big_p * (big_q // q_b) * pow((big_q // q_b) % q_b, -1, q_b)
        out.append([g % m.q for m in basis.pq_moduli])
    return out


def swk_gen(s_from: np.ndarray, s_to: SecretKey, params: CkksParams,
            rng: np.random.Generator) -> SwitchingKey:
    """Key switching s_from -> s_to over PQ (s_from as signed coefficients)."""
    pq = params.basis.pq_moduli
    s_ntt = ntt(rns_from_ints(np.asarray(s_from, dtype=np.int64), pq))
    digits = []
    for gadget in gadget_constants(params.basis):
        k1 = uniform_rns(rng, pq, params.ring_dim)
        e = gaussian_rns(rng, pq, params.ring_dim)
        gadget = np.array(gadget, dtype=np.uint64)[:, None]
        term = s_ntt.like(mod_mul_vec(s_ntt.coeffs, gadget, modulus_column(pq)), Domain.NTT)
        k0 = rns_add(rns_sub(e, mul_secret(k1, s_to)), term)
        digits.append((k0, k1))
    return SwitchingKey(digits)


def rotation_keygen(sk: SecretKey, r: int, params: CkksParams,
                    rng: np.random.Generator, hoisted: bool = False) -> SwitchingKey:
    """Key for rotating by r slots: switches phi_r(s) back to s.

    Hoisted keys carry phi_r^-1 applied to both components so the
    automorphism can run after the inner product.
    """
    rot = RotationIndex(r % (params.ring_dim // 2), params.ring_dim)
    s_rot = automorphism_ints(sk.coeffs, rot)
    key = swk_gen(s_rot, sk, params, rng)
    if hoisted and r % (params.ring_dim // 2) != 0:
        inv = rot.inverse()
        twisted = [(automorphism_eval(k0, inv), automorphism_eval(k1, inv))
                   for k0, k1 in key.digits]
        key = SwitchingKey(twisted, hoist_offset=r)
    return key


def hoist_digits(c1: RnsPoly, basis: RnsBasis) -> list[RnsPoly]:
    """Decompose a component into NTT-domain PQ digits."""
    return [to_ntt(d) for d in decompose(c1, basis)]


def key_switch(digits: list[RnsPoly], swk: SwitchingKey) -> tuple[RnsPoly, RnsPoly]:
    """Inner product with the switching key, left over PQ (no ModDown)."""
    if len(digits) != len(swk.digits):
        raise MissingKey(
            f"digit count {len(digits)} != key digit count {len(swk.digits)}"
        )
    acc0 = acc1 = None
    for d, (k0, k1) in zip(digits, swk.digits):
        t0 = pointwise_mul(d, k0)
        t1 = pointwise_mul(d, k1)
        acc0 = t0 if acc0 is None else rns_add(acc0, t0)
        acc1 = t1 if acc1 is None else rns_add(acc1, t1)
    return acc0, acc1


def raise_to_pq(p: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """Multiply by P and extend to the PQ basis (special limbs are zero)."""
    block = np.zeros((basis.alpha + len(p.moduli), p.n), dtype=np.uint64)
    block[basis.alpha:] = scalar_mul(p, basis.p_product).coeffs
    return RnsPoly(block, basis.p_moduli + p.moduli, p.domain)


def moddown_ntt(p: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """ModDown of an NTT-domain PQ polynomial, result back in NTT over Q."""
    return to_ntt(moddown(p, basis))


def apply_rotation(p: RnsPoly, rot: RotationIndex) -> RnsPoly:
    return automorphism_eval(p, rot)


def hoisted_rotation(a: RnsPoly, digits: list[RnsPoly], swk: SwitchingKey,
                     rot: RotationIndex) -> tuple[RnsPoly, RnsPoly]:
    """Rotate the PQ pair (a + <digits, k0>, <digits, k1>) with a hoisted key:
    the inner product runs first, the automorphism after it."""
    u0, u1 = key_switch(digits, swk)
    return apply_rotation(rns_add(a, u0), rot), apply_rotation(u1, rot)


def rotate(ct: Ciphertext, r: int, swk: SwitchingKey, params: CkksParams) -> Ciphertext:
    """Reference (non-hoisted) rotation: automorphism then full key switch."""
    half = params.ring_dim // 2
    rot = RotationIndex(r % half, params.ring_dim)
    if rot.r == 0:
        return ct.copy()
    if swk.hoist_offset != 0:
        raise MissingKey("rotate expects a plain (non-hoisted) key")
    c0r = apply_rotation(ct.c0, rot)
    c1r = apply_rotation(ct.c1, rot)
    digits = hoist_digits(c1r, params.basis)
    u0, u1 = key_switch(digits, swk)
    d0 = moddown_ntt(u0, params.basis)
    d1 = moddown_ntt(u1, params.basis)
    return Ciphertext(rns_add(c0r, d0), d1, ct.level, ct.scale)


def pt_ct_mult(pt: Plaintext, ct: Ciphertext) -> Ciphertext:
    f = to_ntt(pt.poly)
    if f.moduli != ct.c0.moduli:
        raise LevelMismatch("plaintext basis does not match ciphertext basis")
    return Ciphertext(pointwise_mul(ct.c0, f), pointwise_mul(ct.c1, f), ct.level,
                      ct.scale * pt.scale)


def rescale_ct(ct: Ciphertext, params: CkksParams) -> Ciphertext:
    c0 = to_ntt(rescale(to_coef(ct.c0)))
    c1 = to_ntt(rescale(to_coef(ct.c1)))
    dropped = ct.c0.moduli[-1].q
    return Ciphertext(c0, c1, ct.level - 1, ct.scale / dropped)
