"""CKKS scheme operations at desk scale.

Packing follows the canonical embedding with slot j tied to the root
exponent 5^j mod 2N, which makes the ring automorphism x -> x^(5^r) act
as a cyclic slot shift by r. Ciphertexts are held in NTT form over the
active level basis; switching keys are held in NTT form over PQ with the
special limbs first.

A rotation is a key switch followed by the automorphism
(:func:`hoisted_rotation`), with one key per offset stored twisted by the
inverse automorphism. Hoisting only decides which rotations share a digit
decomposition and where ModDown runs: :func:`rotate_many` gives each
rotation its own decomposition and ModDown, and keeps c0 over Q, the hoisted
routes share them.

NOT FOR PRODUCTION CRYPTOGRAPHY: parameter profiles here are sized for
verifying algorithmic behavior, not for security.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from .modarith import Modulus, find_ntt_primes
from .ring import (
    BasisMismatch,
    Domain,
    RotationIndex,
    automorphism_eval,
    basis_context,
    intt_many,
    mod_mul_vec,
    ntt,
    ntt_many,
    pointwise_add,
    pointwise_mul,
    pointwise_mul_acc,
    pointwise_sub,
    scalar_mul,
    to_coef,
    to_ntt,
)
from .rns import (
    RnsBasis,
    RnsPoly,
    SingleLimb,
    crt_reconstruct_centered,
    decompose,
    decompose_many,
    moddown,
    moddown_many,
    rescale,
    rns_from_ints,
)

NOISE_SIGMA = 3.2


class LevelMismatch(ValueError):
    """Operands live at different levels or scales."""


class Overflow(ValueError):
    """Scaled values are not finite or would not fit the level modulus with margin."""


class NotReal(ValueError):
    """Slot values or matrix entries are complex or not numbers."""


class MissingKey(ValueError):
    """A required switching key was not supplied, or one for another offset
    or digit count."""


@dataclass
class CkksParams:
    """Ring dimension, RNS basis, and encoding scale."""

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
             prime_bits: int = 44) -> "CkksParams":
        """Toy profile: one shared prime width for data and special moduli,
        scale 2^min(40, prime_bits - 4). A linear transform ends in one
        rescale, so fewer than two levels raise ``SingleLimb``."""
        if levels < 2:
            raise SingleLimb(f"levels={levels}: a rescale needs two data limbs")
        primes = find_ntt_primes(prime_bits, ring_dim, levels + alpha)
        basis = RnsBasis(primes[:levels], primes[levels:])
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

    def ntt_form(self, moduli) -> RnsPoly:
        """s in NTT form over ``moduli`` (a sequence or context); read-only use."""
        context = basis_context(moduli)
        if context not in self._ntt_cache:
            self._ntt_cache[context] = ntt(rns_from_ints(self.coeffs, context))
        return self._ntt_cache[context]


@dataclass
class PublicKey:
    k0: RnsPoly  # -a*s + e, NTT over Q
    k1: RnsPoly  # a, NTT over Q


@dataclass
class Ciphertext:
    c0: RnsPoly
    c1: RnsPoly
    scale: float

    @property
    def level(self) -> int:
        """L for a ciphertext over q_0..q_L."""
        return len(self.c0.moduli) - 1


@dataclass
class SwitchingKey:
    """beta digit pairs over PQ, NTT domain.

    A rotation key is stored twisted by the inverse automorphism of its
    offset ``hoist_offset``, so the rotation runs after the inner product;
    ``hoisted_rotation`` accepts only a key twisted for its rotation. A
    plain key switch (offset 0) is untwisted.
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
    """Real polynomial coefficients whose evaluations at the slot roots are v,
    row by row for a (B, N/2) stack."""
    n = ring_dim
    exps = slot_exponents(n)
    vc = np.asarray(v, dtype=np.complex128)
    spectrum = np.zeros((*vc.shape[:-1], 2 * n), dtype=np.complex128)
    spectrum[..., exps] = vc
    spectrum[..., (2 * n - exps) % (2 * n)] = np.conj(vc)
    return (np.fft.fft(spectrum)[..., :n] / n).real


def embed_forward(coeffs: np.ndarray, ring_dim: int) -> np.ndarray:
    """Evaluate real coefficients at the slot roots."""
    n = ring_dim
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[:n] = coeffs
    evals = np.fft.ifft(padded) * (2 * n)
    return evals[slot_exponents(n)].real


# vectors per FFT in encode_rows: its complex temporaries grow with the rows, and
# one FFT over 64 diagonals lifts packing's peak to 1.28x the packed diagonals
EMBED_ROWS = 8


def real_array(values) -> np.ndarray:
    """``values`` as a float64 array. Complex or non-numeric input raises
    ``NotReal``: a float conversion would drop an imaginary part with only a
    warning, or fail with numpy's bare ``ValueError``."""
    values = np.asarray(values)
    if values.dtype == object and all(isinstance(x, Real) for x in values.flat):
        values = values.astype(np.float64)  # Python ints past int64, say
    if values.dtype.kind not in "biuf":
        raise NotReal(f"expected real numbers, got {values.dtype} values")
    return values.astype(np.float64, copy=False)


def encode_rows(vs, params: CkksParams) -> np.ndarray:
    """Scale by ``params.scale``, embed and round a (B, N/2) stack of real slot
    vectors: the int64 (B, N) coefficients that :func:`encode` reduces into
    limbs, row for row. The FFTs stay at length 2N and run EMBED_ROWS rows at
    a time; a stacked FFT rounds as the separate ones do."""
    scale = params.scale
    vs = np.asarray(vs, dtype=np.float64)
    if not (np.isfinite(vs).all() and 0 < scale < np.inf):
        raise Overflow(f"slot values must be finite and the scale finite and > 0, not {scale}")
    out = np.empty((len(vs), params.ring_dim), np.int64)
    for start in range(0, len(vs), EMBED_ROWS):
        coeffs = embed_inverse(vs[start : start + EMBED_ROWS], params.ring_dim) * scale
        if np.max(np.abs(coeffs)) > 2**62:
            raise Overflow("scaled coefficients exceed the integer range")
        out[start : start + EMBED_ROWS] = np.rint(coeffs, out=coeffs)
    return out


def encode(v, params: CkksParams) -> Plaintext:
    """Scale by ``params.scale``, embed, and round a length-N/2 real vector into
    coefficient-domain RNS limbs over Q: the one-vector case of
    :func:`encode_rows`. Complex or non-numeric values raise ``NotReal``."""
    v = real_array(v)
    if v.shape != (params.slots,):
        raise BasisMismatch(f"expected {params.slots} slots, got {v.shape}")
    return Plaintext(rns_from_ints(encode_rows(v[None], params)[0], params.basis.q_context),
                     params.scale)


def decode(pt: Plaintext, params: CkksParams) -> np.ndarray:
    centered = crt_reconstruct_centered(to_coef(pt.poly))
    coeffs = np.array(centered, dtype=object).astype(np.float64) / pt.scale
    return embed_forward(coeffs, params.ring_dim)


# ---------------------------------------------------------------------------
# sampling and key generation


def sample_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1, 2, n, dtype=np.int64)


def sample_gaussian_ints(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.rint(rng.normal(0.0, NOISE_SIGMA, n)).astype(np.int64)


def uniform_rns(rng: np.random.Generator, moduli: list[Modulus], ring_dim: int) -> RnsPoly:
    """Uniform mod the product of ``moduli``, NTT domain."""
    # independent uniform residues per limb are CRT-equivalent to uniform mod the product
    context = basis_context(moduli)
    block = rng.integers(0, context.q, (len(context.moduli), ring_dim), dtype=np.uint64)
    return RnsPoly(block, context, Domain.NTT)


def gaussian_rns(rng: np.random.Generator, moduli: list[Modulus], ring_dim: int) -> RnsPoly:
    """Discrete Gaussian noise (sigma NOISE_SIGMA), NTT domain."""
    return ntt(rns_from_ints(sample_gaussian_ints(rng, ring_dim), moduli))


def mul_secret(p: RnsPoly, sk: SecretKey) -> RnsPoly:
    return pointwise_mul(p, sk.ntt_form(p.context))


rns_add = pointwise_add
rns_sub = pointwise_sub


def keygen(params: CkksParams, rng: np.random.Generator) -> tuple[SecretKey, PublicKey]:
    sk = SecretKey(sample_ternary(rng, params.ring_dim))
    a = uniform_rns(rng, params.basis.q_moduli, params.ring_dim)
    e = gaussian_rns(rng, params.basis.q_moduli, params.ring_dim)
    k0 = rns_sub(e, mul_secret(a, sk))
    return sk, PublicKey(k0, a)


def encrypt(pt: Plaintext, key: PublicKey, params: CkksParams,
            rng: np.random.Generator) -> Ciphertext:
    """Fresh encryption under a public key."""
    m = to_ntt(pt.poly)
    u = SecretKey(sample_ternary(rng, params.ring_dim))
    e0 = gaussian_rns(rng, m.context, params.ring_dim)
    e1 = gaussian_rns(rng, m.context, params.ring_dim)
    c0 = rns_add(rns_add(mul_secret(key.k0, u), e0), m)
    c1 = rns_add(mul_secret(key.k1, u), e1)
    return Ciphertext(c0, c1, pt.scale)


def decrypt(ct: Ciphertext, sk: SecretKey) -> Plaintext:
    """Raises ``BasisMismatch`` for components over different bases."""
    m = rns_add(ct.c0, mul_secret(ct.c1, sk))
    return Plaintext(to_coef(m), ct.scale)


def add_ct(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    if a.level != b.level or a.scale != b.scale:
        raise LevelMismatch("addition requires matching level and scale")
    return Ciphertext(rns_add(a.c0, b.c0), rns_add(a.c1, b.c1), a.scale)


# ---------------------------------------------------------------------------
# key switching


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


def swk_gen(s_ntt: RnsPoly, s_to: SecretKey, params: CkksParams,
            rng: np.random.Generator) -> SwitchingKey:
    """Key switching s_from -> s_to over PQ; ``s_ntt`` is s_from in NTT form over PQ."""
    pq = params.basis.pq_context
    digits = []
    for gadget in gadget_constants(params.basis):
        k1 = uniform_rns(rng, pq, params.ring_dim)
        e = gaussian_rns(rng, pq, params.ring_dim)
        gadget = np.array(gadget, dtype=np.uint64)[:, None]
        term = mod_mul_vec(s_ntt.coeffs, gadget, s_ntt.context.block(s_ntt.n))
        term = s_ntt.like(term, Domain.NTT)
        k0 = rns_add(rns_sub(e, mul_secret(k1, s_to)), term)
        digits.append((k0, k1))
    return SwitchingKey(digits)


def rotation_keygen(sk: SecretKey, r: int, params: CkksParams,
                    rng: np.random.Generator) -> SwitchingKey:
    """Key for rotating by r slots: the key switching phi_r(s) back to s,
    with phi_r^-1 applied to both components so the automorphism runs
    after the inner product."""
    rot = RotationIndex(r, params.ring_dim)
    s_rot = automorphism_eval(sk.ntt_form(params.basis.pq_context), rot)
    inv = rot.inverse()
    return SwitchingKey([(automorphism_eval(k0, inv), automorphism_eval(k1, inv))
                         for k0, k1 in swk_gen(s_rot, sk, params, rng).digits], r)


def hoist_digits(c1: RnsPoly, basis: RnsBasis) -> list[RnsPoly]:
    """Decompose a component into NTT-domain PQ digits."""
    return [to_ntt(d) for d in decompose(c1, basis)]


def key_switch(digits: list[RnsPoly], swk: SwitchingKey) -> tuple[RnsPoly, RnsPoly]:
    """Inner product with the switching key, left over PQ (no ModDown)."""
    if len(digits) != len(swk.digits):
        raise MissingKey(
            f"digit count {len(digits)} != key digit count {len(swk.digits)}"
        )
    acc0, acc1 = pointwise_mul_acc(zip(digits, swk.digits))
    return acc0, acc1


def raise_to_pq(p: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """Multiply by P and extend to the PQ basis (special limbs are zero)."""
    block = np.zeros((basis.alpha + len(p.moduli), p.n), dtype=np.uint64)
    block[basis.alpha:] = scalar_mul(p, basis.p_product).coeffs
    return RnsPoly(block, basis.p_moduli + p.moduli, p.domain)


def moddown_ntt(p: RnsPoly, basis: RnsBasis) -> RnsPoly:
    """ModDown of an NTT-domain PQ polynomial, result back in NTT over Q."""
    return to_ntt(moddown(p, basis))


def hoisted_rotation(a: RnsPoly | None, digits: list[RnsPoly], swk: SwitchingKey,
                     rot: RotationIndex) -> tuple[RnsPoly, RnsPoly]:
    """Rotate the PQ pair (a + <digits, k0>, <digits, k1>): the inner product
    runs first, the automorphism after it; with ``a`` None the pair is the
    inner product alone. A key not twisted for this rotation raises
    ``MissingKey``."""
    if RotationIndex(swk.hoist_offset, rot.ring_dim) != rot:
        raise MissingKey(f"key is twisted for offset {swk.hoist_offset}, not {rot.r}")
    u0, u1 = key_switch(digits, swk)
    if a is not None:
        u0 = rns_add(a, u0)
    return automorphism_eval(u0, rot), automorphism_eval(u1, rot)


def rotate_many(jobs, params: CkksParams) -> list[Ciphertext]:
    """Unhoisted rotations of ``(ct, r, swk)`` jobs: each is a
    :func:`hoisted_rotation` of the decomposition of its own c1, followed by
    ModDown, with c0 kept over Q. The result's c0 is phi(c0) + ModDown(phi(u0)),
    which is ModDown(phi(P*c0 + u0)) bit for bit: P*c0 is 0 mod every special
    prime, and ModDown divides its data limbs by P exactly.

    Each rotation pays its own Decompose and its own two ModDowns, but the
    Decomposes run as one batch and the ModDowns as two, the u0 halves and
    the u1 halves (one stack of both would hold twice the converted limbs
    at once).
    """
    jobs = list(jobs)
    digits = decompose_many((ct.c1 for ct, _, _ in jobs), params.basis)
    rots = [RotationIndex(r, params.ring_dim) for _, r, _ in jobs]
    rotated = [hoisted_rotation(None, d, swk, rot)
               for (_, _, swk), d, rot in zip(jobs, digits, rots)]
    del digits
    u0 = moddown_many([a for a, _ in rotated], params.basis)
    c1 = moddown_many([b for _, b in rotated], params.basis)
    return [Ciphertext(rns_add(automorphism_eval(ct.c0, rot), a), b, ct.scale)
            for (ct, _, _), rot, a, b in zip(jobs, rots, u0, c1)]


def pt_ct_dot(pairs) -> Ciphertext:
    """The sum of pt*ct over ``(pt, ct)`` pairs, each limb's sum reduced once
    (``ring.pointwise_mul_acc``). Raises ``BasisMismatch`` for a plaintext or
    ciphertext over another basis, and ``LevelMismatch`` for products of
    different scales."""
    pairs = list(pairs)
    scales = {pt.scale * ct.scale for pt, ct in pairs}
    if len(scales) != 1:
        raise LevelMismatch("a sum of products requires one product scale")
    c0, c1 = pointwise_mul_acc((to_ntt(pt.poly), (ct.c0, ct.c1)) for pt, ct in pairs)
    return Ciphertext(c0, c1, scales.pop())


def rescale_ct(ct: Ciphertext, params: CkksParams) -> Ciphertext:
    """Rescale (c0, c1) through one stacked inverse and one forward transform;
    components over different bases raise ``BasisMismatch`` before either."""
    c0, c1 = ntt_many(rescale(c) for c in intt_many((ct.c0, ct.c1)))
    return Ciphertext(c0, c1, ct.scale / ct.c0.moduli[-1].q)
