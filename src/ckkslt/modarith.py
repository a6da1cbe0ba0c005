"""Word-sized NTT-friendly primes and their transform constants.

Every modulus q managed here satisfies q = 1 (mod 2N) for the ring
dimension N it was generated for, so a primitive 2N-th root of unity
exists and negacyclic transforms are available. The module holds no
arithmetic of its own: the vectorized modular kernels live in
:mod:`ckkslt.ring`, and scalar set-up work uses Python's ``%`` and
``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class NotEnoughPrimes(ValueError):
    """Raised when the requested prime count cannot be met in the bit width."""


class InvalidModulus(ValueError):
    """A modulus or prime search outside what the transforms support: a ring
    dimension that is not a power of two, a width outside [8, 60] bits, or a
    q that is not a prime = 1 (mod 2N)."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _find_two_n_root(q: int, n: int) -> int:
    """Smallest-base primitive 2n-th root of unity mod q.

    Deterministic: raises successive small bases to (q-1)/2n and takes the
    first result of exact order 2n (equivalently: its n-th power is -1).
    """
    exponent = (q - 1) // (2 * n)
    base = 2
    while True:
        root = pow(base, exponent, q)
        if pow(root, n, q) == q - 1:
            return root
        base += 1
        if base > q:
            raise InvalidModulus(f"no primitive 2N-th root mod {q}")


@dataclass(frozen=True)
class Modulus:
    """A word-sized prime q = 1 (mod 2N) with transform constants.

    Attributes:
        q: the prime.
        ring_dim: N, the transform length the root was generated for.
        two_n_root: primitive 2N-th root of unity mod q.
        n_inv: N^-1 mod q.
    """

    q: int
    ring_dim: int
    # derived from (q, ring_dim), so they take no part in equality or hashing
    two_n_root: int = field(init=False, compare=False)
    n_inv: int = field(init=False, compare=False)

    def __post_init__(self):
        q, n = self.q, self.ring_dim
        if n & (n - 1) or n < 2:
            raise InvalidModulus("ring_dim must be a power of two >= 2")
        if q.bit_length() > 60:
            raise InvalidModulus("modulus wider than 60 bits")
        if q % (2 * n) != 1:
            raise InvalidModulus(f"{q} != 1 mod 2N for N={n}")
        if not is_prime(q):
            raise InvalidModulus(f"{q} is not prime")
        object.__setattr__(self, "two_n_root", _find_two_n_root(q, n))
        object.__setattr__(self, "n_inv", pow(n, -1, q))

    def __repr__(self):
        return f"Modulus({self.q}, N={self.ring_dim})"


def find_ntt_primes(bit_width: int, ring_dim: int, count: int) -> list[Modulus]:
    """The `count` largest primes of exactly `bit_width` bits, = 1 mod 2N.

    Scans the congruence class k*2N + 1 downward from 2^bit_width, so the
    result is deterministic and sorted descending.
    """
    if not 8 <= bit_width <= 60:
        raise InvalidModulus("bit_width must lie in [8, 60]")
    if ring_dim & (ring_dim - 1) or ring_dim < 2:
        raise InvalidModulus("ring_dim must be a power of two")
    step = 2 * ring_dim
    hi = (1 << bit_width) - 1
    lo = 1 << (bit_width - 1)
    k = (hi - 1) // step
    out: list[Modulus] = []
    while len(out) < count:
        cand = k * step + 1
        if cand < lo:
            raise NotEnoughPrimes(
                f"only {len(out)} primes of {bit_width} bits with q=1 mod {step}"
            )
        if is_prime(cand):
            out.append(Modulus(cand, ring_dim))
        k -= 1
    return out
