"""Length-prefixed little-endian binary containers for CKKS ciphertexts.

Layout: magic b"HLT1", then a header (format version u32, object tag u8,
ring_dim u32, level i32, scale f64, meta u32), then the components c0 and
c1. The object tag is 1, the only one defined, and meta is 0. Each
component is a limb count u32 followed by that many records of (modulus
u64, domain u8, ring_dim coefficients u64); ``load`` reads each component
with one ``frombuffer``. All integers little-endian.

``load`` rejects every byte string that is not exactly such a container
(truncated, trailing bytes, unknown codes or tags, invalid moduli,
coefficients not below their modulus, components over different bases, a
level other than the limb count minus one) with :class:`CorruptContainer`,
a ``ValueError``.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from .ckks import Ciphertext
from .modarith import Modulus
from .ring import Domain, basis_context
from .rns import RnsPoly

MAGIC = b"HLT1"
VERSION = 1
TAG_CIPHERTEXT = 1

_HEADER = struct.Struct("<IBIidI")
_COUNT = struct.Struct("<I")
_DOMAIN_CODE = {Domain.COEF: 0, Domain.NTT: 1}
_DOMAIN_FROM = {v: k for k, v in _DOMAIN_CODE.items()}


class CorruptContainer(ValueError):
    """The bytes are not a well-formed container."""


def _limb_records(ring_dim: int) -> np.dtype:
    return np.dtype([("q", "<u8"), ("domain", "u1"), ("coeffs", "<u8", (ring_dim,))])


def _pack_rns(out: bytearray, p: RnsPoly):
    out += _COUNT.pack(len(p.moduli))
    records = np.empty(len(p.moduli), dtype=_limb_records(p.n))
    records["q"] = [m.q for m in p.moduli]
    records["domain"] = _DOMAIN_CODE[p.domain]
    records["coeffs"] = p.coeffs
    out += records.tobytes()


@lru_cache(maxsize=256)
def _modulus(q: int, ring_dim: int) -> Modulus:
    """Each distinct (q, N) is validated once, not once per limb per load."""
    return Modulus(q, ring_dim)


class _Reader:
    def __init__(self, data: bytes):
        self.view = memoryview(data)
        self.off = 0

    def take(self, size: int) -> memoryview:
        if size > len(self.view) - self.off:
            raise CorruptContainer(f"truncated at byte {len(self.view)}, "
                                   f"{size} more bytes expected from {self.off}")
        chunk = self.view[self.off:self.off + size]
        self.off += size
        return chunk

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def rns(self, ring_dim: int) -> RnsPoly:
        (count,) = self.unpack(_COUNT)
        if count == 0:
            raise CorruptContainer("polynomial without limbs")
        records = np.frombuffer(self.take(count * (9 + 8 * ring_dim)),
                                dtype=_limb_records(ring_dim))
        domains = set(records["domain"].tolist())
        if len(domains) != 1 or not domains <= set(_DOMAIN_FROM):
            raise CorruptContainer(f"bad domain codes {sorted(domains)}")
        values = records["q"].tolist()
        if len(set(values)) != len(values):
            raise CorruptContainer("repeated modulus")
        try:
            moduli = tuple(_modulus(q, ring_dim) for q in values)
        except ValueError as exc:
            raise CorruptContainer(f"invalid modulus: {exc}") from exc
        context = basis_context(moduli)
        coeffs = records["coeffs"].astype(np.uint64)
        if (coeffs >= context.q).any():
            raise CorruptContainer("coefficient not reduced mod its limb's modulus")
        return RnsPoly(coeffs, context, _DOMAIN_FROM[domains.pop()])


def save_ciphertext(ct: Ciphertext) -> bytes:
    out = bytearray(MAGIC + _HEADER.pack(VERSION, TAG_CIPHERTEXT, ct.c0.n, ct.level, ct.scale, 0))
    for p in (ct.c0, ct.c1):
        _pack_rns(out, p)
    return bytes(out)


def load(data: bytes) -> Ciphertext:
    """Parse a container produced by :func:`save_ciphertext`."""
    reader = _Reader(data)
    if bytes(reader.take(len(MAGIC))) != MAGIC:
        raise CorruptContainer("bad magic")
    version, tag, ring_dim, level, scale, meta = reader.unpack(_HEADER)
    if version != VERSION:
        raise CorruptContainer(f"unsupported version {version}")
    if ring_dim < 2 or ring_dim & (ring_dim - 1):
        raise CorruptContainer(f"ring dimension {ring_dim} is not a power of two >= 2")
    if tag != TAG_CIPHERTEXT:
        raise CorruptContainer(f"unknown object tag {tag}")
    if meta or not (math.isfinite(scale) and scale > 0):
        raise CorruptContainer(f"scale {scale} or meta {meta} out of range")
    c0, c1 = reader.rns(ring_dim), reader.rns(ring_dim)
    if c0.context is not c1.context or c0.domain != c1.domain:
        raise CorruptContainer("the two components disagree on moduli or domain")
    if level != len(c0.moduli) - 1:
        raise CorruptContainer(f"level {level} does not match {len(c0.moduli)} limbs")
    if reader.off != len(reader.view):
        raise CorruptContainer(f"{len(reader.view) - reader.off} trailing bytes")
    return Ciphertext(c0, c1, scale)
