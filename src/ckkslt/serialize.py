"""Length-prefixed little-endian binary containers for CKKS objects.

Layout: magic b"HLT1", then a header (format version u32, object tag u8,
ring_dim u32, level i32, scale f64, hoist/meta u32). A switching key
follows with its digit count u32. Every polynomial is a limb count u32
followed by that many records of (modulus u64, domain u8, ring_dim
coefficients u64); ``load`` reads each polynomial with one
``frombuffer``. All integers little-endian.

``load`` rejects every byte string that is not exactly such a container
(truncated, trailing bytes, unknown codes, invalid moduli, coefficients
not below their modulus, components over different bases) with
:class:`CorruptContainer`, a ``ValueError``.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from .ckks import Ciphertext, Plaintext, SwitchingKey
from .modarith import Modulus
from .ring import Domain, modulus_column
from .rns import RnsPoly

MAGIC = b"HLT1"
VERSION = 1
TAG_CIPHERTEXT = 1
TAG_SWITCHING_KEY = 2
TAG_PLAINTEXT = 3

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
        coeffs = records["coeffs"].astype(np.uint64)
        if (coeffs >= modulus_column(moduli)).any():
            raise CorruptContainer("coefficient not reduced mod its limb's modulus")
        return RnsPoly(coeffs, moduli, _DOMAIN_FROM[domains.pop()])


def _save(tag: int, level: int, scale: float, meta: int, polys, prefix=b"") -> bytes:
    out = bytearray(MAGIC + _HEADER.pack(VERSION, tag, polys[0].n, level, scale, meta) + prefix)
    for p in polys:
        _pack_rns(out, p)
    return bytes(out)


def save_ciphertext(ct: Ciphertext) -> bytes:
    return _save(TAG_CIPHERTEXT, ct.level, ct.scale, 0, [ct.c0, ct.c1])


def save_plaintext(pt: Plaintext) -> bytes:
    return _save(TAG_PLAINTEXT, 0, pt.scale, 0, [pt.poly])


def save_switching_key(swk: SwitchingKey) -> bytes:
    return _save(TAG_SWITCHING_KEY, 0, 0.0, swk.hoist_offset,
                 [p for pair in swk.digits for p in pair], _COUNT.pack(len(swk.digits)))


def _pair(reader: _Reader, ring_dim: int) -> tuple[RnsPoly, RnsPoly]:
    a = reader.rns(ring_dim)
    b = reader.rns(ring_dim)
    if a.moduli != b.moduli or a.domain != b.domain:
        raise CorruptContainer("the two components disagree on moduli or domain")
    return a, b


def _parse(reader: _Reader):
    if bytes(reader.take(len(MAGIC))) != MAGIC:
        raise CorruptContainer("bad magic")
    version, tag, ring_dim, level, scale, meta = reader.unpack(_HEADER)
    if version != VERSION:
        raise CorruptContainer(f"unsupported version {version}")
    if ring_dim < 2 or ring_dim & (ring_dim - 1):
        raise CorruptContainer(f"ring dimension {ring_dim} is not a power of two >= 2")
    if tag == TAG_SWITCHING_KEY:
        if level or scale or math.copysign(1.0, scale) < 0:
            raise CorruptContainer("switching key header carries a level or scale")
        (count,) = reader.unpack(_COUNT)
        digits = [_pair(reader, ring_dim) for _ in range(count)]
        if not digits or len({k0.moduli for k0, _ in digits}) != 1:
            raise CorruptContainer("switching key digits missing or over different bases")
        return SwitchingKey(digits, hoist_offset=meta)
    if tag not in (TAG_CIPHERTEXT, TAG_PLAINTEXT):
        raise CorruptContainer(f"unknown object tag {tag}")
    if meta or not (math.isfinite(scale) and scale > 0):
        raise CorruptContainer(f"scale {scale} or meta {meta} out of range")
    if tag == TAG_PLAINTEXT:
        if level:
            raise CorruptContainer("plaintext header carries a level")
        return Plaintext(reader.rns(ring_dim), scale)
    c0, c1 = _pair(reader, ring_dim)
    if level != len(c0.moduli) - 1:
        raise CorruptContainer(f"level {level} does not match {len(c0.moduli)} limbs")
    return Ciphertext(c0, c1, level, scale)


def load(data: bytes):
    """Parse any container produced by the save_* functions."""
    reader = _Reader(data)
    obj = _parse(reader)
    if reader.off != len(reader.view):
        raise CorruptContainer(f"{len(reader.view) - reader.off} trailing bytes")
    return obj
