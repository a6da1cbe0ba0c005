import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkslt import ckks, modarith, serialize


def test_ciphertext_roundtrip(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    blob = serialize.save_ciphertext(ct)
    back = serialize.load(blob)
    assert back.level == ct.level and back.scale == ct.scale
    for a, b in zip(back.c0.limbs + back.c1.limbs, ct.c0.limbs + ct.c1.limbs):
        assert a.modulus.q == b.modulus.q
        assert a.domain == b.domain
        assert np.array_equal(a.coeffs, b.coeffs)
    dec = ckks.decode(ckks.decrypt(back, sk), toy_params)
    assert np.max(np.abs(dec - v)) < 2**-15


def test_plaintext_roundtrip(toy_params):
    rng = np.random.default_rng(1)
    v = rng.uniform(-1, 1, toy_params.slots)
    pt = ckks.encode(v, toy_params)
    back = serialize.load(serialize.save_plaintext(pt))
    assert back.scale == pt.scale
    for a, b in zip(back.poly.limbs, pt.poly.limbs):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_switching_key_roundtrip(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(2)
    swk = ckks.rotation_keygen(sk, 9, toy_params, rng, hoisted=True)
    back = serialize.load(serialize.save_switching_key(swk))
    assert back.hoist_offset == 9
    assert len(back.digits) == len(swk.digits)
    for (a0, a1), (b0, b1) in zip(back.digits, swk.digits):
        for x, y in zip(a0.limbs + a1.limbs, b0.limbs + b1.limbs):
            assert np.array_equal(x.coeffs, y.coeffs)


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        serialize.load(b"XXXX" + b"\x00" * 64)


# ---------------------------------------------------------------------------
# malformed input: every byte string either loads or raises a ValueError


@pytest.fixture(scope="module")
def tiny_blob():
    params = ckks.CkksParams.make(ring_dim=64, levels=2, alpha=2, prime_bits=30)
    rng = np.random.default_rng(3)
    sk, pk = ckks.keygen(params, rng)
    ct = ckks.encrypt(ckks.encode(rng.uniform(-1, 1, params.slots), params), pk, params, rng)
    return serialize.save_ciphertext(ct)


def test_every_truncation_rejected(tiny_blob):
    for end in range(len(tiny_blob)):
        with pytest.raises(ValueError):
            serialize.load(tiny_blob[:end])


def test_trailing_bytes_rejected(tiny_blob):
    with pytest.raises(ValueError):
        serialize.load(tiny_blob + b"\x00")


def test_unreduced_coefficient_rejected(tiny_blob):
    blob = bytearray(tiny_blob)
    first_coeff = 4 + 25 + 4 + 9  # magic, header, limb count, limb modulus + domain
    blob[first_coeff:first_coeff + 8] = (2**63).to_bytes(8, "little")
    with pytest.raises(ValueError):
        serialize.load(bytes(blob))


def test_unknown_modulus_still_validated(tiny_blob):
    blob = bytearray(tiny_blob)
    q = int.from_bytes(blob[33:41], "little")
    composite = next(c for c in range(q + 128, q + 128 * 100, 128) if not modarith.is_prime(c))
    blob[33:41] = composite.to_bytes(8, "little")
    with pytest.raises(ValueError):
        serialize.load(bytes(blob))


def test_known_moduli_are_not_retested(tiny_blob, monkeypatch):
    serialize.load(tiny_blob)
    calls = []
    monkeypatch.setattr(modarith, "is_prime", lambda n: calls.append(n) or True)
    serialize.load(tiny_blob)
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flipped_bytes_load_or_raise_value_error(tiny_blob, data):
    blob = bytearray(tiny_blob)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
    try:
        obj = serialize.load(bytes(blob))
    except ValueError:
        return
    assert serialize.save_ciphertext(obj) == bytes(blob)
