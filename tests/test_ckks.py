from math import prod

import numpy as np
import pytest

from ckkslt import ckks
from ckkslt.ring import BasisMismatch, Domain, RotationIndex, automorphism_coef, automorphism_eval
from ckkslt.rns import RnsPoly, SingleLimb, crt_reconstruct, crt_reconstruct_centered


def test_encode_decode_zero(toy_params):
    pt = ckks.encode(np.zeros(toy_params.slots), toy_params)
    assert not any(l.coeffs.any() for l in pt.poly.limbs)
    assert np.max(np.abs(ckks.decode(pt, toy_params))) == 0


def test_encode_decode_roundtrip(toy_params):
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, toy_params.slots)
    back = ckks.decode(ckks.encode(v, toy_params), toy_params)
    assert np.max(np.abs(back - v)) < 2**-20


def test_encode_slot_shift_compatibility(toy_params):
    rng = np.random.default_rng(1)
    v = rng.uniform(-1, 1, toy_params.slots)
    pt = ckks.encode(v, toy_params)
    for r in (1, 5, toy_params.slots // 2):
        rot = RotationIndex(r, toy_params.ring_dim)
        shifted = RnsPoly([automorphism_coef(l, rot) for l in pt.poly.limbs])
        got = ckks.decode(ckks.Plaintext(shifted, pt.scale), toy_params)
        assert np.max(np.abs(got - np.roll(v, -r))) < 2**-20


def test_encode_overflow_guard(toy_params):
    v = np.full(toy_params.slots, 1.0)
    with pytest.raises(ckks.Overflow):
        ckks.encode(v, toy_params, scale=2**70)


@pytest.mark.parametrize("fill, scale", [(np.nan, None), (np.inf, None), (-np.inf, None),
                                         (1.0, np.inf), (1.0, np.nan), (1.0, 0.0),
                                         (1.0, -2.0**20)])
def test_encode_rejects_non_finite_values_and_bad_scales(toy_params, fill, scale):
    v = np.zeros(toy_params.slots)
    v[3] = fill
    with pytest.raises(ckks.Overflow):
        ckks.encode(v, toy_params, scale=scale)


def test_encrypt_decrypt_roundtrip(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(2)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    back = ckks.decode(ckks.decrypt(ct, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_secret_key_encrypt(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(3)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), sk, toy_params, rng)
    back = ckks.decode(ckks.decrypt(ct, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_trivial_ciphertext_exact(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(4)
    v = rng.uniform(-1, 1, toy_params.slots)
    pt = ckks.encode(v, toy_params)
    dec = ckks.decrypt(ckks.trivial_encrypt(pt), sk)
    for a, b in zip(dec.poly.limbs, pt.poly.limbs):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_homomorphic_addition(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(5)
    v1 = rng.uniform(-1, 1, toy_params.slots)
    v2 = rng.uniform(-1, 1, toy_params.slots)
    ct1 = ckks.encrypt(ckks.encode(v1, toy_params), pk, toy_params, rng)
    ct2 = ckks.encrypt(ckks.encode(v2, toy_params), pk, toy_params, rng)
    back = ckks.decode(ckks.decrypt(ckks.add_ct(ct1, ct2), sk), toy_params)
    assert np.max(np.abs(back - (v1 + v2))) < 2**-14


def test_add_level_mismatch(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(6)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    other = ckks.Ciphertext(ct.c0, ct.c1, ct.scale * 2)
    with pytest.raises(ckks.LevelMismatch):
        ckks.add_ct(ct, other)


def test_switching_key_gadget_identity(small_params):
    # sum_b gadget_b * digit_b == P*c1 (mod PQ): the overshoot terms vanish
    basis = small_params.basis
    rng = np.random.default_rng(7)
    c1 = ckks.uniform_rns(rng, basis.q_moduli, small_params.ring_dim,
                          domain=Domain.COEF)
    from ckkslt.rns import decompose
    digits = decompose(c1, basis)
    gadgets = ckks.gadget_constants(basis)
    big_pq = basis.p_product * basis.q_product
    c1_vals = crt_reconstruct(c1)
    # reconstruct gadget constants as integers mod PQ via CRT of the tables
    pq_mods = [m.q for m in basis.pq_moduli]
    for t in range(0, small_params.ring_dim, 37):
        acc = 0
        for b, d in enumerate(digits):
            d_val = crt_reconstruct(d)[t]
            g_val = _crt_int([gadgets[b][i] for i in range(len(pq_mods))], pq_mods)
            acc += d_val * g_val
        assert acc % big_pq == (basis.p_product * c1_vals[t]) % big_pq


def _crt_int(residues, moduli):
    big = prod(moduli)
    acc = 0
    for r, m in zip(residues, moduli):
        c = big // m
        acc += r * c * pow(c % m, -1, m)
    return acc % big


def test_key_switch_zero_digits(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(8)
    swk = ckks.rotation_keygen(sk, 3, toy_params, rng)
    basis = toy_params.basis
    zero = ckks.uniform_rns(rng, basis.q_moduli, toy_params.ring_dim,
                            domain=Domain.COEF)
    for limb in zero.limbs:
        limb.coeffs[:] = 0
    digits = ckks.hoist_digits(zero, basis)
    u0, u1 = ckks.key_switch(digits, swk)
    assert not any(l.coeffs.any() for l in u0.limbs)
    assert not any(l.coeffs.any() for l in u1.limbs)


def test_key_switch_digit_count_mismatch(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(9)
    swk = ckks.rotation_keygen(sk, 3, toy_params, rng)
    with pytest.raises(ckks.MissingKey):
        ckks.key_switch([], swk)


def test_full_key_switch_recovers_message(toy_params, toy_keys):
    # encrypt under a fresh key, switch to sk, decrypt under sk
    sk, _ = toy_keys
    rng = np.random.default_rng(10)
    other, _ = ckks.keygen(toy_params, rng)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), other, toy_params, rng)
    swk = ckks.swk_gen(other.ntt_form(toy_params.basis.pq_context), sk, toy_params, rng)
    digits = ckks.hoist_digits(ct.c1, toy_params.basis)
    u0, u1 = ckks.key_switch(digits, swk)
    c0 = ckks.rns_add(ckks.moddown_ntt(u0, toy_params.basis), ct.c0)
    c1 = ckks.moddown_ntt(u1, toy_params.basis)
    switched = ckks.Ciphertext(c0, c1, ct.scale)
    back = ckks.decode(ckks.decrypt(switched, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_rotate_identity(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(11)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 1, toy_params, rng)
    out = ckks.rotate(ct, 0, swk, toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_rotate_shifts_slots(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(12)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 5, toy_params, rng)
    out = ckks.rotate(ct, 5, swk, toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - np.roll(v, -5))) < 2**-15


def test_rotate_composition(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(13)
    half = toy_params.slots
    v = rng.uniform(-1, 1, half)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    k3 = ckks.rotation_keygen(sk, 3, toy_params, rng)
    k9 = ckks.rotation_keygen(sk, 9, toy_params, rng)
    k12 = ckks.rotation_keygen(sk, 12, toy_params, rng)
    via_two = ckks.rotate(ckks.rotate(ct, 3, k3, toy_params), 9, k9, toy_params)
    direct = ckks.rotate(ct, 12, k12, toy_params)
    d1 = ckks.decode(ckks.decrypt(via_two, sk), toy_params)
    d2 = ckks.decode(ckks.decrypt(direct, sk), toy_params)
    assert np.max(np.abs(d1 - d2)) < 2**-14


def test_rotation_offset_is_taken_mod_slot_count(toy_params, toy_keys):
    sk, pk = toy_keys
    half = toy_params.slots
    rng = np.random.default_rng(17)
    ct = ckks.encrypt(ckks.encode(rng.uniform(-1, 1, half), toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 5, toy_params, np.random.default_rng(0))
    wrapped = ckks.rotation_keygen(sk, 5 + half, toy_params, np.random.default_rng(0))
    for (k0, k1), (w0, w1) in zip(swk.digits, wrapped.digits):
        assert np.array_equal(k0.coeffs, w0.coeffs) and np.array_equal(k1.coeffs, w1.coeffs)
    ref = ckks.rotate(ct, 5, swk, toy_params)
    for r in (5 + half, 5 - half):
        out = ckks.rotate(ct, r, swk, toy_params)
        assert np.array_equal(out.c0.coeffs, ref.c0.coeffs)
        assert np.array_equal(out.c1.coeffs, ref.c1.coeffs)
    # a hoisted key records its offset as given and serves the reduced rotation
    hoisted = ckks.rotation_keygen(sk, 5 + half, toy_params, rng, hoisted=True)
    assert hoisted.hoist_offset == 5 + half
    digits = ckks.hoist_digits(ct.c1, toy_params.basis)
    a0 = ckks.raise_to_pq(ct.c0, toy_params.basis)
    ckks.hoisted_rotation(a0, digits, hoisted, RotationIndex(5, toy_params.ring_dim))
    with pytest.raises(ckks.MissingKey):
        ckks.hoisted_rotation(a0, digits, hoisted, RotationIndex(6, toy_params.ring_dim))


def test_hoisted_key_twist_is_exact_inverse(toy_params, toy_keys):
    sk, _ = toy_keys
    rng = np.random.default_rng(14)
    plain = ckks.rotation_keygen(sk, 6, toy_params, rng)
    hoisted = ckks.rotation_keygen(
        sk, 6, toy_params, np.random.default_rng(14), hoisted=True)
    rot = RotationIndex(6, toy_params.ring_dim)
    for (p0, p1), (h0, h1) in zip(plain.digits, hoisted.digits):
        back0 = automorphism_eval(h0, rot)
        back1 = automorphism_eval(h1, rot)
        for a, b in zip(back0.limbs, p0.limbs):
            assert np.array_equal(a.coeffs, b.coeffs)
        for a, b in zip(back1.limbs, p1.limbs):
            assert np.array_equal(a.coeffs, b.coeffs)


def test_hoisted_zero_offset_equals_plain(toy_params, toy_keys):
    sk, _ = toy_keys
    plain = ckks.rotation_keygen(sk, 0, toy_params, np.random.default_rng(15))
    hoisted = ckks.rotation_keygen(sk, 0, toy_params,
                                   np.random.default_rng(15), hoisted=True)
    assert hoisted.hoist_offset == 0
    for (p0, _), (h0, _) in zip(plain.digits, hoisted.digits):
        for a, b in zip(p0.limbs, h0.limbs):
            assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("r", [1, 7, 100])
def test_hoisted_rotation_equals_plain(toy_params, toy_keys, r):
    sk, pk = toy_keys
    rng = np.random.default_rng(16 + r)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    plain = ckks.rotation_keygen(sk, r, toy_params, rng)
    hoisted = ckks.rotation_keygen(sk, r, toy_params, rng, hoisted=True)
    ref = ckks.rotate(ct, r, plain, toy_params)
    rot = RotationIndex(r, toy_params.ring_dim)
    digits = ckks.hoist_digits(ct.c1, toy_params.basis)
    u0, u1 = ckks.key_switch(digits, hoisted)
    a0 = ckks.raise_to_pq(ct.c0, toy_params.basis)
    c0 = ckks.moddown_ntt(automorphism_eval(ckks.rns_add(a0, u0), rot),
                          toy_params.basis)
    c1 = ckks.moddown_ntt(automorphism_eval(u1, rot), toy_params.basis)
    got = ckks.Ciphertext(c0, c1, ct.scale)
    d_ref = ckks.decode(ckks.decrypt(ref, sk), toy_params)
    d_got = ckks.decode(ckks.decrypt(got, sk), toy_params)
    assert np.max(np.abs(d_ref - d_got)) < 2**-12
    assert np.max(np.abs(d_got - np.roll(v, -r))) < 2**-12


def test_pt_ct_mult_ones_identity(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(20)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    ones = ckks.encode(np.ones(toy_params.slots), toy_params)
    out = ckks.rescale_ct(ckks.pt_ct_mult(ones, ct), toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-10
    assert out.level == ct.level - 1


def test_pt_ct_mult_pointwise(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(21)
    v = rng.uniform(-1, 1, toy_params.slots)
    f = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    out = ckks.rescale_ct(ckks.pt_ct_mult(ckks.encode(f, toy_params), ct),
                          toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - f * v)) < 2**-10


def test_pt_ct_mult_zero(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(22)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    zero = ckks.encode(np.zeros(toy_params.slots), toy_params)
    out = ckks.rescale_ct(ckks.pt_ct_mult(zero, ct), toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back)) < 2**-10


def test_scale_bookkeeping(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(23)
    v = rng.uniform(-1, 1, toy_params.slots)
    pt = ckks.encode(v, toy_params)
    ct = ckks.encrypt(pt, pk, toy_params, rng)
    prod_ct = ckks.pt_ct_mult(pt, ct)
    assert prod_ct.scale == pt.scale * ct.scale
    dropped = ct.c0.limbs[-1].modulus.q
    assert ckks.rescale_ct(prod_ct, toy_params).scale == prod_ct.scale / dropped


def test_end_to_end_pipeline(toy_params, toy_keys):
    # encode -> encrypt -> rotate -> multiply -> rescale -> decrypt -> decode
    sk, pk = toy_keys
    rng = np.random.default_rng(24)
    v = rng.uniform(-1, 1, toy_params.slots)
    f = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 2, toy_params, rng)
    ct = ckks.rotate(ct, 2, swk, toy_params)
    ct = ckks.rescale_ct(ckks.pt_ct_mult(ckks.encode(f, toy_params), ct),
                         toy_params)
    back = ckks.decode(ckks.decrypt(ct, sk), toy_params)
    assert np.max(np.abs(back - f * np.roll(v, -2))) < 2**-10


def test_encode_wrong_length(toy_params):
    with pytest.raises(BasisMismatch):
        ckks.encode(np.zeros(3), toy_params)


def test_operands_over_different_bases_are_a_basis_mismatch(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(22)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    low = ckks.rescale_ct(ct, toy_params)  # one limb fewer
    with pytest.raises(BasisMismatch):
        ckks.pt_ct_mult(ckks.encode(v, toy_params), low)
    with pytest.raises(BasisMismatch):
        ckks.decrypt(ckks.Ciphertext(ct.c0, low.c1, ct.scale), sk)


def test_one_level_is_rejected_before_any_work():
    # a linear transform ends in one rescale, which one data limb cannot do
    with pytest.raises(SingleLimb):
        ckks.CkksParams.make(ring_dim=2**6, levels=1, alpha=1)
