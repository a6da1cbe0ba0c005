from dataclasses import replace
from math import prod

import numpy as np
import pytest

from ckkslt import ckks, ring
from ckkslt.ring import BasisMismatch, Domain, RotationIndex, automorphism_coef, automorphism_eval
from ckkslt.rns import RnsPoly, SingleLimb, crt_reconstruct, crt_reconstruct_centered
from oracles import rotate_automorphism_first


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
        ckks.encode(v, replace(toy_params, scale=2**70))


@pytest.mark.parametrize("fill, scale", [(np.nan, None), (np.inf, None), (-np.inf, None),
                                         (1.0, np.inf), (1.0, np.nan), (1.0, 0.0),
                                         (1.0, -2.0**20)])
def test_encode_rejects_non_finite_values_and_bad_scales(toy_params, fill, scale):
    v = np.zeros(toy_params.slots)
    v[3] = fill
    params = toy_params if scale is None else replace(toy_params, scale=scale)
    with pytest.raises(ckks.Overflow):
        ckks.encode(v, params)


def test_encode_takes_real_python_objects(toy_params):
    # an object array of real numbers (Python ints past int64, say) converts
    v = np.random.default_rng(15).uniform(-1, 1, toy_params.slots)
    want = ckks.encode(v, toy_params).poly.coeffs
    assert np.array_equal(ckks.encode(v.astype(object), toy_params).poly.coeffs, want)
    assert np.array_equal(ckks.encode(list(v), toy_params).poly.coeffs, want)
    with pytest.raises(ckks.Overflow):
        ckks.encode(np.array([2**70] * toy_params.slots, dtype=object), toy_params)


def test_gaussian_ints_are_one_int64_array():
    # the same draws as the Python list of ints they replaced
    draw = ckks.sample_gaussian_ints(np.random.default_rng(4), 1024)
    want = np.rint(np.random.default_rng(4).normal(0.0, ckks.NOISE_SIGMA, 1024))
    assert draw.dtype == np.int64 and np.array_equal(draw, want)


def test_encrypt_decrypt_roundtrip(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(2)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    back = ckks.decode(ckks.decrypt(ct, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


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
    # uniform residues are uniform in either domain
    c1 = ckks.uniform_rns(rng, basis.q_moduli, small_params.ring_dim)
    c1 = c1.like(c1.coeffs, Domain.COEF)
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
    zero = RnsPoly(np.zeros((len(basis.q_moduli), toy_params.ring_dim), np.uint64),
                   basis.q_moduli, Domain.COEF)
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
    other, other_pk = ckks.keygen(toy_params, rng)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), other_pk, toy_params, rng)
    swk = ckks.swk_gen(other.ntt_form(toy_params.basis.pq_context), sk, toy_params, rng)
    digits = ckks.hoist_digits(ct.c1, toy_params.basis)
    u0, u1 = ckks.key_switch(digits, swk)
    c0 = ckks.rns_add(ckks.moddown_ntt(u0, toy_params.basis), ct.c0)
    c1 = ckks.moddown_ntt(u1, toy_params.basis)
    switched = ckks.Ciphertext(c0, c1, ct.scale)
    back = ckks.decode(ckks.decrypt(switched, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_rotate_identity(toy_params, toy_keys):
    # offset 0 is a rotation like any other, not a copy: it takes the key for
    # offset 0, and a key for another offset raises
    sk, pk = toy_keys
    rng = np.random.default_rng(11)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 1, toy_params, rng)
    for r in (0, 2):
        with pytest.raises(ckks.MissingKey):
            ckks.rotate_many([(ct, r, swk)], toy_params)
    [out] = ckks.rotate_many([(ct, 0, ckks.rotation_keygen(sk, 0, toy_params, rng))], toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-15


def test_rotate_shifts_slots(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(12)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    swk = ckks.rotation_keygen(sk, 5, toy_params, rng)
    [out] = ckks.rotate_many([(ct, 5, swk)], toy_params)
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
    [by_three, direct] = ckks.rotate_many([(ct, 3, k3), (ct, 12, k12)], toy_params)
    [via_two] = ckks.rotate_many([(by_three, 9, k9)], toy_params)
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
    ref, *wrapped_outs = ckks.rotate_many([(ct, r, swk) for r in (5, 5 + half, 5 - half)],
                                          toy_params)
    for out in wrapped_outs:
        assert np.array_equal(out.c0.coeffs, ref.c0.coeffs)
        assert np.array_equal(out.c1.coeffs, ref.c1.coeffs)
    # a key records its offset as given and serves the reduced rotation
    assert wrapped.hoist_offset == 5 + half
    digits = ckks.hoist_digits(ct.c1, toy_params.basis)
    a0 = ckks.raise_to_pq(ct.c0, toy_params.basis)
    ckks.hoisted_rotation(a0, digits, wrapped, RotationIndex(5, toy_params.ring_dim))
    with pytest.raises(ckks.MissingKey):
        ckks.hoisted_rotation(a0, digits, wrapped, RotationIndex(6, toy_params.ring_dim))


def _swk_gen_for(sk, r, params, seed):
    """swk_gen's key from phi_r(s) to s, drawn from ``seed``, untwisted."""
    s_rot = automorphism_eval(sk.ntt_form(params.basis.pq_context),
                              RotationIndex(r, params.ring_dim))
    return ckks.swk_gen(s_rot, sk, params, np.random.default_rng(seed))


def _assert_same_key(got, want):
    assert len(got.digits) == len(want.digits)
    for pair, want_pair in zip(got.digits, want.digits):
        for k, w in zip(pair, want_pair):
            assert k.context is w.context and np.array_equal(k.coeffs, w.coeffs)


def test_hoisted_key_twist_is_exact_inverse(toy_params, toy_keys):
    # every rotation key is swk_gen's key from the same draws, permuted by phi_r^-1
    sk, _ = toy_keys
    for r in (6, 100):
        inv = RotationIndex(r, toy_params.ring_dim).inverse()
        key = ckks.rotation_keygen(sk, r, toy_params, np.random.default_rng(14))
        plain = _swk_gen_for(sk, r, toy_params, 14)
        assert key.hoist_offset == r
        _assert_same_key(key, ckks.SwitchingKey([(automorphism_eval(k0, inv),
                                                  automorphism_eval(k1, inv))
                                                 for k0, k1 in plain.digits]))


def test_hoisted_zero_offset_equals_plain(toy_params, toy_keys):
    # phi_0 is the identity, so the key for offset 0 is swk_gen's, untwisted
    sk, _ = toy_keys
    key = ckks.rotation_keygen(sk, 0, toy_params, np.random.default_rng(15))
    assert key.hoist_offset == 0
    _assert_same_key(key, _swk_gen_for(sk, 0, toy_params, 15))


@pytest.mark.parametrize("r", [1, 7, 100])
def test_hoisted_rotation_equals_plain(toy_params, r):
    # rotate_many against the automorphism-first oracle and against np.roll,
    # on the toy shape and at N=2^6 with beta = 1 and 3 on the float and the
    # exact multiply route; one key serves r, r + N/2 and r - N/2
    small = [ckks.CkksParams.make(ring_dim=2**6, levels=5, alpha=alpha, prime_bits=bits)
             for bits in (44, 54) for alpha in (5, 2)]
    for i, params in enumerate((toy_params, *small)):
        rng = np.random.default_rng(16 + 1000 * i + r)
        sk, pk = ckks.keygen(params, rng)
        v = rng.uniform(-1, 1, params.slots)
        ct = ckks.encrypt(ckks.encode(v, params), pk, params, rng)
        swk = ckks.rotation_keygen(sk, r, params, rng)
        offsets = (r, r + params.slots, r - params.slots)
        got = ckks.rotate_many([(ct, off, swk) for off in offsets], params)
        for off, out in zip(offsets, got):
            ref = rotate_automorphism_first(ct, off, swk, params)
            d_ref = ckks.decode(ckks.decrypt(ref, sk), params)
            d_got = ckks.decode(ckks.decrypt(out, sk), params)
            assert np.max(np.abs(d_got - d_ref)) < 2**-12, (params.basis, off)
            assert np.max(np.abs(d_got - np.roll(v, -off))) < 2**-12, (params.basis, off)


def test_pt_ct_mult_ones_identity(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(20)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    ones = ckks.encode(np.ones(toy_params.slots), toy_params)
    out = ckks.rescale_ct(ckks.pt_ct_dot([(ones, ct)]), toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - v)) < 2**-10
    assert out.level == ct.level - 1


def test_pt_ct_mult_pointwise(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(21)
    v = rng.uniform(-1, 1, toy_params.slots)
    f = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    out = ckks.rescale_ct(ckks.pt_ct_dot([(ckks.encode(f, toy_params), ct)]),
                          toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back - f * v)) < 2**-10


def test_pt_ct_mult_zero(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(22)
    v = rng.uniform(-1, 1, toy_params.slots)
    ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
    zero = ckks.encode(np.zeros(toy_params.slots), toy_params)
    out = ckks.rescale_ct(ckks.pt_ct_dot([(zero, ct)]), toy_params)
    back = ckks.decode(ckks.decrypt(out, sk), toy_params)
    assert np.max(np.abs(back)) < 2**-10


def test_scale_bookkeeping(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(23)
    v = rng.uniform(-1, 1, toy_params.slots)
    pt = ckks.encode(v, toy_params)
    ct = ckks.encrypt(pt, pk, toy_params, rng)
    prod_ct = ckks.pt_ct_dot([(pt, ct)])
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
    [ct] = ckks.rotate_many([(ct, 2, swk)], toy_params)
    ct = ckks.rescale_ct(ckks.pt_ct_dot([(ckks.encode(f, toy_params), ct)]),
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
        ckks.pt_ct_dot([(ckks.encode(v, toy_params), low)])
    with pytest.raises(BasisMismatch):
        ckks.decrypt(ckks.Ciphertext(ct.c0, low.c1, ct.scale), sk)


def test_rescale_of_components_over_different_bases_is_a_basis_mismatch(
        monkeypatch, toy_params, toy_keys):
    # unchecked, c0 over five limbs and c1 over four came back over four and
    # three, with the scale divided by c0's top modulus
    sk, pk = toy_keys
    rng = np.random.default_rng(23)
    ct = ckks.encrypt(ckks.encode(rng.uniform(-1, 1, toy_params.slots), toy_params), pk,
                      toy_params, rng)
    low = ckks.rescale_ct(ct, toy_params)
    calls = []
    inverse = ring._inverse_ntt
    monkeypatch.setattr(ring, "_inverse_ntt", lambda *args: calls.append(1) or inverse(*args))
    for mixed in (ckks.Ciphertext(ct.c0, low.c1, ct.scale), ckks.Ciphertext(low.c0, ct.c1, ct.scale)):
        with pytest.raises(BasisMismatch):
            ckks.rescale_ct(mixed, toy_params)
    assert calls == []


@pytest.mark.parametrize("bits, alpha", [(44, 5), (44, 2), (54, 5), (54, 2)])
def test_batched_rotation_equals_one_at_a_time(bits, alpha):
    # beta = 1 and 3 on the float and the exact multiply route
    params = ckks.CkksParams.make(ring_dim=2**6, levels=5, alpha=alpha, prime_bits=bits)
    rng = np.random.default_rng(bits * alpha)
    sk, pk = ckks.keygen(params, rng)
    keys = {r: ckks.rotation_keygen(sk, r, params, rng) for r in (1, 3, 7)}
    vs = [rng.uniform(-1, 1, params.slots) for _ in range(2)]
    cts = [ckks.encrypt(ckks.encode(v, params), pk, params, rng) for v in vs]
    jobs = [(cts[0], 1, keys[1]), (cts[1], 3, keys[3]), (cts[1], 7, keys[7])]
    got = ckks.rotate_many(iter(jobs), params)
    assert len(got) == len(jobs)
    for out, job in zip(got, jobs):
        [want] = ckks.rotate_many([job], params)
        assert out.scale == want.scale
        for a, b in ((out.c0, want.c0), (out.c1, want.c1)):
            assert a.context is b.context and np.array_equal(a.coeffs, b.coeffs)
    back = ckks.decode(ckks.decrypt(got[2], sk), params)
    assert np.max(np.abs(back - np.roll(vs[1], -7))) < 2**-10
    # a zero-offset job is a rotation too, and the key for 7 is not its key
    with pytest.raises(ckks.MissingKey):
        ckks.rotate_many([*jobs, (cts[0], 0, keys[7])], params)


def test_one_level_is_rejected_before_any_work():
    # a linear transform ends in one rescale, which one data limb cannot do
    with pytest.raises(SingleLimb):
        ckks.CkksParams.make(ring_dim=2**6, levels=1, alpha=1)
