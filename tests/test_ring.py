import numpy as np
import pytest

from ckkslt import ring
from ckkslt.modarith import find_ntt_primes


@pytest.fixture(scope="module")
def mod64():
    return find_ntt_primes(30, 64, 1)[0]


@pytest.mark.parametrize("log_n", [4, 6, 8, 10, 13])
def test_roundtrip_exact(log_n):
    m = find_ntt_primes(44 if log_n >= 10 else 30, 2**log_n, 1)[0]
    rng = np.random.default_rng(log_n)
    for _ in range(3):
        p = ring.random_poly(m, rng)
        assert np.array_equal(ring.intt(ring.ntt(p)).coeffs, p.coeffs)


def test_roundtrip_many_random(mod64):
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = ring.random_poly(mod64, rng)
        assert np.array_equal(ring.intt(ring.ntt(p)).coeffs, p.coeffs)


def test_ntt_zero_is_zero(mod64):
    z = ring.zero_poly(mod64)
    assert not ring.ntt(z).coeffs.any()


def test_pointwise_product_matches_schoolbook(mod64):
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = ring.random_poly(mod64, rng)
        b = ring.random_poly(mod64, rng)
        fast = ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
        ref = ring.negacyclic_mul_schoolbook(a.coeffs, b.coeffs, mod64.q)
        assert np.array_equal(fast.coeffs, ref)


def test_negacyclic_wrap_sign(mod64):
    n = mod64.ring_dim
    a = ring.zero_poly(mod64)
    a.coeffs[n - 1] = 1  # x^(N-1)
    b = ring.zero_poly(mod64)
    b.coeffs[1] = 1  # x
    prod = ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
    expect = np.zeros(n, dtype=np.uint64)
    expect[0] = mod64.q - 1  # x^N = -1
    assert np.array_equal(prod.coeffs, expect)


def test_pointwise_identities(mod64):
    rng = np.random.default_rng(5)
    p = ring.random_poly(mod64, rng)
    z = ring.zero_poly(mod64)
    assert np.array_equal(ring.pointwise_add(p, z).coeffs, p.coeffs)
    assert np.array_equal(ring.scalar_mul(p, 1).coeffs, p.coeffs)
    assert not ring.pointwise_sub(p, p).coeffs.any()


def test_domain_and_modulus_mismatch(mod64):
    rng = np.random.default_rng(6)
    p = ring.random_poly(mod64, rng)
    with pytest.raises(ring.DomainMismatch):
        ring.intt(p)
    with pytest.raises(ring.DomainMismatch):
        ring.pointwise_mul(p, ring.ntt(p.copy()))
    other = find_ntt_primes(29, 64, 1)[0]
    with pytest.raises(ring.ModulusMismatch):
        ring.pointwise_add(p, ring.random_poly(other, rng))


def test_automorphism_zero_rotation_identity(mod64):
    rng = np.random.default_rng(7)
    p = ring.random_poly(mod64, rng)
    rot0 = ring.RotationIndex(0, mod64.ring_dim)
    assert np.array_equal(ring.automorphism_coef(p, rot0).coeffs, p.coeffs)
    pn = ring.ntt(p)
    assert np.array_equal(ring.automorphism_eval(pn, rot0).coeffs, pn.coeffs)


def test_automorphism_x_to_x5():
    m = find_ntt_primes(20, 8, 1)[0]
    p = ring.zero_poly(m)
    p.coeffs[1] = 1
    out = ring.automorphism_coef(p, ring.RotationIndex(1, 8))
    expect = np.zeros(8, dtype=np.uint64)
    expect[5] = 1
    assert np.array_equal(out.coeffs, expect)


def test_automorphism_composition(mod64):
    rng = np.random.default_rng(8)
    half = mod64.ring_dim // 2
    for _ in range(30):
        p = ring.random_poly(mod64, rng)
        r1, r2 = rng.integers(0, half, 2)
        a = ring.automorphism_coef(
            ring.automorphism_coef(p, ring.RotationIndex(int(r1), mod64.ring_dim)),
            ring.RotationIndex(int(r2), mod64.ring_dim))
        b = ring.automorphism_coef(
            p, ring.RotationIndex(int((r1 + r2) % half), mod64.ring_dim))
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("log_n", [4, 6])
def test_eval_automorphism_matches_transform_path(log_n):
    n = 2**log_n
    m = find_ntt_primes(25, n, 1)[0]
    rng = np.random.default_rng(log_n + 100)
    for _ in range(1000):
        p = ring.random_poly(m, rng)
        r = int(rng.integers(0, n // 2))
        rot = ring.RotationIndex(r, n)
        via_perm = ring.automorphism_eval(ring.ntt(p), rot)
        via_coef = ring.ntt(ring.automorphism_coef(p, rot))
        assert np.array_equal(via_perm.coeffs, via_coef.coeffs)


@pytest.mark.parametrize("log_n", [4, 6, 8, 10])
def test_eval_permutation_bijective_every_rotation(log_n):
    n = 2**log_n
    full = np.arange(n)
    for r in range(n // 2):
        g_r = pow(ring.ROTATION_GENERATOR, r, 2 * n)
        src = ring.eval_permutation(n, g_r)
        assert np.array_equal(np.sort(src), full)


def test_rotation_index_oddness():
    for n in (16, 64, 256):
        for r in range(n // 2):
            rot = ring.RotationIndex(r, n)
            assert rot.g_r % 2 == 1
            inv = rot.inverse()
            assert rot.g_r * inv.g_r % (2 * n) == 1


def test_vector_kernel_against_wide_oracle_large():
    # >= 1e6 randomized cases against exact big-int products
    q = find_ntt_primes(50, 2**4, 1)[0].q
    rng = np.random.default_rng(9)
    total = 0
    for _ in range(4):
        a = rng.integers(0, q, 1 << 18, dtype=np.uint64)
        b = rng.integers(0, q, 1 << 18, dtype=np.uint64)
        got = ring.mod_mul_vec(a, b, q)
        ref = (a.astype(object) * b.astype(object)) % q
        assert np.array_equal(got.astype(object), ref)
        total += len(a)
    assert total >= 10**6


def test_vector_kernel_object_path_matches():
    q = find_ntt_primes(58, 2**4, 1)[0].q
    rng = np.random.default_rng(10)
    a = rng.integers(0, q, 4096, dtype=np.uint64)
    b = rng.integers(0, q, 4096, dtype=np.uint64)
    got = ring.mod_mul_vec(a, b, q)
    ref = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(got.astype(object), ref)


def test_mixed_width_block_matches_single_limbs():
    # 30/44-bit rows take the float path, 54/60-bit rows the exact path
    from ckkslt.rns import RnsPoly

    n = 64
    moduli = [find_ntt_primes(bits, n, 1)[0] for bits in (30, 44, 54, 60)]
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = (RnsPoly([ring.random_poly(m, rng) for m in moduli]) for _ in range(2))
        xn, yn = ring.ntt(x), ring.ntt(y)
        assert np.array_equal(ring.intt(xn).coeffs, x.coeffs)
        prod = ring.intt(ring.pointwise_mul(xn, yn))
        rot = ring.RotationIndex(int(rng.integers(1, n // 2)), n)
        auto_eval = ring.automorphism_eval(xn, rot)
        auto_coef = ring.automorphism_coef(x, rot)
        for j, m in enumerate(moduli):
            a, b = x.limbs[j], y.limbs[j]
            assert np.array_equal(xn.coeffs[j], ring.ntt(a).coeffs)
            assert np.array_equal(prod.coeffs[j],
                                  ring.negacyclic_mul_schoolbook(a.coeffs, b.coeffs, m.q))
            assert np.array_equal(auto_eval.coeffs[j],
                                  ring.automorphism_eval(ring.ntt(a), rot).coeffs)
            assert np.array_equal(auto_coef.coeffs[j], ring.automorphism_coef(a, rot).coeffs)
