from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckkslt import rns
from ckkslt.modarith import Modulus, find_ntt_primes
from ckkslt.ring import Domain, intt, ntt


@pytest.fixture(scope="module")
def toy_basis():
    # 20-bit moduli, N=2^6: L+1=4, alpha=2, beta=2
    primes = find_ntt_primes(20, 2**6, 6)
    return rns.RnsBasis(primes[:4], primes[4:])


def centered(v, m):
    v %= m
    return v - m if v > m // 2 else v


def random_rns(rng, moduli, n):
    # uniform mod prod(moduli) via independent per-limb residues (CRT)
    poly = rns.rns_from_ints([0] * n, moduli)
    for limb in poly.limbs:
        limb.coeffs = rng.integers(0, limb.modulus.q, n, dtype=np.uint64)
    vals = rns.crt_reconstruct(poly)
    return vals, poly


def test_bconv_zero(toy_basis):
    zero = rns.rns_from_ints([0] * 64, toy_basis.q_moduli)
    out = rns.bconv(zero, toy_basis.p_moduli, toy_basis)
    assert all(not l.coeffs.any() for l in out.limbs)


def test_bconv_single_modulus_exact(toy_basis):
    rng = np.random.default_rng(0)
    src = [toy_basis.q_moduli[0]]
    vals = [int(rng.integers(0, src[0].q)) for _ in range(64)]
    p = rns.rns_from_ints(vals, src)
    out = rns.bconv(p, toy_basis.p_moduli, toy_basis)
    for i, m in enumerate(toy_basis.p_moduli):
        assert out.limbs[i].coeffs.tolist() == [v % m.q for v in vals]


def test_bconv_spec_toy_17_97_193():
    # q = {17, 97}, p = {193}, a = 1000: output = 1000 + u*1649 mod 193
    qs = [Modulus(17, 2), Modulus(97, 2)]
    ps = [Modulus(193, 2)]
    basis = rns.RnsBasis(qs, ps)
    a = rns.rns_from_ints([1000, 0], qs)
    out = rns.bconv(a, ps, basis)
    got = int(out.limbs[0].coeffs[0])
    assert got in {(1000 + u * 1649) % 193 for u in (0, 1)}


def test_bconv_overshoot_bound(toy_basis):
    # u in [0, |B1|-1] on >= 1e3 random coefficients (CRT oracle)
    rng = np.random.default_rng(1)
    src = toy_basis.q_moduli
    big = prod(m.q for m in src)
    cases = 0
    for _ in range(20):
        vals, p = random_rns(rng, src, 64)
        out = rns.bconv(p, toy_basis.p_moduli, toy_basis)
        for i, m in enumerate(toy_basis.p_moduli):
            for t in range(64):
                got = int(out.limbs[i].coeffs[t])
                u_ok = any(
                    (vals[t] + u * big) % m.q == got for u in range(len(src))
                )
                assert u_ok
                cases += 1
    assert cases >= 1000


def test_decompose_counts_and_verbatim(toy_basis):
    rng = np.random.default_rng(2)
    _, c = random_rns(rng, toy_basis.q_moduli, 64)
    digits = rns.decompose(c, toy_basis)
    assert len(digits) == toy_basis.beta
    total = toy_basis.level_count + toy_basis.alpha
    assert all(len(d.limbs) == total for d in digits)
    for b, d in enumerate(digits):
        for j in toy_basis.digit_group(b):
            m = toy_basis.q_moduli[j]
            pos = [x.q for x in toy_basis.pq_moduli].index(m.q)
            assert np.array_equal(d.limbs[pos].coeffs, c.limbs[j].coeffs)
        # reduced mod its own group, the digit equals the original limbs
        recon = rns.crt_reconstruct(d)
        for j in toy_basis.digit_group(b):
            q = toy_basis.q_moduli[j].q
            assert [r % q for r in recon] == c.limbs[j].coeffs.tolist()


def test_decompose_single_group():
    primes = find_ntt_primes(20, 2**5, 4)
    basis = rns.RnsBasis(primes[:2], primes[2:])  # alpha=2 >= L+1=2: beta=1
    assert basis.beta == 1
    rng = np.random.default_rng(3)
    vals, c = random_rns(rng, basis.q_moduli, 32)
    (digit,) = rns.decompose(c, basis)
    conv = rns.bconv(c, basis.p_moduli, basis)
    for i in range(basis.alpha):
        assert np.array_equal(digit.limbs[i].coeffs, conv.limbs[i].coeffs)


def test_decompose_gadget_reconstruction(toy_basis):
    rng = np.random.default_rng(4)
    big_q = toy_basis.q_product
    vals, c = random_rns(rng, toy_basis.q_moduli, 64)
    digits = rns.decompose(c, toy_basis)
    recon = [rns.crt_reconstruct(d) for d in digits]
    for t in range(64):
        acc = 0
        for b in range(toy_basis.beta):
            q_b = toy_basis.digit_modulus(b)
            gadget = (big_q // q_b) * pow((big_q // q_b) % q_b, -1, q_b)
            acc += recon[b][t] * gadget
        assert (acc - vals[t]) % big_q == 0


def test_moddown_exact_multiples(toy_basis):
    rng = np.random.default_rng(5)
    big_p = toy_basis.p_product
    small = [int(x) for x in rng.integers(-500, 500, 64)]
    lifted = rns.rns_from_ints([big_p * v for v in small], toy_basis.pq_moduli)
    down = rns.crt_reconstruct_centered(rns.moddown(lifted, toy_basis))
    assert down == small


def test_moddown_error_bound(toy_basis):
    # exact oracle: for c in [0, PQ), the result is floor(c/P) - u with the
    # conversion overshoot u in [0, alpha-1]; distance to c/P stays <= alpha
    rng = np.random.default_rng(6)
    big_p = toy_basis.p_product
    big_q = toy_basis.q_product
    cases = 0
    for _ in range(20):
        vals, c = random_rns(rng, toy_basis.pq_moduli, 64)
        down = rns.crt_reconstruct_centered(rns.moddown(c, toy_basis))
        for t in range(64):
            err = centered((down[t] - vals[t] // big_p) % big_q, big_q)
            assert -toy_basis.alpha < err <= 0
            cases += 1
    assert cases >= 1000


def test_moddown_zero(toy_basis):
    z = rns.rns_from_ints([0] * 64, toy_basis.pq_moduli)
    out = rns.moddown(z, toy_basis)
    assert all(not l.coeffs.any() for l in out.limbs)


def test_rescale_exact_multiples(toy_basis):
    rng = np.random.default_rng(7)
    q_last = toy_basis.q_moduli[-1].q
    small = [int(x) for x in rng.integers(-500, 500, 64)]
    c = rns.rns_from_ints([q_last * v for v in small], toy_basis.q_moduli)
    out = rns.crt_reconstruct_centered(rns.rescale(c))
    assert out == small


def test_rescale_error_bound(toy_basis):
    # exact oracle: for c in [0, Q), rescale yields floor(c/q_last), i.e.
    # distance to c/q_last strictly below 1
    rng = np.random.default_rng(8)
    q_last = toy_basis.q_moduli[-1].q
    reduced = toy_basis.q_product // q_last
    cases = 0
    for _ in range(20):
        vals, c = random_rns(rng, toy_basis.q_moduli, 64)
        out = rns.crt_reconstruct_centered(rns.rescale(c))
        for t in range(64):
            err = centered((out[t] - vals[t] // q_last) % reduced, reduced)
            assert abs(err) <= 1
            cases += 1
    assert cases >= 1000


def test_rescale_zero_and_single_limb(toy_basis):
    z = rns.rns_from_ints([0] * 64, toy_basis.q_moduli)
    out = rns.rescale(z)
    assert all(not l.coeffs.any() for l in out.limbs)
    single = rns.RnsPoly([z.limbs[0]])
    with pytest.raises(rns.SingleLimb):
        rns.rescale(single)


def test_bconv_overlap_error(toy_basis):
    rng = np.random.default_rng(9)
    _, c = random_rns(rng, toy_basis.q_moduli, 64)
    with pytest.raises(rns.BasisOverlap):
        rns.bconv(c, [toy_basis.q_moduli[0]], toy_basis)


def test_moddown_shape_errors(toy_basis):
    rng = np.random.default_rng(10)
    _, c = random_rns(rng, toy_basis.q_moduli, 64)
    with pytest.raises(rns.BasisMismatch):
        rns.moddown(c, toy_basis)  # missing special limbs


def test_moddown_lift_identity_within_margin(toy_basis):
    # values well inside Q/2 - alpha*P margin survive lift + moddown exactly
    rng = np.random.default_rng(11)
    big_p = toy_basis.p_product
    vals = [int(rng.integers(-(2**60), 2**60)) for _ in range(64)]
    lifted = rns.rns_from_ints([big_p * v for v in vals], toy_basis.pq_moduli)
    down = rns.crt_reconstruct_centered(rns.moddown(lifted, toy_basis))
    assert down == vals


# ---------------------------------------------------------------------------
# every prime width Modulus accepts: 20..60 bits, 1..16 source limbs


@lru_cache(maxsize=None)
def _primes(bits):
    return find_ntt_primes(bits, 16, 20)


width = st.integers(20, 60)
limbs = st.integers(1, 16)


@settings(max_examples=40, deadline=None)
@example(bits=60, src=16, seed=0)
@given(bits=width, src=limbs, seed=st.integers(0, 2**32 - 1))
def test_bconv_overshoot_bound_any_width(bits, src, seed):
    primes = _primes(bits)
    basis = rns.RnsBasis(primes[:src], primes[src:])
    vals, p = random_rns(np.random.default_rng(seed), basis.q_moduli, 16)
    out = rns.bconv(p, basis.p_moduli, basis)
    big = basis.q_product
    for i, m in enumerate(basis.p_moduli):
        for t in range(16):
            got = int(out.limbs[i].coeffs[t])
            assert any((vals[t] + u * big) % m.q == got for u in range(src))


@settings(max_examples=40, deadline=None)
@example(bits=60, src=16, seed=0)
@given(bits=width, src=limbs, seed=st.integers(0, 2**32 - 1))
def test_moddown_error_bound_any_width(bits, src, seed):
    primes = _primes(bits)
    basis = rns.RnsBasis(primes[16:], primes[:src])  # alpha = src special limbs
    vals, c = random_rns(np.random.default_rng(seed), basis.pq_moduli, 16)
    down = rns.crt_reconstruct_centered(rns.moddown(c, basis))
    big_p, big_q = basis.p_product, basis.q_product
    for t in range(16):
        err = centered((down[t] - vals[t] // big_p) % big_q, big_q)
        assert -basis.alpha < err <= 0


@settings(max_examples=40, deadline=None)
@example(bits=60, src=16, seed=0)
@given(bits=width, src=limbs, seed=st.integers(0, 2**32 - 1))
def test_rescale_error_bound_any_width(bits, src, seed):
    moduli = _primes(bits)[:src + 1]
    vals, c = random_rns(np.random.default_rng(seed), moduli, 16)
    out = rns.crt_reconstruct_centered(rns.rescale(c))
    reduced = prod(m.q for m in moduli[:-1])
    for t in range(16):
        err = centered((out[t] - vals[t] // moduli[-1].q) % reduced, reduced)
        assert abs(err) <= 1


def test_ntt_domain_decompose_and_moddown_match_coefficient_domain(toy_basis):
    # only the converted limbs change domain; NTT linearity makes the rest exact
    rng = np.random.default_rng(12)
    _, c = random_rns(rng, toy_basis.q_moduli, 64)
    for got, want in zip(rns.decompose(ntt(c), toy_basis), rns.decompose(c, toy_basis)):
        assert got.domain == Domain.NTT
        assert np.array_equal(intt(got).coeffs, want.coeffs)
    _, pc = random_rns(rng, toy_basis.pq_moduli, 64)
    down = rns.moddown(ntt(pc), toy_basis)
    assert down.domain == Domain.NTT
    assert np.array_equal(intt(down).coeffs, rns.moddown(pc, toy_basis).coeffs)
