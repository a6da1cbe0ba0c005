import pytest

from ckkslt import modarith as ma


def brute_force_largest(bit_width, ring_dim):
    """Trial-division scan of the full congruence class, largest first."""
    step = 2 * ring_dim
    for cand in range((1 << bit_width) - 1, (1 << (bit_width - 1)) - 1, -1):
        if cand % step != 1:
            continue
        if cand < 2 or any(cand % d == 0 for d in range(2, int(cand**0.5) + 1)):
            continue
        return cand
    return None


def test_find_primes_matches_brute_force_14_bit():
    expected = brute_force_largest(14, 2**4)
    got = ma.find_ntt_primes(14, 2**4, 1)
    assert [m.q for m in got] == [expected]


def test_find_primes_12289_for_large_ring():
    # the classic transform prime: largest 14-bit prime = 1 mod 2^12
    assert brute_force_largest(14, 2**11) == 12289
    got = ma.find_ntt_primes(14, 2**11, 1)
    assert [m.q for m in got] == [12289]


def test_find_primes_descending_and_distinct():
    primes = [m.q for m in ma.find_ntt_primes(30, 2**6, 8)]
    assert primes == sorted(primes, reverse=True)
    assert len(set(primes)) == 8
    assert all(p.bit_length() == 30 and p % (2 * 2**6) == 1 for p in primes)


def test_find_primes_exhausted_class():
    # only candidate 2^19+1 is divisible by 3
    with pytest.raises(ma.NotEnoughPrimes):
        ma.find_ntt_primes(20, 2**18, 1)


def test_find_primes_54_bit_set_shape():
    primes = ma.find_ntt_primes(54, 2**13, 5)
    assert len(primes) == 5
    for m in primes:
        assert m.q.bit_length() == 54
        assert m.q % (2 * 2**13) == 1
        # independent compositeness spot-check (Fermat at several bases)
        assert all(pow(a, m.q - 1, m.q) == 1 for a in (2, 3, 5, 7))
    values = [m.q for m in primes]
    assert values == sorted(values, reverse=True)


@pytest.fixture(scope="module")
def mod64():
    return ma.find_ntt_primes(30, 64, 1)[0]


def test_modulus_invariants(mod64):
    n = mod64.ring_dim
    assert pow(mod64.two_n_root, 2 * n, mod64.q) == 1
    assert pow(mod64.two_n_root, n, mod64.q) == mod64.q - 1
    assert mod64.n_inv * n % mod64.q == 1


def test_root_primitivity_exhaustive():
    m = ma.find_ntt_primes(25, 2**8, 1)[0]
    n = m.ring_dim
    acc = 1
    for k in range(1, 2 * n):
        acc = acc * m.two_n_root % m.q
        assert acc != 1, f"root order divides {k}"
    assert acc * m.two_n_root % m.q == 1


def test_modulus_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ma.Modulus(15, 8)  # composite
    with pytest.raises(ValueError):
        ma.Modulus(12289, 2**13)  # 12289 != 1 mod 2^14
    with pytest.raises(ValueError):
        ma.find_ntt_primes(61, 2**4, 1)


def test_modulus_equality_and_hash_follow_q_and_ring_dim():
    # lookups keyed by tuples of moduli hash and compare only (q, ring_dim)
    q = ma.find_ntt_primes(44, 2**10, 1)[0].q
    a, b = ma.Modulus(q, 2**10), ma.Modulus(q, 2**10)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != ma.Modulus(q, 2**9)


@pytest.mark.parametrize("make", [
    lambda: ma.find_ntt_primes(61, 2**4, 1),
    lambda: ma.find_ntt_primes(7, 2**4, 1),
    lambda: ma.find_ntt_primes(30, 24, 1),
    lambda: ma.Modulus(15, 8),
    lambda: ma.Modulus(12289, 2**13),
    lambda: ma.Modulus(12289, 12),
    lambda: ma.Modulus(2**61 + 1, 2),
], ids=["wide", "narrow", "ring-dim", "composite", "congruence", "modulus-ring-dim",
        "modulus-wide"])
def test_prime_search_rejections_are_typed(make):
    with pytest.raises(ma.InvalidModulus):
        make()
