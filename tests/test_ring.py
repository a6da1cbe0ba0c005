from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkslt import ring
from ckkslt.modarith import find_ntt_primes
from oracles import negacyclic_mul_schoolbook


@pytest.fixture(scope="module")
def mod64():
    return find_ntt_primes(30, 64, 1)[0]


def _zero(m):
    return ring.Poly(np.zeros(m.ring_dim, dtype=np.uint64), m, ring.Domain.COEF)


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
    z = _zero(mod64)
    assert not ring.ntt(z).coeffs.any()


def test_pointwise_product_matches_schoolbook(mod64):
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = ring.random_poly(mod64, rng)
        b = ring.random_poly(mod64, rng)
        fast = ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
        ref = negacyclic_mul_schoolbook(a.coeffs, b.coeffs, mod64.q)
        assert np.array_equal(fast.coeffs, ref)


def test_negacyclic_wrap_sign(mod64):
    n = mod64.ring_dim
    a = _zero(mod64)
    a.coeffs[n - 1] = 1  # x^(N-1)
    b = _zero(mod64)
    b.coeffs[1] = 1  # x
    prod = ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
    expect = np.zeros(n, dtype=np.uint64)
    expect[0] = mod64.q - 1  # x^N = -1
    assert np.array_equal(prod.coeffs, expect)


@pytest.mark.parametrize("wrap", [tuple, list, iter, lambda ps: (p for p in ps)],
                         ids=["tuple", "list", "iterator", "generator"])
def test_pointwise_mul_acc_reads_its_input_once(mod64, wrap):
    # one pass over a term's polynomials, so a one-shot iterator is read once;
    # none gives []
    rng = np.random.default_rng(13)
    f, a, b = (ring.ntt(ring.random_poly(mod64, rng)) for _ in range(3))
    got = ring.pointwise_mul_acc([(f, wrap([a, b]))])
    assert len(got) == 2
    for p, out in zip((a, b), got):
        assert np.array_equal(out.coeffs, ring.pointwise_mul(p, f).coeffs)
    assert ring.pointwise_mul_acc([(f, wrap([]))]) == []


def test_pointwise_identities(mod64):
    rng = np.random.default_rng(5)
    p = ring.random_poly(mod64, rng)
    z = _zero(mod64)
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
    with pytest.raises(ring.BasisMismatch):
        ring.pointwise_add(p, ring.random_poly(other, rng))


def test_one_interned_context_per_moduli_tuple():
    from ckkslt import ckks, serialize
    from ckkslt.modarith import Modulus
    from ckkslt.rns import RnsPoly

    n = 64
    moduli = find_ntt_primes(30, n, 3)
    rng = np.random.default_rng(12)
    x = RnsPoly([ring.random_poly(m, rng) for m in moduli])
    xn = ring.ntt(x)
    results = (xn, ring.intt(xn), ring.pointwise_mul(xn, xn),
               ring.automorphism_eval(xn, ring.RotationIndex(3, n)),
               x.like(x.coeffs, x.domain), x.copy())
    assert all(r.context is x.context for r in results)
    # equal but distinct Modulus objects, built here or read back from bytes
    fresh = tuple(Modulus(m.q, n) for m in moduli)
    assert fresh[0] is not moduli[0]
    assert RnsPoly(x.coeffs, fresh, x.domain).context is x.context
    loaded = serialize.load(serialize.save_ciphertext(ckks.Ciphertext(xn, xn, 1.0))).c0
    assert loaded.moduli[0] is not moduli[0] and loaded.context is xn.context
    # another tuple, the same moduli reordered included, is another basis
    reordered = RnsPoly(xn.coeffs[::-1].copy(), moduli[::-1], xn.domain)
    other = RnsPoly(xn.coeffs.copy(), moduli[:2] + find_ntt_primes(29, n, 1), xn.domain)
    for y in (reordered, other):
        with pytest.raises(ring.BasisMismatch):
            ring.pointwise_mul(xn, y)


def test_limb_coeffs_assignment_writes_into_the_block():
    from ckkslt import rns

    assert rns.RnsPoly is ring.Poly
    n = 64
    x = ring.Poly(np.zeros((3, n), np.uint64), find_ntt_primes(30, n, 3), ring.Domain.COEF)
    x.limbs[1].coeffs[...] = np.arange(n, dtype=np.uint64)
    assert np.array_equal(x.coeffs[1], np.arange(n))
    assert not x.coeffs[[0, 2]].any()
    with pytest.raises(AttributeError):  # the attribute itself is read-only
        x.coeffs = x.coeffs


def test_single_modulus_poly_rejects_a_non_uint64_row(mod64):
    with pytest.raises(ring.BasisMismatch):
        ring.Poly(np.zeros(mod64.ring_dim, np.int64), mod64, ring.Domain.COEF)


def test_automorphism_zero_rotation_identity(mod64):
    rng = np.random.default_rng(7)
    p = ring.random_poly(mod64, rng)
    rot0 = ring.RotationIndex(0, mod64.ring_dim)
    assert np.array_equal(ring.automorphism_coef(p, rot0).coeffs, p.coeffs)
    pn = ring.ntt(p)
    assert np.array_equal(ring.automorphism_eval(pn, rot0).coeffs, pn.coeffs)


def test_automorphism_x_to_x5():
    m = find_ntt_primes(20, 8, 1)[0]
    p = _zero(m)
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


def test_rotation_index_reduces_any_offset():
    n = 64
    for r in range(n // 2):
        rot = ring.RotationIndex(r, n)
        assert ring.RotationIndex(r + n // 2, n) == rot == ring.RotationIndex(r - n // 2, n)
        assert ring.RotationIndex(r + 5 * n, n) == rot


def _moduli(q) -> ring.Moduli:
    """``q`` as a context builds it: with its float copy below FAST_LIMIT."""
    q = np.asarray(q, np.uint64)
    return ring.Moduli(q, q.astype(np.float64) if q.max() < ring.FAST_LIMIT else None)


def test_vector_kernel_against_wide_oracle_large():
    # >= 1e6 randomized cases against exact big-int products
    q = find_ntt_primes(50, 2**4, 1)[0].q
    rng = np.random.default_rng(9)
    total = 0
    for _ in range(4):
        a = rng.integers(0, q, 1 << 18, dtype=np.uint64)
        b = rng.integers(0, q, 1 << 18, dtype=np.uint64)
        got = ring.mod_mul_vec(a, b, _moduli(q))
        ref = (a.astype(object) * b.astype(object)) % q
        assert np.array_equal(got.astype(object), ref)
        total += len(a)
    assert total >= 10**6


def test_vector_kernel_object_path_matches():
    q = find_ntt_primes(58, 2**4, 1)[0].q
    rng = np.random.default_rng(10)
    a = rng.integers(0, q, 4096, dtype=np.uint64)
    b = rng.integers(0, q, 4096, dtype=np.uint64)
    got = ring.mod_mul_vec(a, b, ring.Moduli(np.uint64(q), None))
    ref = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(got.astype(object), ref)


@lru_cache(maxsize=None)
def _row_primes(bits, n):
    return find_ntt_primes(bits, n, 3)


@settings(max_examples=30, deadline=None)
@given(widths=st.lists(st.integers(20, 60), min_size=1, max_size=3), log_n=st.integers(1, 4),
       stack=st.integers(0, 3), outputs=st.integers(1, 3), count=st.integers(1, 40),
       near_bound=st.integers(-2, 20), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_mod_mul_acc_matches_big_int_sums(widths, log_n, stack, outputs, count, near_bound,
                                          data, seed):
    # widths from 51 bits on send the whole block down the exact route, so a
    # mixed list covers both routes and a mixed-width block; a draw with
    # near_bound <= 2 is a 51-bit block at N = 2 summing limit + near_bound
    # terms, either side of the float route's int64 chunk bound (4,095 terms)
    if near_bound <= 2:
        widths, log_n, stack = [51], 1, 0
    n = 2**log_n
    context = ring.basis_context([_row_primes(bits, n)[j] for j, bits in enumerate(widths)])
    q = context.block(n)
    limit = ring._sum_limit(q)
    if near_bound <= 2:
        assert limit == 4095
        count = limit + near_bound
    rng = np.random.default_rng(seed)
    shape = (stack, len(widths), n) if stack else (len(widths), n)
    # a few distinct terms, repeated in turn; column 0 of the first adds the
    # most a product can to a sum: the residual (q-1)/2 on the float route,
    # the product q-1 on the exact one
    distinct = [(rng.integers(0, context.q, shape, dtype=np.uint64),
                 [rng.integers(0, context.q, shape, dtype=np.uint64) for _ in range(outputs)])
                for _ in range(min(count, 3))]
    distinct[0][0][..., 0] = context.q[:, 0] // 2 if context.fast else context.q[:, 0] - 1
    for a in distinct[0][1]:
        a[..., 0] = 1
    terms = [distinct[t % len(distinct)] for t in range(count)]
    big_q = context.q.astype(object)
    times = [len(range(t, count, len(distinct))) for t in range(len(distinct))]
    want = [sum(k * f.astype(object) * ops[i].astype(object)
                for k, (f, ops) in zip(times, distinct)) % big_q for i in range(outputs)]
    split = data.draw(st.integers(0, count), label="terms before the partial sums")
    partials = ring.mod_mul_acc(terms[:split], q, reduce=False) if split else None
    got = ring.mod_mul_acc(terms[split:], q, partials)
    assert len(got) == outputs
    for g, w in zip(got, want):
        assert g.dtype == np.uint64 and g.shape == shape
        assert np.array_equal(g.astype(object), w)


def test_pointwise_mul_acc_checks_every_term(mod64):
    # a term over another basis or domain, or with the wrong product count,
    # raises; a sum needs a term to take its basis from
    rng = np.random.default_rng(14)
    f, a, b = (ring.ntt(ring.random_poly(mod64, rng)) for _ in range(3))
    other = ring.ntt(ring.random_poly(find_ntt_primes(30, 64, 2)[1], rng))
    [got] = ring.pointwise_mul_acc([(f, [a]), (b, [f])])
    want = ring.pointwise_add(ring.pointwise_mul(a, f), ring.pointwise_mul(f, b))
    assert np.array_equal(got.coeffs, want.coeffs) and got.domain == ring.Domain.NTT
    for terms, error in (([(f, [a]), (other, [other])], ring.BasisMismatch),
                         ([(f, [other])], ring.BasisMismatch),
                         ([(f, [ring.intt(a)])], ring.DomainMismatch),
                         ([(f, [a]), (b, [a, b])], ring.BasisMismatch),
                         ([], ring.BasisMismatch)):
        with pytest.raises(error):
            ring.pointwise_mul_acc(terms)


def test_mixed_width_block_matches_single_limbs():
    # the 52-bit row, just above FAST_LIMIT, sends the whole block down the
    # exact path, while the 30/44-bit limbs alone take the float path
    from ckkslt.rns import RnsPoly

    n = 64
    moduli = [find_ntt_primes(bits, n, 1)[0] for bits in (30, 44, 52, 54, 60)]
    assert [m.q >= ring.FAST_LIMIT for m in moduli] == [False, False, True, True, True]
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
                                  negacyclic_mul_schoolbook(a.coeffs, b.coeffs, m.q))
            assert np.array_equal(auto_eval.coeffs[j],
                                  ring.automorphism_eval(ring.ntt(a), rot).coeffs)
            assert np.array_equal(auto_coef.coeffs[j], ring.automorphism_coef(a, rot).coeffs)


# ---------------------------------------------------------------------------
# mod_mul_vec's operand contract, at every width the float path takes


@lru_cache(maxsize=None)
def _column(bits, rows):
    return np.array([[m.q] for m in find_ntt_primes(bits, 16, rows)], dtype=np.uint64)


L, N, S, D = 3, 16, 3, 2
# (a, b, q) shapes of the callers: pointwise blocks, per-limb constants, the
# stage shapes of an earlier in-place transform (mm = 4 blocks, t = 2), and
# bconv's source rows against per-target constants, with q a column of
# moduli; then the operands a context builds, q its (L, N)
# block viewed at a's last two axes, with or without a precomputed quotient
# of b: a transform stage's upper halves, one block or a stack of two,
# against the stage's twiddles; a product sharing its operand's quotient;
# and a per-limb constant against the block
CALLER_SHAPES = [
    ((L, N), (L, N), (L, 1)),
    ((L, N), (L, 1), (L, 1)),
    ((L, 4, 2), (L, 4, 1), (L, 1, 1)),
    ((L, 2, 4), (L, 1, 4), (L, 1, 1)),
    ((1, S, N), (D, S, 1), (D, 1, 1)),
    ((L, N // 2), (L, N // 2), "block", "quotient"),
    ((2, L, N // 2), (L, N // 2), "block", "quotient"),
    ((L, N), (L, N), "block", "quotient"),
    ((L, N), (L, 1), "block", None),
]
FILLS = st.sampled_from(["random", "zero", "one", "max"])


def _operand(rng, shape, cap, fill):
    """uint64 values of ``shape`` below ``cap`` (broadcast against it)."""
    cap = np.broadcast_to(cap, shape).astype(np.uint64)
    if fill == "zero":
        return np.zeros(shape, dtype=np.uint64)
    if fill == "one":
        return np.ones(shape, dtype=np.uint64)
    if fill == "max":
        return cap - np.uint64(1)
    return rng.integers(0, cap, dtype=np.uint64)


@pytest.mark.parametrize("shapes", CALLER_SHAPES,
                         ids=lambda s: "x".join(map(str, s[:2])) + "-context" * (len(s) > 3))
@settings(max_examples=40, deadline=None)
@given(bits=st.integers(20, 60), b_below_q=st.booleans(),
       fill_a=FILLS, fill_b=FILLS, seed=st.integers(0, 2**32 - 1))
def test_mod_mul_vec_matches_big_int_oracle(shapes, bits, b_below_q, fill_a, fill_b, seed):
    # one operand below q, the other below q or anywhere below FAST_LIMIT;
    # from 52 bits on every q is at least FAST_LIMIT and the exact route runs
    a_shape, b_shape, q_shape, *quot = shapes
    if q_shape == "block":
        q = _context(4, bits, L).block(N).view(*a_shape[-2:])
        assert (q.qf is None) == (bits >= 52)  # a wide basis holds no float table
        q_cap = _column(bits, L)
    else:
        q_cap = _column(bits, q_shape[0]).reshape(q_shape)
        q = _moduli(q_cap)
        if np.broadcast_shapes(b_shape, q_shape) != b_shape:
            q_cap = q_cap.min()
    assert (q.q.max() < ring.FAST_LIMIT) == (bits < 52)
    rng = np.random.default_rng(seed)
    b = _operand(rng, b_shape, q_cap, fill_b)
    a_cap = q.q.min() if b_below_q else ring.FAST_LIMIT
    a = _operand(rng, a_shape, a_cap, fill_a)
    want = (a.astype(object) * b.astype(object)) % q.q.astype(object)
    pairs = [(a, b, None), (b, a, None)]
    if quot and quot[0]:
        table, b_quot = ring._operand(b, q)
        assert (b_quot is None) == (bits >= 52)
        pairs = [(a, table, b_quot)]
    for x, y, y_quot in pairs:
        got = ring.mod_mul_vec(x, y, q, y_quot)
        assert got.dtype == np.uint64
        assert np.array_equal(got.astype(object), want)


# ---------------------------------------------------------------------------
# the transform against direct evaluation, on both sides of the layout switch


def _bitrev(s, bits):
    return int(format(s, f"0{bits}b")[::-1], 2) if bits else 0


# the mixed block sends every row down the exact route (54 bits); the narrow
# ones take the float route, alone and as an ntt_many stack of three
DIRECT_CASES = [pytest.param(log_n, bits, count, id=f"{name}{log_n}")
                for name, bits, count in (("", (30, 44, 54), 1), ("narrow-", (30, 44), 1),
                                          ("stacked-", (30, 44), 3))
                for log_n in range(1, 9)]


@pytest.mark.parametrize("log_n, bits, count", DIRECT_CASES)
def test_ntt_matches_direct_evaluation(log_n, bits, count):
    # from N = 2, a single stage, up to 8 constant-geometry stages
    from ckkslt.rns import RnsPoly

    n = 2**log_n
    moduli = [find_ntt_primes(b, n, 1)[0] for b in bits]
    rng = np.random.default_rng(log_n)
    polys = [RnsPoly([ring.random_poly(m, rng) for m in moduli]) for _ in range(count)]
    for p, got in zip(polys, ring.ntt_many(polys)):
        for row, m, coeffs in zip(got.coeffs, moduli, p.coeffs.tolist()):
            for s in range(n):
                # storage slot s holds the value at psi^(2*bitrev(s)+1)
                root = pow(m.two_n_root, 2 * _bitrev(s, log_n) + 1, m.q)
                value = 0
                for c in reversed(coeffs):
                    value = (value * root + c) % m.q
                assert int(row[s]) == value
        assert np.array_equal(ring.intt(got).coeffs, p.coeffs)


# ---------------------------------------------------------------------------
# the subring transform: a block in Z_q[X^g] runs the (N/g)-point kernel


@lru_cache(maxsize=None)
def _context(log_n, bits, rows):
    return ring.basis_context(find_ntt_primes(bits, 2**log_n, rows))


@settings(max_examples=200, deadline=None)
@given(log_n=st.integers(1, 12), rows=st.integers(1, 5), bits=st.integers(20, 60),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_subring_ntt_matches_full_length_kernel(log_n, rows, bits, data, seed):
    # widths from 51 bits on take the exact multiply route
    from ckkslt.rns import RnsPoly

    n, context = 2**log_n, _context(log_n, bits, rows)
    gap = 2 ** data.draw(st.integers(0, log_n), label="log2 gap")
    rng = np.random.default_rng(seed)
    lattice = rng.integers(0, context.q, (rows, n // gap), dtype=np.uint64)
    for row, q in zip(lattice, context.q[:, 0]):
        row[rng.integers(0, n // gap, 3)] = [0, 1, q - 1]
    block = np.zeros((rows, n), dtype=np.uint64)
    block[:, ::gap] = lattice
    got = ring.ntt(RnsPoly(block, context, ring.Domain.COEF))
    want = ring._butterflies(block, context)
    assert np.array_equal(got.coeffs, want)
    assert np.array_equal(ring.intt(got).coeffs, block)


def _lattices(rng, context, counts_and_gaps, n):
    """Per (count, gap): a (count, L, n/gap) stack of residues, with 0, 1 and q-1
    in every row, and the same polynomials as dense (count, L, n) blocks."""
    out = []
    for count, gap in counts_and_gaps:
        lattice = rng.integers(0, context.q, (count, len(context.q), n // gap), dtype=np.uint64)
        corner = np.concatenate([0 * context.q, 0 * context.q + 1, context.q - 1], axis=1)
        lattice[..., :3] = corner[:, : n // gap]
        dense = np.zeros((count, len(context.q), n), dtype=np.uint64)
        dense[..., ::gap] = lattice
        out.append((gap, lattice, dense))
    return out


@settings(max_examples=100, deadline=None)
@given(log_n=st.integers(2, 11), rows=st.integers(1, 4), bits=st.sampled_from([30, 44, 55]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_subring_automorphism_matches_full_length(log_n, rows, bits, data, seed):
    # x -> x^{g_r} keeps Z_q[X^g], and on B it is the (N/g)-dimension
    # automorphism with g_r mod 2N/g, for every rotation offset
    from ckkslt.rns import RnsPoly

    n, context = 2**log_n, _context(log_n, bits, rows)
    gap = 2 ** data.draw(st.integers(0, log_n - 2), label="log2 gap")
    rot = ring.RotationIndex(data.draw(st.integers(-n, n), label="offset"), n)
    count = data.draw(st.integers(1, 3), label="count")
    [(_, lattice, dense)] = _lattices(np.random.default_rng(seed), context, [(count, gap)], n)
    got = ring.automorphism_block(lattice, context.q, rot.g_r)
    for sub, block in zip(got, dense):
        want = ring.automorphism_coef(RnsPoly(block, context, ring.Domain.COEF), rot).coeffs
        assert ring.subring_gap(want) >= gap
        assert np.array_equal(want[:, ::gap], sub)


@settings(max_examples=50, deadline=None)
@given(log_n=st.integers(1, 10), rows=st.integers(1, 4), bits=st.sampled_from([30, 44, 55]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_subring_stacks_transform_as_their_polynomials(log_n, rows, bits, data, seed):
    # stacks on different gaps share one transform at the smallest
    from ckkslt.rns import RnsPoly

    n, context = 2**log_n, _context(log_n, bits, rows)
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, log_n)),
                                min_size=1, max_size=3), label="(count, log2 gap)")
    stacks = _lattices(np.random.default_rng(seed), context,
                       [(count, 2**log_gap) for count, log_gap in shapes], n)
    gap, got = ring.ntt_subring(((g, lattice) for g, lattice, _ in stacks), context)
    dense = [block for _, _, blocks in stacks for block in blocks]
    assert gap == min(g for g, _, _ in stacks)
    assert got.shape == (len(dense), len(context.q), n // gap)
    for values, block in zip(got, dense):
        want = ring.ntt(RnsPoly(block, context, ring.Domain.COEF)).coeffs
        assert np.array_equal(ring.spread(values, gap), want)
    gap, got = ring.ntt_subring(iter(()), context)
    assert gap == n and got.shape == (0, len(context.q), 1)


def _tables(context, n):
    """Every array a context's kernels read at transform length n."""
    stages = [table for inverse in (False, True) for stage in context.stages(n, inverse)
              for table in stage]
    last = [table for hat in (False, True) for table in context.last_stage(hat)]
    return [context.q, *context.block(n), *last, context.hat_inverse, context.top_inverse,
            *stages]


def test_context_tables_are_read_only():
    for bits in (30, 55):
        for table in _tables(_context(4, bits, 3), 16):
            if table is not None:
                with pytest.raises(ValueError, match="read-only"):
                    table[(0,) * table.ndim] = 0


def test_wide_basis_holds_no_float_table(monkeypatch):
    # 55-bit moduli: every kernel takes the exact route, so the float one may fail
    from ckkslt.rns import RnsPoly

    context = _context(4, 55, 3)
    tables = [t for t in _tables(context, 16) if t is not None]
    # the column, the block, the two last-stage scales, the hat and top
    # inverses, and per stage and direction the twiddles: no float copy of the
    # block and no quotient
    assert len(tables) == 6 + 2 * 4
    assert all(t.dtype == np.uint64 for t in tables)
    monkeypatch.setattr(ring, "_mul_fast", lambda *args: pytest.fail("float route taken"))
    rng = np.random.default_rng(12)
    x, y = (RnsPoly([ring.random_poly(m, rng) for m in context.moduli]) for _ in range(2))
    prod = ring.intt(ring.pointwise_mul(ring.ntt(x), ring.ntt(y)))
    for j, m in enumerate(context.moduli):
        want = negacyclic_mul_schoolbook(x.coeffs[j], y.coeffs[j], m.q)
        assert np.array_equal(prod.coeffs[j], want)


@settings(max_examples=100, deadline=None)
@given(log_n=st.integers(1, 12), rows=st.integers(1, 5), bits=st.integers(20, 60),
       count=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_stacked_ntt_matches_one_at_a_time(log_n, rows, bits, count, data, seed):
    # each polynomial has its own gap, so wider slices are zero-filled onto
    # the stack's smallest; widths from 51 bits on take the exact route
    from ckkslt.rns import RnsPoly

    n, context = 2**log_n, _context(log_n, bits, rows)
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        gap = 2 ** data.draw(st.integers(0, log_n), label="log2 gap")
        lattice = rng.integers(0, context.q, (rows, n // gap), dtype=np.uint64)
        for row, q in zip(lattice, context.q[:, 0]):
            row[rng.integers(0, n // gap, 3)] = [0, 1, q - 1]
        block = np.zeros((rows, n), dtype=np.uint64)
        block[:, ::gap] = lattice
        polys.append(RnsPoly(block, context, ring.Domain.COEF))
    got = ring.ntt_many(iter(polys))
    assert len(got) == count
    for out, p in zip(got, polys):
        assert out.domain == ring.Domain.NTT and out.context is context
        assert np.array_equal(out.coeffs, ring.ntt(p).coeffs)
        assert np.array_equal(ring.intt(out).coeffs, p.coeffs)


def test_stacked_ntt_rejects_before_any_transform(monkeypatch):
    n = 2**6
    a, b = (find_ntt_primes(bits, n, 1)[0] for bits in (30, 29))
    rng = np.random.default_rng(9)
    p, other = ring.random_poly(a, rng), ring.random_poly(b, rng)
    transformed = ring.ntt(p)
    calls = []
    monkeypatch.setattr(ring, "_butterflies", lambda *args: calls.append(1))
    with pytest.raises(ring.BasisMismatch):
        ring.ntt_many([p, other])
    with pytest.raises(ring.DomainMismatch):
        ring.ntt_many(iter([p, transformed]))
    assert ring.ntt_many([]) == [] and ring.ntt_many(iter(())) == []
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(log_n=st.integers(1, 12), rows=st.integers(1, 5), bits=st.integers(20, 60),
       count=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_stacked_intt_matches_one_at_a_time(log_n, rows, bits, count, data, seed):
    # widths from 51 bits on take the exact route; a single-modulus
    # polynomial may be an (N,) row or a (1, N) block
    n, context = 2**log_n, _context(log_n, bits, rows)
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        block = rng.integers(0, context.q, (rows, n), dtype=np.uint64)
        for row, q in zip(block, context.q[:, 0]):
            row[rng.integers(0, n, 3)] = [0, 1, q - 1]
        if rows == 1 and data.draw(st.booleans(), label="(N,) row"):
            block = block[0]
        polys.append(ring.Poly(block, context, ring.Domain.NTT))
    inputs = [p.coeffs.copy() for p in polys]
    got = ring.intt_many(iter(polys))
    assert len(got) == count
    for out, p, given_coeffs in zip(got, polys, inputs):
        assert np.array_equal(p.coeffs, given_coeffs)  # the stack is a copy
        assert out.domain == ring.Domain.COEF and out.context is context
        assert out.coeffs.shape == p.coeffs.shape
        assert np.array_equal(out.coeffs, ring.intt(p).coeffs)
        assert np.array_equal(ring.ntt(out).coeffs, p.coeffs)


def test_stacked_intt_rejects_before_any_transform(monkeypatch):
    n = 2**6
    a, b = (find_ntt_primes(bits, n, 1)[0] for bits in (30, 29))
    rng = np.random.default_rng(11)
    p, other = ring.ntt(ring.random_poly(a, rng)), ring.ntt(ring.random_poly(b, rng))
    coefficients = ring.random_poly(a, rng)
    calls = []
    monkeypatch.setattr(ring, "_inverse_ntt", lambda *args: calls.append(1))
    with pytest.raises(ring.BasisMismatch):
        ring.intt_many([p, other])
    with pytest.raises(ring.DomainMismatch):
        ring.intt_many(iter([p, coefficients]))
    assert ring.intt_many([]) == [] and ring.intt_many(iter(())) == []
    assert calls == []


def test_stacked_ntt_keeps_each_shape():
    # an (N,) row and a (1, N) block share a single-modulus context
    m = find_ntt_primes(30, 2**6, 1)[0]
    rng = np.random.default_rng(10)
    row = ring.random_poly(m, rng)
    block = ring.Poly(ring.random_poly(m, rng).coeffs[None], m, ring.Domain.COEF)
    got = ring.ntt_many([row, block])
    assert [out.coeffs.shape for out in got] == [(64,), (1, 64)]
    assert np.array_equal(got[0].coeffs, ring.ntt(row).coeffs)
    assert np.array_equal(got[1].coeffs, ring.ntt(block).coeffs)
