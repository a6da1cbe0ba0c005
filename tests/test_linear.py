import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkslt import ckks, linear, ring, rns
from ckkslt import costmodel as cm
from oracles import diagonalize_one_at_a_time
from ckkslt.ring import RotationIndex, automorphism_eval
from ckkslt.rns import RnsPoly

N1 = 16  # transform dimension for module-level tests


@pytest.fixture(scope="module")
def env(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(77)
    plans = {
        "diagonal": linear.LtPlan(linear.LtMethod.DIAGONAL, N1),
        "bsgs": linear.LtPlan(linear.LtMethod.BSGS, N1, (4, 4)),
        "dh-bsgs": linear.LtPlan(linear.LtMethod.DH_BSGS, N1, (4, 4)),
        "th-bsgs": linear.LtPlan(linear.LtMethod.TH_BSGS, N1, (4, 2, 2)),
    }
    keys = {name: linear.generate_lt_keys(sk, plan, toy_params, rng)
            for name, plan in plans.items()}
    return plans, keys, rng


def encrypt_vec(v, params, pk, rng):
    tiled = np.tile(v, params.slots // len(v))
    return ckks.encrypt(ckks.encode(tiled, params), pk, params, rng)


def run(method, F, v, env_data, toy_params, toy_keys):
    plans, keys, _ = env_data
    sk, pk = toy_keys
    rng = np.random.default_rng(hash(method) % 2**32)
    ct = encrypt_vec(v, toy_params, pk, rng)
    dm = linear.diagonalize(F, plans[method], toy_params)
    out, trace = linear.evaluate_lt(ct, dm, keys[method], toy_params)
    dec = ckks.decode(ckks.decrypt(out, sk), toy_params)
    return dec, trace


# ---------------------------------------------------------------------------
# diagonal packing


def test_diagonalize_identity(toy_params):
    plan = linear.LtPlan(linear.LtMethod.DIAGONAL, 8)
    dm = linear.diagonalize(np.eye(8), plan, toy_params)
    d0 = ckks.decode(ckks.Plaintext(
        RnsPoly([l for l in dm.diagonal(0).poly.limbs]),
        dm.diagonal(0).scale), toy_params)
    assert np.max(np.abs(d0 - 1)) < 2**-20
    for i in range(1, 8):
        di = ckks.decode(dm.diagonal(i), toy_params)
        assert np.max(np.abs(di)) < 2**-20


def test_diagonalize_cyclic_shift(toy_params):
    # permutation matrix sending v to v shifted by one: only diagonal 1 set
    n = 8
    perm = np.zeros((n, n))
    for t in range(n):
        perm[t, (t + 1) % n] = 1.0
    plan = linear.LtPlan(linear.LtMethod.DIAGONAL, n)
    dm = linear.diagonalize(perm, plan, toy_params)
    d1 = ckks.decode(dm.diagonal(1), toy_params)
    assert np.max(np.abs(d1 - 1)) < 2**-20
    for i in (0, 2, 3, 4, 5, 6, 7):
        assert np.max(np.abs(ckks.decode(dm.diagonal(i), toy_params))) < 2**-20


def test_diagonal_packing_reconstructs_matrix():
    # inverse packing oracle on the raw diagonal vectors
    rng = np.random.default_rng(0)
    n = 8
    F = rng.uniform(-1, 1, (n, n))
    diags = [[F[t % n, (t + i) % n] for t in range(n)] for i in range(n)]
    rebuilt = np.zeros((n, n))
    for i in range(n):
        for t in range(n):
            rebuilt[t, (t + i) % n] = diags[i][t]
    assert np.array_equal(rebuilt, F)


@pytest.mark.parametrize("method, factors", [("bsgs", (8, 8)), ("th-bsgs", (4, 4, 4))])
def test_diagonalize_runs_only_subring_transforms(monkeypatch, toy_params, method, factors):
    # at N=2^10, n=64 each diagonal is tiled 8 times, a polynomial in X^8,
    # so its forward NTT runs at length 1024 / 8; the transforms may be
    # stacked, so each call records its polynomial count and its length
    calls = []
    butterflies = ring._butterflies

    def recorded(values, context):
        calls.append((int(np.prod(values.shape[:-2])), values.shape[-1]))
        return butterflies(values, context)

    monkeypatch.setattr(ring, "_butterflies", recorded)
    f = np.random.default_rng(5).uniform(-1, 1, (64, 64))
    linear.diagonalize(f, linear.LtPlan(linear.LtMethod(method), 64, factors), toy_params)
    assert {length for _, length in calls} == {128}
    assert sum(count for count, _ in calls) == 64


@pytest.mark.parametrize("method, factors", [("bsgs", (8, 8)), ("th-bsgs", (4, 4, 4)),
                                             ("diagonal", ()), ("dh-bsgs", (8, 8))])
def test_diagonalize_peak_memory_stays_near_its_diagonals(toy_params, method, factors):
    # packing holds one giant block's (B, N) coefficients at a time, keeps only
    # their (B, L, 128) subring residues, and keeps the transform's (64, L, 128)
    # result unspread: 0.59x (bsgs 0.63x) the n*L*N words of the dense
    # diagonals. Spreading every diagonal to N slots, as a dense store does,
    # reads 1.13x and fails the fence
    plan = linear.LtPlan(linear.LtMethod(method), 64, factors)
    f = np.random.default_rng(7).uniform(-1, 1, (64, 64))
    linear.diagonalize(f, plan, toy_params)  # builds the twiddle tables first
    tracemalloc.start()
    try:
        dm = linear.diagonalize(f, plan, toy_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * plan.n * len(dm.context.q) * toy_params.ring_dim * 8


@pytest.mark.parametrize("method, factors, limbs", [
    ("diagonal", (), 10), ("bsgs", (8, 8), 5), ("dh-bsgs", (8, 8), 10), ("th-bsgs", (4, 4, 4), 10)])
def test_packed_diagonals_are_stored_in_the_subring(toy_params, method, factors, limbs):
    # at N=2^10 and n=64 each diagonal lies in Z[X^8]: a plan stores its n
    # diagonals' L*128 values, 655,360 bytes over PQ, where the (L, N) NTT
    # blocks took 5,242,880; bsgs packs over Q's 5 limbs
    plan = linear.LtPlan(linear.LtMethod(method), 64, factors)
    f = np.random.default_rng(9).uniform(-1, 1, (64, 64))
    dm = linear.diagonalize(f, plan, toy_params)
    assert dm.gap == 8 and dm.stack.shape == (64, limbs, 128)
    assert dm.stack.nbytes == 64 * limbs * (toy_params.ring_dim // 8) * 8
    assert not dm.stack.flags.writeable
    pt = dm.diagonal(5)
    assert pt.poly.coeffs.shape == (limbs, toy_params.ring_dim)
    assert np.array_equal(pt.poly.coeffs[:, ::8], dm.stack[5])


@pytest.mark.parametrize("method, factors", [("diagonal", ()), ("th-bsgs", (4, 4, 4))])
def test_diagonalize_makes_no_per_diagonal_call(monkeypatch, toy_params, method, factors):
    # one dense diagonal at a time, th-bsgs (4, 4, 4) made 64 encode, 64
    # rns_from_ints and 48 automorphism_coef calls; each name is counted in
    # every module that binds it
    calls = []
    for home, name in ((ckks, "encode"), (rns, "rns_from_ints"), (ring, "automorphism_coef")):
        original = getattr(home, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for module in (ckks, rns, ring, linear):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    f = np.random.default_rng(12).uniform(-1, 1, (64, 64))
    linear.diagonalize(f, linear.LtPlan(linear.LtMethod(method), 64, factors), toy_params)
    assert calls == []


@lru_cache(maxsize=None)
def _packing_params(log_n, bits):
    return ckks.CkksParams.make(ring_dim=2**log_n, levels=2, alpha=1, prime_bits=bits)


@st.composite
def _packing_plans(draw, log_slots):
    """Any plan_layers-valid plan with n from 1 to the slot count."""
    log_n = draw(st.integers(0, log_slots), label="log2 n")
    method = draw(st.sampled_from(list(linear.LtMethod)))
    arity = cm.METHOD_ARITY[method.value]
    cuts = sorted(draw(st.integers(0, log_n), label="cut") for _ in range(max(arity - 1, 0)))
    bounds = [0, *cuts, log_n]
    factors = tuple(2 ** (b - a) for a, b in zip(bounds, bounds[1:])) if arity else ()
    return linear.LtPlan(method, 2**log_n, factors)


@settings(max_examples=60, deadline=None)
@given(log_n=st.integers(5, 10), bits=st.sampled_from([30, 44, 54]), data=st.data(),
       magnitude=st.integers(-10, 30), zeros=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_diagonalize_matches_one_diagonal_at_a_time(log_n, bits, data, magnitude, zeros, seed):
    # 54-bit bases take the exact multiply route; bsgs packs over Q, the rest
    # over PQ. Zeroed diagonals widen a block's gap, up to N for an all-zero
    # block, and large entries overflow, which both routes must reject alike
    params = _packing_params(log_n, bits)
    plan = data.draw(_packing_plans(log_n - 1), label="plan")
    n = plan.n
    rng = np.random.default_rng(seed)
    diagonals = rng.uniform(-1, 1, (n, n)) * 2.0**magnitude * (rng.random((n, 1)) >= zeros)
    t = np.arange(n)
    f = np.empty((n, n))
    f[t, (t + t[:, None]) % n] = diagonals
    try:
        want = diagonalize_one_at_a_time(f, plan, params)
    except ckks.Overflow:
        with pytest.raises(ckks.Overflow):
            linear.diagonalize(f, plan, params)
        return
    got = linear.diagonalize(f, plan, params)
    assert len(got.stack) == len(want) == n
    for pt, poly in zip(map(got.diagonal, range(n)), want):
        assert pt.scale == params.scale
        assert pt.poly.context is poly.context and pt.poly.domain == ring.Domain.NTT
        assert np.array_equal(pt.poly.coeffs, poly.coeffs)


# entry (0, 63) lies on diagonal 63, in th-bsgs's last giant block
BAD_ENTRIES = {"nan": np.nan, "inf": -np.inf, "past 2^62": 1e12}


@pytest.mark.parametrize("method, factors", [("diagonal", ()), ("th-bsgs", (4, 4, 4))])
@pytest.mark.parametrize("case", [*BAD_ENTRIES, "shape", "n > slots"])
def test_diagonalize_rejects_before_any_transform(monkeypatch, toy_params, method, factors,
                                                  case):
    def transform(*args):
        raise AssertionError("a transform ran before the input was rejected")

    monkeypatch.setattr(ring, "_butterflies", transform)
    f = np.random.default_rng(13).uniform(-1, 1, (64, 64))
    plan = linear.LtPlan(linear.LtMethod(method), 64, factors)
    error = ckks.Overflow
    if case in BAD_ENTRIES:
        f[0, 63] = BAD_ENTRIES[case]
    elif case == "shape":
        error, f = linear.PlanMismatch, f[:-1]
    else:
        n = 2 * toy_params.slots
        error, f = linear.DimensionTooLarge, np.eye(n)
        plan = linear.LtPlan(linear.LtMethod(method), n, (4, 4, n // 16) if factors else ())
    with pytest.raises(error):
        linear.diagonalize(f, plan, toy_params)


NOT_REAL = {
    "imaginary": lambda x: x * 1j,
    "complex dtype": lambda x: x.astype(np.complex128),
    "strings": lambda x: x.astype(str),
    "None entries": lambda x: np.where(x > 0, x, None),
}


@pytest.mark.parametrize("case", NOT_REAL)
def test_complex_and_non_numeric_input_is_rejected_before_any_fft(monkeypatch, toy_params,
                                                                 case):
    # a float conversion kept only the real part, with numpy's ComplexWarning
    # as the only sign (encode(1j * ones) encoded zeros), or raised numpy's
    # bare ValueError for strings
    def transform(*args, **kwargs):
        raise AssertionError("an FFT or transform ran before the input was rejected")

    monkeypatch.setattr(np.fft, "fft", transform)
    monkeypatch.setattr(ring, "_butterflies", transform)
    rng = np.random.default_rng(14)
    with pytest.raises(ckks.NotReal):
        ckks.encode(NOT_REAL[case](rng.uniform(-1, 1, toy_params.slots)), toy_params)
    plan = linear.LtPlan(linear.LtMethod.TH_BSGS, 64, (4, 4, 4))
    with pytest.raises(ckks.NotReal):
        linear.diagonalize(NOT_REAL[case](rng.uniform(-1, 1, (64, 64))), plan, toy_params)


CONTEXT_TABLE_BYTES = """
import gc
import numpy as np
from ckkslt import ckks, linear, ring

params = ckks.CkksParams.make(ring_dim=2**10, levels=5, alpha=5, prime_bits=44)
rng = np.random.default_rng(3)
sk, pk = ckks.keygen(params, rng)
f = rng.uniform(-1, 1, (64, 64))
ct = ckks.encrypt(ckks.encode(np.tile(rng.uniform(-1, 1, 64), 8), params), pk, params, rng)
for method, factors in (("diagonal", ()), ("bsgs", (8, 8)), ("dh-bsgs", (8, 8)),
                        ("th-bsgs", (4, 4, 4))):
    plan = linear.LtPlan(linear.LtMethod(method), 64, factors)
    keys = linear.generate_lt_keys(sk, plan, params, rng)
    out, _ = linear.evaluate_lt(ct, linear.diagonalize(f, plan, params), keys, params)
    ckks.decode(ckks.decrypt(out, sk), params)

def arrays(x):
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list, dict)):
        for y in x.values() if isinstance(x, dict) else x:
            yield from arrays(y)

# the per-length tables sit in the method caches, which gc sees as dicts
contexts = [c for c in gc.get_objects() if isinstance(c, ring.BasisContext)]
caches = [d for method in (ring.BasisContext.block, ring.BasisContext.stages)
          for d in gc.get_referents(method) if isinstance(d, dict)]
assert any(caches)
held = [vars(c) for c in contexts] + [list(d.values()) for d in caches]
owned = {id(a): a for a in arrays(held) if a.base is None}
print(sum(a.nbytes for a in owned.values()))
"""


def test_context_tables_stay_small_after_the_acceptance_plans():
    # a fresh process, so the sum holds only what the four plans build: per
    # length the stage twiddles, their quotients and one modulus block, which
    # every stage views; a modulus copy per stage would nearly double it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CONTEXT_TABLE_BYTES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 4 * 2**20


@pytest.mark.parametrize("method, factors", [("bsgs", (4, 4)), ("dh-bsgs", (4, 4))])
def test_diagonalize_makes_no_interned_lookup(monkeypatch, toy_params, method, factors):
    # the packing basis is the one the parameters already hold, so no
    # moduli tuple is hashed per diagonal
    lookups = []
    intern = ring._intern

    def recorded(moduli):
        lookups.append(moduli)
        return intern(moduli)

    monkeypatch.setattr(ring, "_intern", recorded)
    f = np.random.default_rng(6).uniform(-1, 1, (N1, N1))
    linear.diagonalize(f, linear.LtPlan(linear.LtMethod(method), N1, factors), toy_params)
    assert lookups == []


@pytest.mark.parametrize("method, factors", [("diagonal", ()), ("bsgs", (4, 4)),
                                             ("dh-bsgs", (4, 4)), ("th-bsgs", (4, 2, 2))])
def test_plan_keys_take_beta_forward_transforms_each(monkeypatch, method, factors):
    # the rotated secret is a permutation of the cached NTT form of s, so
    # a key transforms only its beta noise polynomials
    params = ckks.CkksParams.make(ring_dim=2**7, levels=3, alpha=2, prime_bits=44)
    assert params.basis.beta == 2
    rng = np.random.default_rng(8)
    sk, _ = ckks.keygen(params, rng)
    sk.ntt_form(params.basis.pq_context)
    calls = []
    transform = ckks.ntt

    def counted(p):
        calls.append(p)
        return transform(p)

    monkeypatch.setattr(ckks, "ntt", counted)
    plan = linear.LtPlan(linear.LtMethod(method), N1, factors)
    keys = linear.generate_lt_keys(sk, plan, params, rng)
    assert len(calls) == params.basis.beta * len(keys)


def test_diagonalize_dimension_guard(toy_params):
    plan = linear.LtPlan(linear.LtMethod.DIAGONAL, 2 * toy_params.slots)
    with pytest.raises(linear.DimensionTooLarge):
        linear.diagonalize(np.eye(2 * toy_params.slots), plan, toy_params)


def test_prerotation_is_exact_permutation(toy_params):
    # applying the forward rotation to a stored pre-rotated diagonal
    # reproduces the unrotated encoding bit for bit
    rng = np.random.default_rng(1)
    n = N1
    F = rng.uniform(-1, 1, (n, n))
    plan = linear.LtPlan(linear.LtMethod.TH_BSGS, n, (4, 2, 2))
    dm = linear.diagonalize(F, plan, toy_params)
    plain_plan = linear.LtPlan(linear.LtMethod.DIAGONAL, n)
    plain = linear.diagonalize(F, plain_plan, toy_params)
    half = toy_params.ring_dim // 2
    for i in (8, 12, 15):  # indices with nonzero outer offset (n1*n2 = 8)
        offset = 8 * (i // 8)
        rot = RotationIndex(offset % half, toy_params.ring_dim)
        restored = RnsPoly([
            automorphism_eval(l, rot) for l in dm.diagonal(i).poly.limbs
        ])
        for a, b in zip(restored.limbs, plain.diagonal(i).poly.limbs):
            assert np.array_equal(a.coeffs, b.coeffs)


def test_plan_validation():
    with pytest.raises(linear.BadFactors):
        linear.LtPlan(linear.LtMethod.BSGS, 16, (4, 8))
    with pytest.raises(linear.BadFactors):
        linear.LtPlan(linear.LtMethod.TH_BSGS, 16, (4, 4))
    with pytest.raises(linear.BadFactors):
        linear.LtPlan(linear.LtMethod.DIAGONAL, 12)
    with pytest.raises(linear.BadFactors):
        linear.LtPlan(linear.LtMethod.DIAGONAL, 0)


# ---------------------------------------------------------------------------
# evaluator correctness


@pytest.mark.parametrize("method", ["diagonal", "bsgs", "dh-bsgs", "th-bsgs"])
def test_identity_matrix(method, env, toy_params, toy_keys):
    rng = np.random.default_rng(2)
    v = rng.uniform(-1, 1, N1)
    dec, _ = run(method, np.eye(N1), v, env, toy_params, toy_keys)
    tiled = np.tile(v, toy_params.slots // N1)
    assert np.max(np.abs(dec - tiled)) < 1e-5


@pytest.mark.parametrize("method", ["diagonal", "bsgs", "dh-bsgs", "th-bsgs"])
def test_shift_matrix(method, env, toy_params, toy_keys):
    rng = np.random.default_rng(3)
    v = rng.uniform(-1, 1, N1)
    perm = np.zeros((N1, N1))
    for t in range(N1):
        perm[t, (t + 1) % N1] = 1.0
    dec, _ = run(method, perm, v, env, toy_params, toy_keys)
    tiled = np.tile(perm @ v, toy_params.slots // N1)
    assert np.max(np.abs(dec - tiled)) < 1e-4


@pytest.mark.parametrize("method", ["diagonal", "bsgs", "dh-bsgs", "th-bsgs"])
def test_random_matrix(method, env, toy_params, toy_keys):
    rng = np.random.default_rng(4)
    F = rng.uniform(-1, 1, (N1, N1))
    v = rng.uniform(-1, 1, N1)
    dec, _ = run(method, F, v, env, toy_params, toy_keys)
    tiled = np.tile(F @ v, toy_params.slots // N1)
    assert np.max(np.abs(dec - tiled)) < 1e-3


# ---------------------------------------------------------------------------
# operation traces


def test_traces_match_cost_model(env, toy_params, toy_keys):
    plans, keys, _ = env
    shape = cm.HeParams(toy_params.ring_dim, toy_params.basis.level_count,
                        toy_params.basis.alpha, 44, n=N1)
    rng = np.random.default_rng(5)
    F = rng.uniform(-1, 1, (N1, N1))
    v = rng.uniform(-1, 1, N1)
    for name, plan in plans.items():
        dec, trace = run(name, F, v, env, toy_params, toy_keys)
        rep = cm.complexity(name, shape, plan.factors)
        assert trace.decompose == rep.decompose, name
        assert trace.moddown == rep.moddown, name
        offsets, _ = linear.required_offsets(plan)
        assert trace.key_offsets == set(offsets), name
        assert len(trace.key_offsets) == _expected_offsets(plan), name


def _expected_offsets(plan):
    if plan.method == linear.LtMethod.DIAGONAL:
        return plan.n - 1
    if len(plan.factors) == 2:
        return sum(plan.factors) - 2
    return sum(plan.factors) - 3


def test_cwise_trace_formulas(env, toy_params, toy_keys):
    # two-layer and diagonal traces match the closed forms exactly;
    # the three-layer trace charges the actual middle-layer products
    plans, keys, _ = env
    rng = np.random.default_rng(6)
    F = rng.uniform(-1, 1, (N1, N1))
    v = rng.uniform(-1, 1, N1)
    limbs = toy_params.basis.level_count + toy_params.basis.alpha
    lp = toy_params.basis.level_count
    beta = toy_params.basis.beta
    _, tr = run("diagonal", F, v, env, toy_params, toy_keys)
    assert tr.cwise_mult_limbs == 2 * beta * (N1 - 1) * limbs + 2 * N1 * limbs
    _, tr = run("bsgs", F, v, env, toy_params, toy_keys)
    assert tr.cwise_mult_limbs == 2 * beta * 6 * limbs + 2 * N1 * lp
    _, tr = run("dh-bsgs", F, v, env, toy_params, toy_keys)
    assert tr.cwise_mult_limbs == 2 * beta * 6 * limbs + 2 * N1 * limbs
    _, tr = run("th-bsgs", F, v, env, toy_params, toy_keys)
    n1, n2, n3 = 4, 2, 2
    key_products = (n1 - 1) + n1 * (n2 - 1) + (n3 - 1)
    assert tr.cwise_mult_limbs == 2 * beta * key_products * limbs + 2 * N1 * limbs


def test_th_with_unit_outer_factor_matches_dh(env, toy_params, toy_keys):
    # regression bridge: (n1, n2, 1) degenerates to the two-layer method
    sk, pk = toy_keys
    rng = np.random.default_rng(7)
    F = rng.uniform(-1, 1, (N1, N1))
    v = rng.uniform(-1, 1, N1)
    ct = encrypt_vec(v, toy_params, pk, rng)
    plan_th = linear.LtPlan(linear.LtMethod.TH_BSGS, N1, (4, 4, 1))
    plan_dh = linear.LtPlan(linear.LtMethod.DH_BSGS, N1, (4, 4))
    keys = linear.generate_lt_keys(sk, plan_dh, toy_params, rng)
    out_th, tr_th = linear.evaluate_lt(
        ct, linear.diagonalize(F, plan_th, toy_params), keys, toy_params)
    out_dh, tr_dh = linear.evaluate_lt(
        ct, linear.diagonalize(F, plan_dh, toy_params), keys, toy_params)
    d_th = ckks.decode(ckks.decrypt(out_th, sk), toy_params)
    d_dh = ckks.decode(ckks.decrypt(out_dh, sk), toy_params)
    assert np.max(np.abs(d_th - d_dh)) < 1e-4
    assert tr_th.key_offsets == tr_dh.key_offsets
    # (1, a, b) is the two-layer method (a, b) exactly: same packing, same
    # keys, same operations, so the ciphertexts agree bit for bit
    for a, b in ((4, 4), (2, 8), (8, 2)):
        plan_th = linear.LtPlan(linear.LtMethod.TH_BSGS, N1, (1, a, b))
        plan_dh = linear.LtPlan(linear.LtMethod.DH_BSGS, N1, (a, b))
        keys = linear.generate_lt_keys(sk, plan_dh, toy_params, rng)
        out_th, tr_th = linear.evaluate_lt(
            ct, linear.diagonalize(F, plan_th, toy_params), keys, toy_params)
        out_dh, tr_dh = linear.evaluate_lt(
            ct, linear.diagonalize(F, plan_dh, toy_params), keys, toy_params)
        for x, y in ((out_th.c0, out_dh.c0), (out_th.c1, out_dh.c1)):
            assert np.array_equal(x.coeffs, y.coeffs), (a, b)
        assert (out_th.level, out_th.scale) == (out_dh.level, out_dh.scale)
        assert tr_th == tr_dh, (a, b)


def test_equivalence_check_report(toy_params):
    rng = np.random.default_rng(8)
    F = rng.uniform(-1, 1, (N1, N1))
    v = rng.uniform(-1, 1, N1)
    plans = [
        linear.LtPlan(linear.LtMethod.DIAGONAL, N1),
        linear.LtPlan(linear.LtMethod.BSGS, N1, (4, 4)),
        linear.LtPlan(linear.LtMethod.DH_BSGS, N1, (4, 4)),
        linear.LtPlan(linear.LtMethod.TH_BSGS, N1, (4, 2, 2)),
    ]
    rep = linear.lt_equivalence_check(F, v, toy_params, plans, seed=9)
    assert all(e < 1e-3 for e in rep["errors"].values())
    assert all(d < 1e-4 for d in rep["pairwise"].values())


def test_equivalence_check_zero_matrix(toy_params):
    plans = [
        linear.LtPlan(linear.LtMethod.DIAGONAL, 8),
        linear.LtPlan(linear.LtMethod.DH_BSGS, 8, (4, 2)),
    ]
    rep = linear.lt_equivalence_check(np.zeros((8, 8)), np.ones(8),
                                      toy_params, plans, seed=10)
    assert all(e < 1e-5 for e in rep["errors"].values())


def test_missing_key_raises(env, toy_params, toy_keys):
    plans, _, _ = env
    sk, pk = toy_keys
    rng = np.random.default_rng(11)
    ct = encrypt_vec(np.ones(N1), toy_params, pk, rng)
    dm = linear.diagonalize(np.eye(N1), plans["diagonal"], toy_params)
    with pytest.raises(ckks.MissingKey):
        linear.evaluate_lt(ct, dm, linear.RotationKeys(), toy_params)


def test_missing_key_message_is_not_quoted():
    # a KeyError subclass would print as "'no key ...'" in the CLI's error line
    with pytest.raises(ckks.MissingKey) as info:
        linear.RotationKeys()[3]
    assert str(info.value) == "no key for rotation offset 3"


def test_plan_mismatch_raises(env, toy_params, toy_keys):
    plans, keys, _ = env
    sk, pk = toy_keys
    rng = np.random.default_rng(12)
    ct = encrypt_vec(np.ones(N1), toy_params, pk, rng)
    dm = linear.diagonalize(np.eye(N1), plans["bsgs"], toy_params)
    with pytest.raises(linear.PlanMismatch):
        linear.lt_hoisted(ct, dm, keys["th-bsgs"], toy_params)


# ---------------------------------------------------------------------------
# stacked transforms at the acceptance shape

# per direction: the most transform calls one evaluation may make, and the
# polynomials they transform, which batching must leave unchanged
TRANSFORM_CALLS = {"diagonal": (3, 5), "bsgs": (7, 44), "dh-bsgs": (5, 19), "th-bsgs": (7, 17)}


@pytest.mark.parametrize("method", TRANSFORM_CALLS)
def test_evaluation_stacks_the_transforms_of_each_batch(monkeypatch, acceptance_lt,
                                                        toy_params, method):
    # unstacked, every polynomial is its own call: 5/44/19/17 calls per direction
    ct, packed = acceptance_lt
    dm, keys = packed[method]
    counts = {}
    for name in ("_butterflies", "_inverse_ntt"):
        def counted(values, *args, kernel=getattr(ring, name), seen=counts.setdefault(name, [])):
            seen.append(int(np.prod(values.shape[:-2])))
            return kernel(values, *args)

        monkeypatch.setattr(ring, name, counted)
    linear.evaluate_lt(ct, dm, keys, toy_params)
    most, polys = TRANSFORM_CALLS[method]
    for name, seen in counts.items():
        assert len(seen) <= most and sum(seen) == polys, (name, seen)


def test_one_requests_evaluations_stay_within_their_memory_fence(acceptance_lt, toy_params):
    # a rotation batch ModDowns its u0 halves and its u1 halves as two
    # stacks: the four evaluations peak at 3.57 MB, in bsgs (2.2 MB
    # unstacked); one stack of both halves peaks at 4.6 MB and fails the fence
    ct, packed = acceptance_lt
    plans = [packed[method] for method in TRANSFORM_CALLS]
    for dm, keys in plans:
        linear.evaluate_lt(ct, dm, keys, toy_params)  # builds lazy tables
    tracemalloc.start()
    try:
        for dm, keys in plans:
            linear.evaluate_lt(ct, dm, keys, toy_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak
