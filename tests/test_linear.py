import numpy as np
import pytest

from ckkslt import ckks, linear
from ckkslt import costmodel as cm
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
        RnsPoly([l for l in dm.diagonals[0].poly.limbs]),
        dm.diagonals[0].scale), toy_params)
    assert np.max(np.abs(d0 - 1)) < 2**-20
    for i in range(1, 8):
        di = ckks.decode(dm.diagonals[i], toy_params)
        assert np.max(np.abs(di)) < 2**-20


def test_diagonalize_cyclic_shift(toy_params):
    # permutation matrix sending v to v shifted by one: only diagonal 1 set
    n = 8
    perm = np.zeros((n, n))
    for t in range(n):
        perm[t, (t + 1) % n] = 1.0
    plan = linear.LtPlan(linear.LtMethod.DIAGONAL, n)
    dm = linear.diagonalize(perm, plan, toy_params)
    d1 = ckks.decode(dm.diagonals[1], toy_params)
    assert np.max(np.abs(d1 - 1)) < 2**-20
    for i in (0, 2, 3, 4, 5, 6, 7):
        assert np.max(np.abs(ckks.decode(dm.diagonals[i], toy_params))) < 2**-20


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
            automorphism_eval(l, rot) for l in dm.diagonals[i].poly.limbs
        ])
        for a, b in zip(restored.limbs, plain.diagonals[i].poly.limbs):
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
    out_th, tr_th = linear.lt_th_bsgs(
        ct, linear.diagonalize(F, plan_th, toy_params), keys, toy_params)
    out_dh, tr_dh = linear.lt_dh_bsgs(
        ct, linear.diagonalize(F, plan_dh, toy_params), keys, toy_params)
    d_th = ckks.decode(ckks.decrypt(out_th, sk), toy_params)
    d_dh = ckks.decode(ckks.decrypt(out_dh, sk), toy_params)
    assert np.max(np.abs(d_th - d_dh)) < 1e-4
    assert tr_th.key_offsets == tr_dh.key_offsets


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
        linear.lt_diagonal(ct, dm, linear.RotationKeys(), toy_params)


def test_plan_mismatch_raises(env, toy_params, toy_keys):
    plans, keys, _ = env
    sk, pk = toy_keys
    rng = np.random.default_rng(12)
    ct = encrypt_vec(np.ones(N1), toy_params, pk, rng)
    dm = linear.diagonalize(np.eye(N1), plans["bsgs"], toy_params)
    with pytest.raises(linear.PlanMismatch):
        linear.lt_th_bsgs(ct, dm, keys["th-bsgs"], toy_params)
