import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkslt import costmodel as cm
from ckkslt import ring
from ckkslt.modarith import InvalidModulus
from oracles import search_parallelism_stepping

# hand-evaluated operation-count table, one row per evaluation set:
# (set, method, factors) -> (decompose, moddown, cwise_limbs, key_limbs)
HAND_COMPLEXITY = {
    ("set-a", "diagonal", ()): (1, 2, 163820, 40950),
    ("set-a", "bsgs", (64, 64)): (126, 252, 43480, 1260),
    ("set-a", "dh-bsgs", (64, 64)): (64, 65, 84440, 1260),
    ("set-a", "th-bsgs", (8, 64, 8)): (15, 16, 83460, 770),
    ("set-b", "th-bsgs", (16, 128, 8)): (23, 24, 800736, 7152),
    ("set-c", "th-bsgs", (16, 128, 16)): (31, 32, 2925032, 20724),
    ("set-c", "dh-bsgs", (512, 64)): (64, 65, 3035120, 75768),
}


@pytest.mark.parametrize("key", sorted(HAND_COMPLEXITY, key=str))
def test_complexity_hand_plugins(key):
    set_name, method, factors = key
    params = cm.NAMED_SETS[set_name]
    rep = cm.complexity(method, params, factors)
    dec, mdown, cwise, keys = HAND_COMPLEXITY[key]
    assert rep.decompose == dec
    assert rep.moddown == mdown
    assert rep.cwise_mult_limbs == cwise
    assert rep.switching_key_limbs == keys


def test_th_convention_flag():
    # the executable line counts, one Decompose and one ModDown below the
    # published table's (32, 33)
    params = cm.NAMED_SETS["set-c"]
    alg = cm.complexity("th-bsgs", params, (16, 128, 16))
    assert (alg.decompose, alg.moddown) == (31, 32)


def test_bad_factors():
    params = cm.NAMED_SETS["set-a"]
    with pytest.raises(cm.BadFactors):
        cm.complexity("th-bsgs", params, (8, 8, 8))
    with pytest.raises(cm.BadFactors):
        cm.complexity("bsgs", params, (3, 4))


def test_plan_layers():
    assert cm.plan_layers("diagonal", 64) == (1, 64, 1)
    assert cm.plan_layers("bsgs", 64, [2, 32]) == (1, 2, 32)
    assert cm.plan_layers("dh-bsgs", 64, (8, 8)) == (1, 8, 8)
    assert cm.plan_layers("th-bsgs", 64, (4, 4, 4)) == (4, 4, 4)
    assert cm.plan_layers("th-bsgs", np.int64(64), tuple(np.array([4, 4, 4]))) == (4, 4, 4)
    bad = [("lt", 64, ()), ("diagonal", 48, ()), ("diagonal", 0, ()),
           ("diagonal", 64, (64,)), ("th-bsgs", 64, (8, 8)),
           ("dh-bsgs", 64, (-8, -8)), ("bsgs", 64, (4, 8)),
           ("diagonal", 64.0, ()), ("th-bsgs", 64, (4.0, 4.0, 4.0)),
           ("th-bsgs", 64, (4, 4.5, 4))]
    for method, n, factors in bad:
        with pytest.raises(cm.BadFactors):
            cm.plan_layers(method, n, factors)


def test_diagonal_and_two_layer_counts_are_th_at_unit_first_layer():
    # (1, n, 1) and (1, a, b) are the diagonal and two-layer hoisted routes
    def counts(rep):
        return (rep.decompose, rep.moddown, rep.cwise_mult_limbs,
                rep.switching_key_limbs, rep.modmul_total)

    for params in (*cm.NAMED_SETS.values(), cm.HeParams(2**10, 5, 5, 44, n=64)):
        n = params.n
        assert counts(cm.complexity("diagonal", params)) == \
            counts(cm.complexity("th-bsgs", params, (1, n, 1)))
        for a, b in cm.pareto_factorizations("dh-bsgs", params):
            assert counts(cm.complexity("dh-bsgs", params, (a, b))) == \
                counts(cm.complexity("th-bsgs", params, (1, a, b)))


def test_key_bytes_convention():
    # pair of polynomials, N*w/8 bytes per limb; reproduces the published
    # 62.43 / 17.08 GiB figures for the two best-tradeoff settings
    params = cm.HeParams(2**16, 32, 12, 54, n=2**15)
    dh = cm.complexity("dh-bsgs", params, (512, 64))
    th = cm.complexity("th-bsgs", params, (16, 128, 16))
    assert params.limb_bytes == 2**16 * 54 // 8
    assert round(dh.key_bytes(params) / 2**30, 2) == 62.43
    assert round(th.key_bytes(params) / 2**30, 2) == 17.08


def test_best_tradeoff_ratio():
    params = cm.HeParams(2**16, 32, 12, 54, n=2**15)
    info = cm.best_tradeoff_ratio(params)
    assert info["dh_factors"] == (512, 64)
    assert info["th_factors"] == (16, 128, 16)
    assert abs(info["ratio"] - 3.65) / 3.65 < 0.01
    exact = (512 + 64 - 2) / (16 + 128 + 16 - 3)
    assert info["ratio"] == pytest.approx(exact)


def test_best_tradeoff_ratio_breaks_compute_ties_like_the_tags():
    # dh-bsgs (8, 1) and (4, 2) cost the same here; both picks take the
    # best-tradeoff tag, which goes to the smaller first factor
    params = cm.HeParams(16, 3, 2, 54, n=8)
    dh = {p.factors: p.modmul_total for p in cm.tradeoff_curve(["dh-bsgs"], params)}
    assert dh[(8, 1)] == dh[(4, 2)] == min(dh.values())
    info = cm.best_tradeoff_ratio(params)
    assert info["dh_factors"] == (4, 2)
    assert info["th_factors"] == (1, 4, 2)
    assert info["ratio"] == 1.0


@pytest.mark.parametrize("args, error", [
    ((12, 5, 5), InvalidModulus),
    ((4, 1, 1), InvalidModulus),
    ((2**10, 0, 5), ring.BasisMismatch),
    ((2**10, 5, 0), ring.BasisMismatch),
    ((2**10, 5, 5, 7), InvalidModulus),
    ((2**10, 5, 5, 61), InvalidModulus),
    ((1024.0, 5, 5), InvalidModulus),
    ((2**10, 5, 5, 44.0), InvalidModulus),
    ((2**10, 5.0, 2, 44, 64), ring.BasisMismatch),
    ((2**10, 5, 2.5), ring.BasisMismatch),
    ((2**10, 5, 5, 54, 64.0), cm.BadFactors),
], ids=["ring-dim-not-power-of-two", "ring-dim-below-8", "no-levels", "no-alpha",
        "word-below-8-bits", "word-above-60-bits", "float-ring-dim", "float-word-bits",
        "float-levels", "float-alpha", "float-n"])
def test_he_params_rejects_unsupported_shapes(args, error):
    with pytest.raises(error):
        cm.HeParams(*args)


def test_he_params_accepts_the_edge_shapes():
    assert cm.HeParams(8, 1, 1, 8).limb_bytes == 8
    assert cm.HeParams(2**16, 1, 1, 60).beta == 1


def test_search_min_keys_matches_exhaustive():
    params = cm.HeParams(2**13, 5, 5, 54, n=2**12)
    best = cm.search_factors("th-bsgs", params, "min_keys")
    assert best == (16, 16, 16)
    # independent enumeration oracle
    def keys(fs):
        return params.beta * (sum(fs) - 3) * params.pq_limbs
    all_splits = [
        (a, b, params.n // (a * b))
        for a in cm._pow2_divisors(params.n)
        for b in cm._pow2_divisors(params.n // a)
    ]
    assert keys(best) == min(keys(fs) for fs in all_splits)


def test_search_bsgs_square_optimum():
    params = cm.HeParams(2**13, 5, 5, 54, n=2**12)
    assert cm.search_factors("bsgs", params, "min_compute") == (64, 64)


def test_search_rejects_unknown_objective():
    params = cm.HeParams(2**13, 5, 5, 54, n=2**8)
    with pytest.raises(cm.BadFactors, match="objective"):
        cm.search_factors("th-bsgs", params, "min_latency")


def test_search_tie_break_smallest_first():
    params = cm.HeParams(2**13, 5, 5, 54, n=2**8)
    fs = cm.search_factors("th-bsgs", params, "min_keys")
    # sum minimized by near-cube splits; reversal ties break to smaller first
    assert fs == min([fs, tuple(reversed(fs))])


# hand-evaluated off-chip tables: phase -> (ntt, lt, swk, read, write)
HAND_OFFCHIP = {
    "set-a": {
        1: (20, 0, 140, 10, 160),
        2: (10, 0, 0, 70, 70),
        3: (0, 0, 1260, 160, 10240),
        4: (10, 40960, 0, 10880, 800),
        5: (10, 0, 140, 160, 20),
        6: (10, 0, 0, 20, 10),
    },
    "set-b": {
        1: (48, 0, 1440, 32, 768),
        2: (96, 0, 0, 360, 720),
        3: (0, 0, 12192, 13824, 98304),
        4: (24, 393216, 0, 129408, 31488),
        5: (48, 0, 672, 432, 96),
        6: (24, 0, 0, 48, 32),
    },
    "set-c": {
        1: (88, 0, 3960, 64, 1408),
        2: (660, 0, 0, 660, 1980),
        3: (0, 0, 33528, 90112, 180224),
        4: (44, 1441792, 0, 419584, 240768),
        5: (704, 0, 3960, 2728, 1408),
        6: (44, 0, 0, 88, 64),
    },
}


@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c"])
def test_offchip_hand_plugins(set_name):
    params, factors, cfg = cm.reference_config(set_name)
    table = cm.offchip_access(params, factors, cfg)
    for phase, row in HAND_OFFCHIP[set_name].items():
        got = tuple(table[phase][c] for c in cm.CATEGORIES)
        assert got == row, (set_name, phase, got, row)


def test_peak_onchip_plugins():
    # phase 1 with unit parallelism and beta=1: 2(L+1) + 5 + 10
    params = cm.HeParams(2**13, 5, 5, 54, n=2**12)
    cfg = cm.ParallelismConfig()
    peaks = cm.peak_onchip(params, (8, 64, 8), cfg)
    assert peaks[1] == 2 * 5 + 5 + 10
    assert peaks[6] == 2 * params.pq_limbs
    params_c, factors_c, cfg_c = cm.reference_config("set-c")
    assert cm.peak_onchip(params_c, factors_c, cfg_c)[6] == 88


def test_peak_monotone_in_parallelism():
    params, factors, _ = cm.reference_config("set-a")
    base = cm.ParallelismConfig()
    peaks0 = cm.peak_onchip(params, factors, base)
    import dataclasses
    for name in ("m1", "m2", "m3", "m4", "m5", "m6", "l1", "l2", "l3", "l4", "l5"):
        bumped = dataclasses.replace(base, **{name: 2})
        peaks1 = cm.peak_onchip(params, factors, bumped)
        assert all(peaks1[p] >= peaks0[p] for p in cm.PHASES)


def test_config_validation():
    params, factors, _ = cm.reference_config("set-a")
    with pytest.raises(cm.ConfigOutOfRange):
        cm.validate_config(params, factors, cm.ParallelismConfig(m1=99))
    with pytest.raises(cm.ConfigOutOfRange):
        cm.validate_config(params, factors, cm.ParallelismConfig(l1=999))


def _offchip_total(params, factors, cfg):
    return sum(sum(row.values()) for row in cm.offchip_access(params, factors, cfg).values())


def test_search_parallelism_unlimited_budget():
    params = cm.HeParams(2**10, 4, 2, 54, n=2**6)
    factors = (4, 4, 4)
    cfg = cm.search_parallelism(params, factors, 10**15)
    assert (cfg.m1, cfg.m3, cfg.m6) == (3, 3, 4)
    assert cfg.m5 == 16
    assert cfg.ls() == (6, 6, 6, 6, 6)
    base_total = _offchip_total(params, factors, cm.ParallelismConfig())
    assert _offchip_total(params, factors, cfg) <= base_total


@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c"])
def test_search_parallelism_unbounded_budget_reaches_every_extent(set_name):
    params, factors, _ = cm.reference_config(set_name)
    n1, n2, n3 = factors
    cfg = cm.search_parallelism(params, factors, 1 << 80)
    assert cfg.ms() == (n1 - 1, n1 - 1, n2 - 1, n1, n1 * n2, n3)
    assert cfg.ls() == (params.pq_limbs,) * 5


def test_search_parallelism_infeasible():
    params, factors, _ = cm.reference_config("set-c")
    floor_bytes = 2 * params.pq_limbs * params.limb_bytes
    with pytest.raises(cm.Infeasible):
        cm.search_parallelism(params, factors, floor_bytes // 4)


def test_search_parallelism_matches_exhaustive_small():
    params = cm.HeParams(2**10, 4, 2, 54, n=2**6)
    factors = (4, 4, 4)
    budget = 60 * params.limb_bytes
    best = cm.search_parallelism(params, factors, budget)
    budget_limbs = budget // params.limb_bytes
    assert cm.max_peak_limbs(params, factors, best) <= budget_limbs
    got = _offchip_total(params, factors, best)
    # exhaustive oracle over the traffic-relevant knobs
    opt = math.inf
    for m1, m3, m5, m6 in itertools.product(
            range(1, 4), range(1, 4), range(1, 17), range(1, 5)):
        cand = cm.ParallelismConfig(m1=m1, m3=m3, m5=m5, m6=m6)
        if cm.max_peak_limbs(params, factors, cand) > budget_limbs:
            continue
        opt = min(opt, _offchip_total(params, factors, cand))
    assert got == opt


def _search_outcome(search, params, factors, budget, dp):
    try:
        return search(params, factors, budget, dp=dp)
    except cm.Infeasible as exc:
        return "Infeasible", str(exc)


@st.composite
def _search_inputs(draw):
    """A shape, one of its th-bsgs splits, a dp, and a budget from a little
    below the minimal footprint up to 1 << 80 bytes."""
    log_dim = draw(st.integers(3, 11))
    levels = draw(st.integers(1, 40))
    params = cm.HeParams(2**log_dim, levels, draw(st.integers(1, levels + 4)),
                         draw(st.integers(8, 60)), n=2 ** draw(st.integers(0, log_dim - 1)))
    log_n = params.n.bit_length() - 1
    a = draw(st.integers(0, log_n))
    b = draw(st.integers(0, log_n - a))
    factors = (1 << a, 1 << b, 1 << (log_n - a - b))
    dp = 2 ** draw(st.integers(1, log_dim // 2))
    floor = cm.max_peak_limbs(params, factors, cm.ParallelismConfig(dp=dp))
    roof = cm.max_peak_limbs(params, factors, cm.ParallelismConfig(
        **dict(cm.knob_extents(factors, params.pq_limbs)), dp=dp))
    # most budgets land between the floor and the footprint at every extent,
    # where each knob stops at its own phase bound
    limbs = draw(st.one_of(st.integers(max(floor - 3, 0), roof + 1),
                           st.integers(floor, (1 << 80) // params.limb_bytes)))
    budget = limbs * params.limb_bytes + draw(st.integers(0, params.limb_bytes - 1))
    return params, factors, budget, dp


@settings(max_examples=150, deadline=None)
@given(_search_inputs())
def test_search_parallelism_equals_the_unit_stepping_search(case):
    assert (_search_outcome(cm.search_parallelism, *case)
            == _search_outcome(search_parallelism_stepping, *case))


def test_search_parallelism_equals_the_unit_stepping_search_on_the_sweep_grid():
    for set_name, (_, _, _, dp) in cm.REFERENCE_CONFIGS.items():
        params = cm.NAMED_SETS[set_name]
        for factors in cm.pareto_factorizations("th-bsgs", params):
            for mib in (1, 4, 16, 64):
                case = params, factors, mib << 20, dp
                assert (_search_outcome(cm.search_parallelism, *case)
                        == _search_outcome(search_parallelism_stepping, *case)), case


@pytest.mark.parametrize("budget", [1 << 20, 4 << 20, 64 << 20, 1 << 80])
@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c"])
def test_search_parallelism_evaluates_the_peaks_at_most_twice_per_knob(
        monkeypatch, set_name, budget):
    params, factors, ref = cm.reference_config(set_name)
    calls = {"peaks": 0, "checks": 0}
    peaks, check = cm._phase_peaks, cm.validate_config

    def counted_peaks(*args):
        calls["peaks"] += 1
        return peaks(*args)

    def counted_check(*args):
        calls["checks"] += 1
        return check(*args)

    monkeypatch.setattr(cm, "_phase_peaks", counted_peaks)
    monkeypatch.setattr(cm, "validate_config", counted_check)
    try:
        cm.search_parallelism(params, factors, budget, dp=ref.dp)
    except cm.Infeasible:
        pass
    knobs = len(cm.knob_extents(factors, params.pq_limbs))
    assert calls["peaks"] <= 2 * knobs + 1, calls
    assert calls["checks"] == 1, calls


def test_tradeoff_curve_shape_and_tags():
    params = cm.HeParams(2**16, 32, 12, 54, n=2**15)
    pts = cm.tradeoff_curve(["bsgs", "dh-bsgs", "th-bsgs"], params)
    bs = [p for p in pts if p.method == "bsgs"]
    assert len(bs) == 1 and bs[0].factors in ((128, 256), (256, 128))
    th = [p for p in pts if p.method == "th-bsgs"]
    assert any("min-memory" in p.tag for p in th)
    assert any("best-tradeoff" in p.tag for p in th)
    mem_pt = next(p for p in th if "min-memory" in p.tag)
    assert mem_pt.factors[0] * mem_pt.factors[2] * mem_pt.factors[1] == 2**15


def test_tradeoff_th_dominates_dh():
    params = cm.HeParams(2**16, 32, 12, 54, n=2**15)
    pts = cm.tradeoff_curve(["dh-bsgs", "th-bsgs"], params)
    th = [p for p in pts if p.method == "th-bsgs"]
    for d in (p for p in pts if p.method == "dh-bsgs"):
        assert any(t.key_limbs <= d.key_limbs
                   and t.modmul_total <= d.modmul_total for t in th)


def test_tradeoff_csv_columns():
    params = cm.HeParams(2**13, 5, 5, 54, n=2**12)
    text = cm.tradeoff_csv(cm.tradeoff_curve(["th-bsgs"], params))
    header = text.splitlines()[0]
    assert header == ",".join(cm.TRADEOFF_COLUMNS)
