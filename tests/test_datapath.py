import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ckkslt import ckks, cli
from ckkslt import costmodel as cm
from ckkslt import datapath as dp
from ckkslt import linear, ring


ACCEPT_SHAPE = cm.HeParams(2**10, 5, 5, 44, n=64)
# n1 = 1 plans, whose phase 1 runs only its decomposition pass
N1_PLANS = {"(1,64,1)": (1, 64, 1), "(1,8,8)": (1, 8, 8)}


@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c", *N1_PLANS])
def test_count_mode_matches_closed_forms(set_name):
    params, factors, cfg = (cm.reference_config(set_name) if set_name.startswith("set-")
                            else (ACCEPT_SHAPE, N1_PLANS[set_name], cm.ParallelismConfig()))
    rows = dp.validate_against_model(params, factors, cfg)
    for row in rows:
        assert row["explained"], row
    # non-whitelisted off-chip cells agree exactly
    for row in rows:
        if not row["whitelisted"]:
            assert row["delta"] == 0, row


@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c"])
def test_whitelisted_deltas_equal_documented_formulas(set_name):
    params, factors, cfg = cm.reference_config(set_name)
    n1, n2, n3 = factors
    limbs = params.pq_limbs
    beta = params.beta
    expected = {
        (2, "ntt"): (-(-(n1 - 1) // cfg.m2) - -(-(n1 - 1) // cfg.m1)) * limbs,
        (1, "poly_write"): beta * limbs,
        (3, "poly_write"): -2 * n1 * limbs,
        (6, "poly_write"): -2,
    }
    rows = {(r["phase"], r["category"]): r
            for r in dp.validate_against_model(params, factors, cfg)}
    for cell, delta in expected.items():
        assert rows[cell]["delta"] == delta, (cell, rows[cell])
        assert rows[cell]["whitelisted"]


@pytest.mark.parametrize("factors", [(8, 8, 8), (3, 5, 7), (4, 4), (-8, 64, -8)])
def test_six_phase_entry_points_reject_bad_factors(factors):
    params, cfg = cm.SET_A, cm.ParallelismConfig()
    for entry in (dp.simulate, cm.offchip_access, cm.peak_onchip):
        with pytest.raises(cm.BadFactors):
            entry(params, factors, cfg)
    with pytest.raises(cm.BadFactors):
        cm.search_parallelism(params, factors, 64 << 20)


@pytest.mark.parametrize("dp_val", [0, -4, 3, 512])
def test_six_phase_entry_points_reject_bad_dp(dp_val, capsys):
    # set-a has N=2^16, so dp=512 breaks dp^2 <= N
    params, factors, _ = cm.reference_config("set-a")
    cfg = cm.ParallelismConfig(dp=dp_val)
    for entry in (dp.simulate, cm.offchip_access, cm.peak_onchip):
        with pytest.raises(cm.ConfigOutOfRange):
            entry(params, factors, cfg)
    with pytest.raises(cm.ConfigOutOfRange):
        cm.search_parallelism(params, factors, 64 << 20, dp=dp_val)
    argv = ["simulate", "--params", "set-a", "--factors", "8,64,8", "--dp", str(dp_val)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: dp=")


def test_store_read_past_declared_count_raises():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    store.write(meter, 1, "x", 0, 1, 3, ["payload"], reads=2)
    assert store.read(meter, 2, "x", 0, 1) + store.read(meter, 3, "x", 0, 1) == ["payload"] * 2
    assert store.live() == []
    with pytest.raises(KeyError):
        store.read(meter, 3, "x", 0, 1)
    assert (meter.offchip[2]["poly_read"], meter.offchip[3]["poly_read"]) == (3, 3)


def test_store_write_with_wrong_payload_count_is_a_walk_fault():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    with pytest.raises(RuntimeError, match="2 payloads for 3 objects"):
        store.write(meter, 1, "x", 0, 3, 1, ["p0", "p1"])


def test_store_write_with_no_reads_meters_but_keeps_nothing():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    store.write(meter, 1, "x", 0, 1, 3, ["payload"], reads=0)
    assert meter.offchip[1]["poly_write"] == 3
    assert store.live() == []
    with pytest.raises(KeyError):
        store.read(meter, 2, "x", 0, 1)


def test_store_range_read_over_a_spent_object_raises_and_meters_nothing():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    store.write(meter, 1, "x", 0, 4, 3, ["p0", "p1", "p2", "p3"], reads=2)
    store.write(meter, 1, "x", 2, 3, 3, ["q2"], reads=1)
    assert store.read(meter, 2, "x", 1, 4) == ["p1", "q2", "p3"]
    before = {p: dict(row) for p, row in meter.offchip.items()}
    with pytest.raises(KeyError, match="x:2"):
        store.read(meter, 3, "x", 0, 4)
    assert meter.offchip == before
    assert store.live() == ["x:0", "x:1", "x:3"]


def test_store_repeated_read_meters_each_transfer_and_frees_at_zero():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    store.write(meter, 1, "x", 0, 3, 5, ["p0", "p1", "p2"], reads=4)
    store.write(meter, 1, "x", 1, 2, 5, ["q1"], reads=2)
    assert store.read(meter, 2, "x", 0, 3, times=2) == ["p0", "q1", "p2"]
    assert meter.offchip[2]["poly_read"] == 2 * 3 * 5
    # q1 had exactly two reads due: its payload is gone, the others keep theirs
    assert store.live() == ["x:0", "x:2"]
    assert store.read(meter, 3, "x", 0, 1, times=2) == ["p0"]
    assert store.read(meter, 3, "x", 2, 3, times=2) == ["p2"]
    assert store.live() == [] and meter.offchip[3]["poly_read"] == 2 * 2 * 5


def test_store_repeated_read_short_of_its_count_raises_and_meters_nothing():
    meter, store = dp.MemoryMeter(), dp.OffchipStore()
    store.write(meter, 1, "x", 0, 4, 3, ["p0", "p1", "p2", "p3"], reads=3)
    store.write(meter, 1, "x", 2, 3, 3, ["q2"], reads=1)
    store.write(meter, 1, "x", 3, 4, 3, ["q3"], reads=2)
    before = {p: dict(row) for p, row in meter.offchip.items()}
    # x:2 and x:3 both have fewer than 3 reads due; the first is named
    with pytest.raises(KeyError, match="x:2 has fewer than 3 reads due"):
        store.read(meter, 2, "x", 0, 4, times=3)
    # past the last written index
    with pytest.raises(KeyError, match="x:4 has fewer than 1 reads due"):
        store.read(meter, 2, "x", 0, 5)
    with pytest.raises(KeyError, match="y:0"):
        store.read(meter, 2, "y", 0, 1, times=2)
    assert meter.offchip == before
    assert store.read(meter, 2, "x", 0, 2, times=3) == ["p0", "p1"]


def _store_calls_per_phase(monkeypatch, params, factors, cfg) -> dict:
    calls = {}
    for name in ("read", "write"):
        method = getattr(dp.OffchipStore, name)

        def counted(self, meter, phase, *args, _method=method, **kw):
            calls[phase] = calls.get(phase, 0) + 1
            return _method(self, meter, phase, *args, **kw)

        monkeypatch.setattr(dp.OffchipStore, name, counted)
    dp.simulate(params, factors, cfg)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("set_name", ["set-a", "set-b", "set-c"])
def test_phase_3_makes_one_store_call_per_transfer_whatever_its_key_batches(
        monkeypatch, set_name):
    # every key batch re-reads all (a_i, d_i): one read of each range with
    # the batch count, and one write of each output range, at any m3
    params, factors, cfg = cm.reference_config(set_name)
    n2 = factors[1]
    calls = [_store_calls_per_phase(monkeypatch, params, factors,
                                    dataclasses.replace(cfg, m3=m3))[3]
             for m3 in (1, n2 - 1)]
    assert calls == [4, 4]


def test_object_live_at_end_of_walk_raises(monkeypatch):
    params, factors, cfg = cm.reference_config("set-a")
    write = dp.OffchipStore.write

    def one_read_too_many(self, meter, phase, kind, start, stop, limbs, payloads=None,
                          reads=1, **kw):
        extra = kind == "b" and start == 0
        write(self, meter, phase, kind, start, stop, limbs, payloads, reads + extra, **kw)

    monkeypatch.setattr(dp.OffchipStore, "write", one_read_too_many)
    with pytest.raises(RuntimeError, match=r"never read out: \['b:0'\]"):
        dp.simulate(params, factors, cfg)


def _random_configs(shape, count, seed):
    """Seeded in-range configs over every three-factor split of shape.n."""
    rng = np.random.default_rng(seed)
    k = shape.n.bit_length() - 1
    splits = [(1 << a, 1 << b, 1 << (k - a - b)) for a in range(k + 1) for b in range(k + 1 - a)]
    for _ in range(count):
        factors = splits[rng.integers(len(splits))]
        knobs = {name: int(rng.integers(1, hi + 1))
                 for name, hi in cm.knob_extents(factors, shape.pq_limbs)}
        yield shape, factors, cm.ParallelismConfig(**knobs)


def test_onchip_peak_is_the_envelope_of_every_phase_that_runs():
    # each loop nest's first batch is its whole knob, so a phase that runs
    # peaks at the closed form and one whose loop never runs holds nothing
    configs = [*(cm.reference_config(name) for name in ("set-a", "set-b", "set-c")),
               *_random_configs(cm.HeParams(16, 3, 2, 54, n=8), 30, seed=1),
               *_random_configs(cm.HeParams(2**10, 5, 5, 44, n=64), 30, seed=2)]
    for params, factors, cfg in configs:
        sim = dp.simulate(params, factors, cfg)
        peaks = cm.peak_onchip(params, factors, cfg)
        for phase in cm.PHASES:
            want = peaks[phase] if sim.meter.rounds[phase] else 0
            assert sim.meter.onchip_peak[phase] == want, (factors, cfg, phase)


def test_perturbed_config_flags_delta():
    params, factors, cfg = cm.reference_config("set-a")
    sim = dp.simulate(params, factors, cfg)
    other = dataclasses.replace(cfg, m3=7)
    model = cm.offchip_access(params, factors, other)
    diffs = [
        (p, c) for p in cm.PHASES for c in cm.CATEGORIES
        if sim.meter.offchip[p][c] != model[p][c] and (p, c) == (3, "poly_read")
    ]
    assert diffs, "perturbing m3 must change the phase-3 read cell"


def test_dp_variation_does_not_change_offchip():
    params, factors, cfg = cm.reference_config("set-a")
    meters = []
    for dp_val in (2, 4, 8):
        sim = dp.simulate(params, factors,
                          dataclasses.replace(cfg, dp=dp_val))
        meters.append(sim.meter.offchip)
    assert meters[0] == meters[1] == meters[2]


def test_trace_counts():
    params, factors, cfg = cm.reference_config("set-b")
    sim = dp.simulate(params, factors, cfg)
    n1, n2, n3 = factors
    assert sim.trace.decompose == n1 + n3 - 1
    assert sim.trace.moddown == n1 + n3


def test_meter_conservation_phase_boundaries():
    params, factors, cfg = cm.reference_config("set-a")
    n1, n2, n3 = factors
    limbs = params.pq_limbs
    sim = dp.simulate(params, factors, cfg)
    # phase 2 reads exactly the rotated second components phase 1 wrote
    assert sim.meter.offchip[2]["poly_read"] == (n1 - 1) * limbs
    # phase 6 reads exactly the accumulator pair phase 5 last wrote
    assert sim.meter.offchip[6]["poly_read"] == 2 * limbs


def test_round_counts_are_ceiling_products():
    # with unit parallelism every phase runs its full loop extents; the
    # iteration counts are the ceiling products of the phase descriptions
    def ceil(a, b):
        return -(-a // b)

    cases = [(p, f, (cm.ParallelismConfig(), cfg))
             for p, f, cfg in map(cm.reference_config, ("set-a", "set-b", "set-c"))]
    # at n1 = 1 phase 1 still runs one decomposition pass
    cases += [(p, f, (cm.ParallelismConfig(), cm.ParallelismConfig(l1=3)))
              for p, f in ((ACCEPT_SHAPE, (1, 64, 1)), (ACCEPT_SHAPE, (1, 8, 8)),
                           (cm.NAMED_SETS["set-a"], (1, 2048, 2)))]
    for params, factors, cfgs in cases:
        n1, n2, n3 = factors
        limbs = params.pq_limbs
        for cfg in cfgs:
            sim = dp.simulate(params, factors, cfg)
            r = sim.meter.rounds
            assert r[1] == max(1, ceil(n1 - 1, cfg.m1)) * ceil(limbs, cfg.l1)
            assert r[2] == ceil(n1 - 1, cfg.m2)
            assert r[3] == (ceil(n2 - 1, cfg.m3) * ceil(limbs, cfg.l3)
                            * ceil(n1, cfg.m4))
            assert r[4] == ceil(n1 * n2, cfg.m5)
            assert r[5] == ceil(n3, cfg.m6)
            assert r[6] == 1


def test_count_mode_speed_set_c():
    import time
    params, factors, cfg = cm.reference_config("set-c")
    t0 = time.time()
    dp.simulate(params, factors, cfg)
    assert time.time() - t0 < 1.0


def test_config_out_of_range():
    params, factors, _ = cm.reference_config("set-a")
    with pytest.raises(cm.ConfigOutOfRange):
        dp.simulate(params, factors, cm.ParallelismConfig(m6=99))
    # a non-integer knob inside its extent would give fractional limb counts
    for check, cfg in ((dp.simulate, cm.ParallelismConfig(m1=2.5)),
                       (cm.peak_onchip, cm.ParallelismConfig(m1=2.5)),
                       (cm.offchip_access, cm.ParallelismConfig(m3=1.5)),
                       (cm.validate_config, cm.ParallelismConfig(dp=4.0))):
        with pytest.raises(cm.ConfigOutOfRange):
            check(params, factors, cfg)


def test_datapath_does_not_import_linear():
    # linear runs its hoisted plans on the walk, so the walk must not need linear
    code = "import sys, ckkslt.datapath; print('ckkslt.linear' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def compute_env(toy_params, toy_keys):
    sk, pk = toy_keys
    rng = np.random.default_rng(55)
    n = 16
    plan = linear.LtPlan(linear.LtMethod.TH_BSGS, n, (4, 2, 2))
    keys = linear.generate_lt_keys(sk, plan, toy_params, rng)
    F = rng.uniform(-1, 1, (n, n))
    v = rng.uniform(-1, 1, n)
    dm = linear.diagonalize(F, plan, toy_params)
    tiled = np.tile(v, toy_params.slots // n)
    ct = ckks.encrypt(ckks.encode(tiled, toy_params), pk, toy_params, rng)
    return plan, keys, F, v, dm, ct


# the second configuration batches phases 2-5 as well, within the (4, 2, 2) bounds
COMPUTE_CONFIGS = [
    cm.ParallelismConfig(m1=2, m3=1, m5=3, m6=2, l1=2),
    cm.ParallelismConfig(m1=3, m2=3, m4=2, m5=8, m6=2,
                         l1=3, l2=4, l3=2, l4=5, l5=10),
]


def test_compute_mode_matches_evaluator_bit_for_bit(
        compute_env, toy_params, toy_keys):
    sk, _ = toy_keys
    plan, keys, F, v, dm, ct = compute_env
    ref, _ = linear.lt_hoisted(ct, dm, keys, toy_params)
    shape = cm.HeParams(toy_params.ring_dim, toy_params.basis.level_count,
                        toy_params.basis.alpha, 44, n=plan.n)
    ctx = dp.ComputeContext(toy_params, ct, dm, keys)
    for cfg in COMPUTE_CONFIGS:
        sim = dp.simulate(shape, plan.factors, cfg, inputs=ctx)
        for a, b in zip(sim.ciphertext.c0.limbs, ref.c0.limbs):
            assert np.array_equal(a.coeffs, b.coeffs), cfg
        for a, b in zip(sim.ciphertext.c1.limbs, ref.c1.limbs):
            assert np.array_equal(a.coeffs, b.coeffs), cfg
        # and the decoded result is the right linear transform
        out = ckks.decode(ckks.decrypt(sim.ciphertext, sk), toy_params)
        expect = np.tile(F @ v, toy_params.slots // plan.n)
        assert np.max(np.abs(out - expect)) < 1e-3, cfg


def test_compute_and_count_meters_agree(compute_env, toy_params):
    plan, keys, F, v, dm, ct = compute_env
    shape = cm.HeParams(toy_params.ring_dim, toy_params.basis.level_count,
                        toy_params.basis.alpha, 44, n=plan.n)
    ctx = dp.ComputeContext(toy_params, ct, dm, keys)
    for cfg in COMPUTE_CONFIGS:
        sim_c = dp.simulate(shape, plan.factors, cfg, inputs=ctx)
        sim_n = dp.simulate(shape, plan.factors, cfg)
        assert sim_c.meter.offchip == sim_n.meter.offchip, cfg
        assert sim_c.meter.onchip_peak == sim_n.meter.onchip_peak, cfg


@pytest.mark.parametrize("cfg", COMPUTE_CONFIGS)
def test_count_only_trace_matches_compute(compute_env, toy_params, cfg):
    # every count is a property of the shape; key offsets are recorded
    # only where compute mode fetches a key
    plan, keys, F, v, dm, ct = compute_env
    shape = cm.HeParams(toy_params.ring_dim, toy_params.basis.level_count,
                        toy_params.basis.alpha, 44, n=plan.n)
    ctx = dp.ComputeContext(toy_params, ct, dm, keys)
    tr_c = dp.simulate(shape, plan.factors, cfg, inputs=ctx).trace
    tr_n = dp.simulate(shape, plan.factors, cfg).trace
    assert ((tr_c.decompose, tr_c.moddown, tr_c.cwise_mult_limbs)
            == (tr_n.decompose, tr_n.moddown, tr_n.cwise_mult_limbs))
    assert tr_c.key_offsets == set(linear.required_offsets(plan)[0])
    assert tr_n.key_offsets == set()


@pytest.mark.parametrize("name", ["diagonal", "dh-bsgs", "th-bsgs", "th-bsgs (2,4,8)"])
def test_compute_batches_return_what_unit_batches_return(monkeypatch, acceptance_lt,
                                                         toy_params, name):
    # layers (1,64,1), (1,8,8), (4,4,4) and (2,4,8): a compute batch is one
    # stacked call, so neither the ciphertext nor the trace may depend on the
    # knobs, which is what lets lt_hoisted batch phases 2 and 5 whole
    ct, packed = acceptance_lt
    dm, keys = packed[name]
    extents = dict(cm.knob_extents(dm.plan.layers, ACCEPT_SHAPE.pq_limbs))
    configs = []
    simulate = linear.simulate
    monkeypatch.setattr(linear, "simulate", lambda *args: configs.append(args[2]) or simulate(*args))
    out, trace = linear.lt_hoisted(ct, dm, keys, toy_params)
    assert configs == [cm.ParallelismConfig(m2=extents["m2"], m6=extents["m6"])]
    ctx = dp.ComputeContext(toy_params, ct, dm, keys)
    for cfg in (cm.ParallelismConfig(), cm.ParallelismConfig(m1=extents["m1"], m3=extents["m3"])):
        sim = dp.simulate(ACCEPT_SHAPE, dm.plan.layers, cfg, inputs=ctx)
        assert sim.trace == trace, cfg
        assert sim.ciphertext.scale == out.scale
        for got, want in ((sim.ciphertext.c0, out.c0), (sim.ciphertext.c1, out.c1)):
            assert got.context is want.context and np.array_equal(got.coeffs, want.coeffs), cfg


def test_compute_mode_rejects_mismatched_plan(small_params):
    # keys from a diagonal plan are hoisted and cover every offset, so
    # only the plan check can stop a wrong answer
    rng = np.random.default_rng(56)
    sk, pk = ckks.keygen(small_params, rng)
    n = 16
    keys = linear.generate_lt_keys(
        sk, linear.LtPlan(linear.LtMethod.DIAGONAL, n), small_params, rng)
    F = rng.uniform(-1, 1, (n, n))
    v = rng.uniform(-1, 1, n)
    ct = ckks.encrypt(ckks.encode(np.tile(v, small_params.slots // n), small_params),
                      pk, small_params, rng)
    shape = cm.HeParams(small_params.ring_dim, small_params.basis.level_count,
                        small_params.basis.alpha, 30, n=n)
    th = linear.LtPlan(linear.LtMethod.TH_BSGS, n, (4, 2, 2))
    dh = linear.LtPlan(linear.LtMethod.DH_BSGS, n, (4, 4))
    bsgs = linear.LtPlan(linear.LtMethod.BSGS, n, (4, 4))  # right layers, over Q
    for plan, factors in ((th, (2, 2, 4)), (dh, (4, 4, 1)), (bsgs, (1, 4, 4))):
        dm = linear.diagonalize(F, plan, small_params)
        ctx = dp.ComputeContext(small_params, ct, dm, keys)
        with pytest.raises(linear.PlanMismatch):
            dp.simulate(shape, factors, cm.ParallelismConfig(), inputs=ctx)


def test_compute_mode_rejects_shape_of_other_parameters(compute_env, toy_params):
    plan, keys, F, v, dm, ct = compute_env
    ctx = dp.ComputeContext(toy_params, ct, dm, keys)
    dims = (toy_params.ring_dim, toy_params.basis.level_count, toy_params.basis.alpha)
    for k in range(3):
        wrong = [d * 2 if i == k else d for i, d in enumerate(dims)]
        shape = cm.HeParams(*wrong, 44, n=plan.n)
        with pytest.raises(ring.BasisMismatch, match="disagree"):
            dp.simulate(shape, plan.factors, cm.ParallelismConfig(), inputs=ctx)


def test_compute_mode_residency_does_not_grow_with_n(toy_params, toy_keys):
    # a diagonal plan (1, n, 1) has n-1 middle-layer rotations; phase 4
    # rotates each as it reads it, so the tracemalloc peak may differ across
    # n by at most one PQ polynomial (holding every rotated pair, as a walk
    # that rotates in phase 3 does, adds two per extra rotation: 9 MB here)
    sk, pk = toy_keys
    rng = np.random.default_rng(57)
    limbs = toy_params.basis.level_count + toy_params.basis.alpha
    margin = limbs * toy_params.ring_dim * 8
    peaks = []
    for n in (8, 64):
        plan = linear.LtPlan(linear.LtMethod.DIAGONAL, n)
        keys = linear.generate_lt_keys(sk, plan, toy_params, rng)
        dm = linear.diagonalize(rng.uniform(-1, 1, (n, n)), plan, toy_params)
        v = np.tile(rng.uniform(-1, 1, n), toy_params.slots // n)
        ct = ckks.encrypt(ckks.encode(v, toy_params), pk, toy_params, rng)
        linear.evaluate_lt(ct, dm, keys, toy_params)  # builds lazy tables
        tracemalloc.start()
        try:
            linear.evaluate_lt(ct, dm, keys, toy_params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= margin, (peaks, margin)


def test_report_json_schema():
    params, factors, cfg = cm.reference_config("set-a")
    sim = dp.simulate(params, factors, cfg)
    rep = dp.report_json(params, factors, cfg, sim)
    assert set(rep) == {"params", "phases", "onchip_peak", "rounds", "totals",
                        "trace"}
    assert set(rep["phases"]) == {str(p) for p in cm.PHASES}
    for row in rep["phases"].values():
        assert set(row) == set(cm.CATEGORIES)


@pytest.mark.parametrize("shape, factors, cfg", [
    *(cm.reference_config(name) for name in sorted(cm.REFERENCE_CONFIGS)),
    (ACCEPT_SHAPE, (4, 4, 4), cm.ParallelismConfig()),
    *((ACCEPT_SHAPE, (1, a, 64 // a), cm.ParallelismConfig()) for a in (1, 2, 4, 8, 16, 32, 64)),
])
def test_walk_applies_each_middle_layer_key_to_every_first_layer_input(shape, factors, cfg):
    # complexity charges one product per key;
    # the walk applies each of the n2-1 middle-layer keys to all n1 inputs
    n1, n2, _ = factors
    walk = dp.simulate(shape, factors, cfg).trace.cwise_mult_limbs
    model = cm.complexity("th-bsgs", shape, factors).cwise_mult_limbs
    assert walk - model == 2 * shape.beta * (n1 - 1) * (n2 - 1) * shape.pq_limbs
    if factors == (4, 4, 4):
        assert walk - model == 180  # 184,320 modmuls at N = 2^10
