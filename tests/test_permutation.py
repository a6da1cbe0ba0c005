import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckkslt import permutation as pm
from ckkslt import ring
from ckkslt.costmodel import ConfigOutOfRange
from ckkslt.modarith import find_ntt_primes
from oracles import dump_schedule, schedule_tuples


def layout_for(n, dp, fill=None):
    values = np.arange(n, dtype=np.uint64) if fill is None else fill
    return pm.BankLayout.from_storage(values, dp)


def test_bitrev_examples():
    assert ring.bitrev_table(8)[1] == 4  # '001' -> '100'
    assert ring.bitrev_table(32)[0] == 0
    assert ring.bitrev_table(4)[3] == 3


def test_source_index_origin():
    lay = layout_for(16, 4)
    idx, i_f, j_f, k_f = pm.source_index(0, 0, lay)
    assert idx == 0 and (i_f, j_f, k_f) == (0, 0, 0)


def test_source_index_spec_point():
    lay = layout_for(16, 4)
    idx, *_ = pm.source_index(1, 0, lay)
    assert idx == ring.bitrev_table(16)[4] == 2


def test_source_index_kf_field_exhaustive():
    for n, dp in [(64, 4), (256, 8), (1024, 16)]:
        lay = layout_for(n, dp)
        for f in range(dp):
            for n_f in range(0, n // dp, 7):
                _, _, _, k_f = pm.source_index(f, n_f, lay)
                assert k_f == ring.bitrev_table(dp)[f]


def test_target_zero_rotation_is_identity():
    lay = layout_for(64, 8)
    for f in range(8):
        for n_f in range(8):
            assert pm.target(f, n_f, 0, lay) == (f, n_f)


def test_target_matches_flat_permutation_exhaustive():
    # the field-split target equals the direct index map at every position
    for n, dp in [(16, 4), (64, 8)]:
        lay = layout_for(n, dp)
        per_bank = n // dp
        for r in range(n // 2):
            flat = pm._storage_permutation(r, n)
            for f in range(dp):
                for n_f in range(per_bank):
                    dst = int(flat[f * per_bank + n_f])
                    assert pm.target(f, n_f, r, lay) == divmod(dst, per_bank)


def test_bank_map_bijective_all_rotations():
    for n, dp in [(64, 2), (64, 8), (256, 16), (4096, 16)]:
        lay = layout_for(n, dp)
        for r in range(n // 2):
            bmap = pm.bank_map(r, lay)
            assert sorted(bmap.tolist()) == list(range(dp))


def test_bank_map_independent_of_address():
    lay = layout_for(256, 8)
    for r in (1, 5, 100):
        bmap = pm.bank_map(r, lay)
        for f in range(8):
            for n_f in range(0, 32, 5):
                assert pm.target(f, n_f, r, lay)[0] == bmap[f]


def test_schedule_zero_rotation_all_fixed_points():
    lay = layout_for(64, 4)
    moves = pm.schedule(0, lay).moves
    assert moves.shape == (16, 4, 4)
    assert (moves[..., :2] == moves[..., 2:]).all()


def test_schedule_matches_reference_automorphism():
    n, dp = 256, 8
    m = find_ntt_primes(25, n, 1)[0]
    rng = np.random.default_rng(0)
    p = ring.random_poly(m, rng, ring.Domain.NTT)
    ref = ring.automorphism_eval(p, ring.RotationIndex(3, n))
    lay = pm.BankLayout.from_storage(p.coeffs, dp)
    pm.apply_schedule(lay, pm.schedule(3, lay))
    assert np.array_equal(lay.to_storage(), ref.coeffs)


def test_apply_schedule_inplace_discipline():
    n, dp = 256, 8
    m = find_ntt_primes(25, n, 1)[0]
    rng = np.random.default_rng(1)
    for r in (0, 1, 7, 127):
        p = ring.random_poly(m, rng, ring.Domain.NTT)
        ref = ring.automorphism_eval(p, ring.RotationIndex(r, n))
        lay = pm.BankLayout.from_storage(p.coeffs, dp)
        pm.apply_schedule(lay, pm.schedule(r, lay))
        assert np.array_equal(lay.to_storage(), ref.coeffs)


@pytest.mark.parametrize("tamper", ["read", "write", "drop"])
def test_apply_schedule_rejects_tampered_schedule(tamper):
    lay = layout_for(64, 4)
    before = lay.banks.copy()
    moves = pm.schedule(5, lay).moves.copy()
    if tamper == "read":  # the last move reads the first move's source again
        moves[-1, -1, :2] = moves[0, 0, :2]
    elif tamper == "write":  # the last move writes the first move's target again
        moves[-1, -1, 2:] = moves[0, 0, 2:]
    else:  # the last step is missing
        moves = moves[:-1]
    with pytest.raises(pm.ScheduleViolation):
        pm.apply_schedule(lay, pm.Schedule(moves))
    assert np.array_equal(lay.banks, before)


def test_apply_schedule_rejects_double_write_under_optimize():
    # the rules are checks, not asserts, so python -O keeps them
    code = """
import sys
import numpy as np
from ckkslt import permutation as pm
lay = pm.BankLayout.from_storage(np.arange(64, dtype=np.uint64), 4)
moves = pm.schedule(5, lay).moves.copy()
moves[-1, -1, 2:] = moves[0, 0, 2:]
try:
    pm.apply_schedule(lay, pm.Schedule(moves))
except pm.ScheduleViolation as exc:
    print(sys.flags.optimize, exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 double write"


@pytest.mark.parametrize("n,dp", [(64, 4), (256, 8), (1024, 16), (4096, 2)])
def test_apply_schedule_rejects_more_than_dp_in_flight(n, dp):
    # step s moves address s of every bank: a correct permutation whose
    # writes wait for reads many steps later, so it needs scratch storage
    lay = layout_for(n, dp)
    per_bank = n // dp
    dst = pm._storage_permutation(5, n).reshape(dp, per_bank).T
    bank, addr = np.divmod(np.arange(n).reshape(dp, per_bank).T, per_bank)
    moves = np.stack((bank, addr) + np.divmod(dst, per_bank), axis=-1)
    assert moves.shape == (per_bank, dp, 4)
    with pytest.raises(pm.ScheduleViolation, match="in flight"):
        pm.apply_schedule(lay, pm.Schedule(moves))


@pytest.mark.parametrize("field,value", [
    (0, 4),    # source bank past dp
    (3, 16),   # destination address past N/dp
    (1, -1),   # negative addresses would alias through numpy's indexing
    (3, -16),
    (2, -1),
])
def test_apply_schedule_rejects_move_outside_layout(field, value):
    lay = layout_for(64, 4)
    before = lay.banks.copy()
    moves = pm.schedule(5, lay).moves.copy()
    moves[3, 1, field] = value
    with pytest.raises(pm.ScheduleViolation, match="outside the layout"):
        pm.apply_schedule(lay, pm.Schedule(moves))
    assert np.array_equal(lay.banks, before)


@pytest.mark.parametrize("reshape", [
    lambda m: m.astype(np.int32),
    lambda m: m.astype(np.float64),
    lambda m: m.reshape(-1, 4),                 # flat moves, no steps
    lambda m: m.reshape(8, 8, 4),               # steps of 2*dp moves
    lambda m: m[..., :3],                       # a field short
    lambda m: m.tolist(),
])
def test_apply_schedule_rejects_malformed_move_array(reshape):
    lay = layout_for(64, 4)
    before = lay.banks.copy()
    with pytest.raises(pm.ScheduleViolation, match="int64 array"):
        pm.apply_schedule(lay, pm.Schedule(reshape(pm.schedule(5, lay).moves)))
    assert np.array_equal(lay.banks, before)


def test_schedule_steps_are_views_of_one_array():
    lay = layout_for(256, 8)
    sched = pm.schedule(7, lay)
    steps = list(sched)
    assert len(sched) == len(steps) == 32
    for s, step in enumerate(steps):
        assert step.moves.shape == (8, 4) and np.shares_memory(step.moves, sched.moves)
        assert np.array_equal(step.moves, sched.moves[s])


# N from 2^4 to 2^12 with every bank count dp, dp^2 <= N
sizes = st.integers(4, 12).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k // 2)))


@settings(max_examples=200, deadline=None)
@example(sizes=(4, 1), r=0)
@example(sizes=(12, 6), r=2**11)
@example(sizes=(8, 4), r=-3)
@given(sizes=sizes, r=st.integers(-2**13, 2**13))
def test_schedule_moves_equal_tuple_walk(sizes, r):
    log_n, log_dp = sizes
    lay = layout_for(2**log_n, 2**log_dp)
    assert np.array_equal(pm.schedule(r, lay).moves, np.array(schedule_tuples(r, lay)))


def test_schedule_coverage_and_occupancy():
    n, dp = 128, 8
    lay = layout_for(n, dp)
    for r in range(n // 2):
        moves = pm.schedule(r, lay).moves
        assert moves.shape == (n // dp, dp, 4) and moves.dtype == np.int64
        assert not moves.flags.writeable
        reads = moves[..., 0] * (n // dp) + moves[..., 1]
        writes = moves[..., 2] * (n // dp) + moves[..., 3]
        assert np.array_equal(np.sort(reads, axis=None), np.arange(n))
        assert np.array_equal(np.sort(writes, axis=None), np.arange(n))
        banks = np.broadcast_to(np.arange(dp), (n // dp, dp))
        assert np.array_equal(np.sort(moves[..., 0], axis=1), banks)
        assert np.array_equal(np.sort(moves[..., 2], axis=1), banks)


def test_mux_controls_permutation_and_consistency():
    lay = layout_for(256, 8)
    for r in (0, 3, 50):
        table = pm.mux_controls(r, lay)
        moves = pm.schedule(r, lay).moves
        assert table.shape == (len(moves), 8)
        for row in table:
            assert sorted(row.tolist()) == list(range(8))
        # selectors reproduce the schedule's bank movement
        for s, step in enumerate(moves.tolist()):
            for src_bank, _, dst_bank, _ in step:
                assert table[s, dst_bank] == src_bank


def test_dump_schedule_format():
    lay = layout_for(64, 4)
    text = dump_schedule(pm.schedule(1, lay))
    lines = text.splitlines()
    assert len(lines) == 64
    first = [int(x) for x in lines[0].split(",")]
    assert len(first) == 5


def test_layout_validation():
    with pytest.raises(ConfigOutOfRange):
        pm.BankLayout.from_storage(np.arange(16, dtype=np.uint64), 8)  # dp^2 > N
    with pytest.raises(ConfigOutOfRange):
        pm.BankLayout.from_storage(np.arange(16, dtype=np.uint64), 3)
    with pytest.raises(ring.BasisMismatch):
        pm.BankLayout(64, 4, np.zeros((4, 8), dtype=np.uint64))
    # storage that cannot be one NTT block: a length that is not a power of
    # two, or more than one axis
    for storage in (np.arange(48, dtype=np.uint64), np.arange(64, dtype=np.uint64).reshape(8, 8)):
        with pytest.raises(ring.BasisMismatch):
            pm.BankLayout.from_storage(storage, 2)
    for ring_dim, shape in ((48, (2, 24)), (64.0, (2, 32))):
        with pytest.raises(ring.BasisMismatch):
            pm.BankLayout(ring_dim, 2, np.zeros(shape, dtype=np.uint64))
    with pytest.raises(ConfigOutOfRange):
        pm.BankLayout.from_storage(np.arange(64, dtype=np.uint64), 4.0)
    lay = layout_for(64, 4)
    for bank, address in ((5, 0), (0, 16), (-1, 0)):
        with pytest.raises(ConfigOutOfRange):
            pm.source_index(bank, address, lay)
