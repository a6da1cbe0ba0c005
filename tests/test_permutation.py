import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckkslt import permutation as pm
from ckkslt import ring
from ckkslt.costmodel import ConfigOutOfRange
from ckkslt.modarith import find_ntt_primes
from oracles import dump_schedule


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
    steps = pm.schedule(0, lay)
    assert len(steps) == 16
    assert all(m[0] == m[2] and m[1] == m[3] for s in steps for m in s.moves)


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
    steps = pm.schedule(5, lay)
    first, last = steps[0].moves[0], steps[-1].moves[-1]
    if tamper == "read":  # the last move reads the first move's source again
        steps[-1].moves[-1] = (first[0], first[1], last[2], last[3])
    elif tamper == "write":  # the last move writes the first move's target again
        steps[-1].moves[-1] = (last[0], last[1], first[2], first[3])
    else:
        del steps[-1].moves[-1]
    with pytest.raises(pm.ScheduleViolation):
        pm.apply_schedule(lay, steps)


def test_apply_schedule_rejects_double_write_under_optimize():
    # the rules are checks, not asserts, so python -O keeps them
    code = """
import sys
import numpy as np
from ckkslt import permutation as pm
lay = pm.BankLayout.from_storage(np.arange(64, dtype=np.uint64), 4)
steps = pm.schedule(5, lay)
first, last = steps[0].moves[0], steps[-1].moves[-1]
steps[-1].moves[-1] = (last[0], last[1], first[2], first[3])
try:
    pm.apply_schedule(lay, steps)
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
    dst = pm._storage_permutation(5, n)
    steps = [pm.MoveStep([(f, a, *divmod(int(dst[f * per_bank + a]), per_bank))
                          for f in range(dp)]) for a in range(per_bank)]
    with pytest.raises(pm.ScheduleViolation, match="in flight"):
        pm.apply_schedule(lay, steps)


def test_schedule_coverage_and_occupancy():
    n, dp = 128, 8
    lay = layout_for(n, dp)
    for r in range(n // 2):
        steps = pm.schedule(r, lay)
        assert len(steps) == n // dp
        reads = [(m[0], m[1]) for s in steps for m in s.moves]
        writes = [(m[2], m[3]) for s in steps for m in s.moves]
        assert len(reads) == len(set(reads)) == n
        assert len(writes) == len(set(writes)) == n
        for s in steps:
            assert sorted(m[0] for m in s.moves) == list(range(dp))
            assert sorted(m[2] for m in s.moves) == list(range(dp))


def test_mux_controls_permutation_and_consistency():
    lay = layout_for(256, 8)
    for r in (0, 3, 50):
        table = pm.mux_controls(r, lay)
        steps = pm.schedule(r, lay)
        assert table.shape == (len(steps), 8)
        for row in table:
            assert sorted(row.tolist()) == list(range(8))
        # selectors reproduce the schedule's bank movement
        for s, step in enumerate(steps):
            for src_bank, _, dst_bank, _ in step.moves:
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
