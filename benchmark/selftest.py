"""Self-tests of the benchmark (not of ckkslt).

    python3 -m pytest -q benchmark/selftest.py

Each workload runs at minimal length in both modes and must print every
metric BENCHMARK.json names, with its unit, on its last line. Results the
tests corrupt on purpose must register as failures.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from ckkslt import ckks, ring  # noqa: E402
from ckkslt import costmodel as cm  # noqa: E402
from ckkslt.modarith import find_ntt_primes  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_runner(spec):
    assert workloads.METHODS == run.METHODS
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_minimal_run_prints_every_metric(spec, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    line = _last_line(capsys)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name


def _flip_residue(method, ct):
    if method == "bsgs":
        limb = ct.c0.limbs[0]
        limb.coeffs[0] = (int(limb.coeffs[0]) + 1) % limb.modulus.q


def test_flipped_residue_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(run, "run", functools.partial(run.run, tamper=_flip_residue))
    code = run.main(["--workload", "lt-eval", "--seed", "3", "--seconds", "0.01"])
    line = _last_line(capsys)
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"]["pass_ratio"]["value"] == 0.0


def _permutation_case(dp=4, r=5):
    modulus = find_ntt_primes(workloads.PERM_PRIME_BITS, 2**6, 1)[0]
    poly = ring.random_poly(modulus, np.random.default_rng(0), ring.Domain.NTT)
    return workloads.PermutationCase(poly, dp, r)


def test_permutation_gate():
    case = _permutation_case()
    assert workloads.permutation_request(case).problems == []

    def swap(label, layout):
        layout.banks[0, 0] ^= np.uint64(1)

    assert workloads.permutation_request(case, swap).problems


def test_design_point_gate():
    point = workloads.DesignPoint("set-a", (8, 64, 8), 64 << 20, 2)
    assert workloads.design_point_request(point).problems == []

    def overflow(label, sim):
        sim.meter.onchip_peak[3] += 10**9

    assert workloads.design_point_request(point, overflow).problems
    tiny = workloads.DesignPoint("set-a", (8, 64, 8), 1, 2)
    outcome = workloads.design_point_request(tiny)
    assert outcome.feasible is False and outcome.problems == []


def test_tail_percentile():
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99
    assert run.tail([1.0] * 12) == (50, 1.0)


def test_tracer_patches_bound_names_and_splits_self_time():
    original = ring.ntt
    assert ckks.ntt is original
    modulus = find_ntt_primes(30, 2**6, 1)[0]
    poly = ring.random_poly(modulus, np.random.default_rng(1))
    tracer = Tracer("ckkslt", {"ring": ["ntt", "mod_mul_vec"], "costmodel": ["peak_onchip"]},
                    expected=(cm.Infeasible,))
    tracer.request = 0
    with tracer:
        assert ckks.ntt is ring.ntt is not original
        ckks.to_ntt(ckks.RnsPoly([poly]))
        with pytest.raises(cm.ConfigOutOfRange):
            cm.peak_onchip(cm.SET_A, (8, 64, 8), cm.ParallelismConfig(m1=99))
    assert ckks.ntt is ring.ntt is original
    summary = tracer.summary([0])
    assert summary["calls"]["ring.ntt"] == 1
    assert summary["calls"]["ring.mod_mul_vec"] == 6  # log2(64) butterfly stages
    assert tracer.raised == {"ring": 0, "costmodel": 1}
    cols = tracer.columns()
    dur = cols["end"] - cols["start"]
    ntt_span = int(np.flatnonzero(cols["func"] == 0)[0])
    children = dur[cols["parent"] == ntt_span].sum()
    assert summary["self_s"]["ring.ntt"] == pytest.approx(dur[ntt_span] - children)
    assert summary["top_level_s"] == pytest.approx(dur[cols["parent"] == -1].sum())


def test_fails_without_program_source():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(SPEC_PATH, bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(here), "run.py"),
             "--workload", "lt-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
