"""The names ``benchmark/`` relies on, checked on every tier-1 run.

The benchmark's tracer wraps ``module.function`` pairs listed in
``benchmark/run.py`` and patches every ckkslt module that bound the same
object, so a renamed function or a module that stops re-exporting one
would otherwise fail only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from ckkslt import ckks, ring
from ckkslt.modarith import find_ntt_primes

RUN_PY = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"


def _traced() -> dict[str, list[str]]:
    # read the table without importing run.py, which pins BLAS threads
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/run.py defines no TRACED table")


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"ckkslt.{mod}"), fn, None))]
    assert missing == []


def test_names_the_tracer_selftest_uses():
    assert ckks.ntt is ring.ntt
    assert callable(ckks.RnsPoly) and callable(ckks.to_ntt)


def _count_mod_mul_vec(monkeypatch) -> list:
    calls = []
    original = ring.mod_mul_vec

    def counted(*args):
        calls.append(1)
        return original(*args)

    # the tracer patches the module attribute the same way
    monkeypatch.setattr(ring, "mod_mul_vec", counted)
    return calls


def test_forward_ntt_calls_mod_mul_vec_once_per_stage(monkeypatch):
    calls = _count_mod_mul_vec(monkeypatch)
    modulus = find_ntt_primes(30, 2**6, 1)[0]
    poly = ring.random_poly(modulus, np.random.default_rng(0))
    ckks.to_ntt(ckks.RnsPoly([poly]))
    assert len(calls) == 6  # log2(64) butterfly stages


def test_inverse_ntt_calls_mod_mul_vec_once_per_stage_and_to_scale(monkeypatch):
    modulus = find_ntt_primes(30, 2**6, 1)[0]
    poly = ring.ntt(ckks.RnsPoly([ring.random_poly(modulus, np.random.default_rng(1))]))
    calls = _count_mod_mul_vec(monkeypatch)
    ckks.to_coef(poly)
    assert len(calls) == 6  # log2(64) butterfly stages, the last one scaling by N^-1


def test_tiled_encode_transforms_at_subring_length(monkeypatch):
    # a 4-slot vector tiled 8 times over N/2 = 32 slots encodes to a
    # polynomial in X^8, whose forward NTT runs log2(64 / 8) stages
    params = ckks.CkksParams.make(ring_dim=2**6, levels=2, alpha=1, prime_bits=30)
    v = np.tile(np.random.default_rng(0).uniform(-1, 1, 4), 8)
    poly = ckks.encode(v, params).poly
    calls = _count_mod_mul_vec(monkeypatch)
    ckks.to_ntt(poly)
    assert len(calls) == 3
