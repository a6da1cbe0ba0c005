"""Golden hashes: refactors must leave every output bit-identical.

At the acceptance shape (N=2^10, 5+5 limbs, n=64, factors (8,8) and
(4,4,4)) with fixed seeds, this hashes every rotation key, the packed
diagonals, each evaluator's output ciphertext and OpTrace, and the
count-only ``simulate`` report of set-a/b/c at their reference configs.

The hashes cover floating-point encoding, so a numpy build that rounds
its FFT differently changes them. After such a change, or after a
deliberate change of output, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and paste it into GOLDEN.
"""

import hashlib
import json

import numpy as np

from ckkslt import ckks, linear
from ckkslt import costmodel as cm
from ckkslt import datapath as dp

N_LT = 64

GOLDEN = {
    'keys:diagonal': 'f2f8d1bd388c8abe',
    'diagonals:diagonal': 'cd8417418f9d4a20',
    'ciphertext:diagonal': 'fc46e0042960e09a',
    'trace:diagonal': '38a0dfa734bdcdbb',
    'keys:bsgs': '4c8e773c8db9ac92',
    'diagonals:bsgs': 'a318f34136ebc309',
    'ciphertext:bsgs': 'fb3604c4139284b2',
    'trace:bsgs': '5a2f022c7b0d17cc',
    'keys:dh-bsgs': '3d53229dc43a3b0f',
    'diagonals:dh-bsgs': 'cf5a42da0de10f6b',
    'ciphertext:dh-bsgs': '026c54534d176548',
    'trace:dh-bsgs': '4d1674c872d90282',
    'keys:th-bsgs': 'b81b4795bb7bffdb',
    'diagonals:th-bsgs': 'c9cb3011d4e4f10d',
    'ciphertext:th-bsgs': '1b561a37f2dee6b4',
    'trace:th-bsgs': '21633f3fb76cbe6f',
    'simulate:set-a': '92aa77f293631fe9',
    'simulate:set-b': 'e21d9dcae25023c2',
    'simulate:set-c': '5ae53d27669bf90c',
}


class _Hasher:
    def __init__(self):
        self._h = hashlib.sha256()

    def text(self, value):
        self._h.update(repr(value).encode() + b"\0")

    def poly(self, p):
        self.text(([m.q for m in p.moduli], p.domain.value, p.coeffs.shape))
        self._h.update(np.ascontiguousarray(p.coeffs, dtype=np.uint64).tobytes())

    def digest(self) -> str:
        return self._h.hexdigest()[:16]


def _hash_keys(keys: linear.RotationKeys) -> str:
    h = _Hasher()
    for kind, table in (("plain", keys.plain), ("hoisted", keys.hoisted)):
        for offset in sorted(table):
            key = table[offset]
            h.text((kind, offset, key.hoist_offset, len(key.digits)))
            for k0, k1 in key.digits:
                h.poly(k0)
                h.poly(k1)
    return h.digest()


def _hash_diagonals(dm: linear.DiagMatrix) -> str:
    h = _Hasher()
    h.text((dm.over_pq, len(dm.diagonals)))
    for pt in dm.diagonals:
        h.text(pt.scale)
        h.poly(pt.poly)
    return h.digest()


def _hash_ciphertext(ct: ckks.Ciphertext) -> str:
    h = _Hasher()
    h.text((ct.level, ct.scale))
    h.poly(ct.c0)
    h.poly(ct.c1)
    return h.digest()


def _hash_trace(tr: linear.OpTrace) -> str:
    h = _Hasher()
    h.text((tr.decompose, tr.moddown, tr.cwise_mult_limbs, sorted(tr.key_offsets)))
    return h.digest()


def compute_hashes() -> dict:
    params = ckks.CkksParams.make(ring_dim=2**10, levels=5, alpha=5, prime_bits=44)
    rng = np.random.default_rng(20261018)
    sk, pk = ckks.keygen(params, rng)
    plans = {
        "diagonal": linear.LtPlan(linear.LtMethod.DIAGONAL, N_LT),
        "bsgs": linear.LtPlan(linear.LtMethod.BSGS, N_LT, (8, 8)),
        "dh-bsgs": linear.LtPlan(linear.LtMethod.DH_BSGS, N_LT, (8, 8)),
        "th-bsgs": linear.LtPlan(linear.LtMethod.TH_BSGS, N_LT, (4, 4, 4)),
    }
    f_matrix = rng.uniform(-1, 1, (N_LT, N_LT))
    v = rng.uniform(-1, 1, N_LT)
    ct = ckks.encrypt(ckks.encode(np.tile(v, params.slots // N_LT), params), pk, params, rng)
    out = {}
    for name, plan in plans.items():
        keys = linear.generate_lt_keys(sk, plan, params, rng)
        dm = linear.diagonalize(f_matrix, plan, params)
        result, trace = linear.evaluate_lt(ct, dm, keys, params)
        out[f"keys:{name}"] = _hash_keys(keys)
        out[f"diagonals:{name}"] = _hash_diagonals(dm)
        out[f"ciphertext:{name}"] = _hash_ciphertext(result)
        out[f"trace:{name}"] = _hash_trace(trace)
    for set_name in sorted(cm.REFERENCE_CONFIGS):
        shape, factors, cfg = cm.reference_config(set_name)
        report = dp.report_json(shape, factors, cfg, dp.simulate(shape, factors, cfg))
        out[f"simulate:{set_name}"] = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    return out


def test_outputs_match_golden_hashes():
    assert compute_hashes() == GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, value in compute_hashes().items():
        print(f"    {key!r}: {value!r},")
    print("}")
