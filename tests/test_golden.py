"""Golden hashes: refactors must leave every output bit-identical.

At the acceptance shape (N=2^10, 5+5 limbs, n=64, factors (8,8) and
(4,4,4)) with fixed seeds, this hashes every rotation key, the packed
diagonals, each evaluator's output ciphertext and OpTrace, and the
count-only ``simulate`` report of set-a/b/c at their reference configs.
GOLDEN_WIDE does the same at n=16 for two N=2^9 shapes whose moduli
reach 54 bits, so the modular multiply's big-int path is pinned too.
GOLDEN_SPLITS pins the hoisted two-layer route at every split of n=16
(diagonal and dh-bsgs (1,16) to (16,1)) for N=2^7 with 3+2 limbs
(beta=2) at 44 and 54 bits: each entry hashes the output ciphertext and
the trace with its key offsets. Its values were recorded from the
stand-alone two-layer evaluator that the six-phase walk replaced.
A further table hashes the stdout of valid ``ckkslt`` command lines, so a
change to argument handling leaves every report byte-identical.

A last table pins the design-space sweep: per set, the count-only
report and limb-multiply count of every th-bsgs Pareto factorization at
1, 4, 16 and 64 MiB under ``search_parallelism`` (so partial batches and
remainder limb chunks are covered), and the permutation network's move
schedule at N=2^10 and 2^12 for dp 2 to 16.

The hashes cover floating-point encoding, so a numpy build that rounds
its FFT differently changes them. After such a change, or after a
deliberate change of output, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and paste it into GOLDEN, GOLDEN_WIDE, GOLDEN_SPLITS, GOLDEN_CLI and
GOLDEN_SWEEP.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

from ckkslt import ckks, cli, linear, rns
from ckkslt import costmodel as cm
from ckkslt import datapath as dp
from ckkslt import permutation as pm
from ckkslt.modarith import find_ntt_primes
from oracles import dump_schedule

N_LT = 64
N_WIDE = 16
N_SPLIT = 16
SPLITS = ((), (1, 16), (2, 8), (4, 4), (8, 2), (16, 1))  # () is diagonal
SWEEP_BUDGETS_MIB = (1, 4, 16, 64)
SCHEDULE_ROTATIONS = (1, 3, 77, 300, 511)

GOLDEN = {
    'keys:diagonal': 'f2f8d1bd388c8abe',
    'diagonals:diagonal': 'cd8417418f9d4a20',
    'ciphertext:diagonal': 'fc46e0042960e09a',
    'trace:diagonal': '38a0dfa734bdcdbb',
    'keys:bsgs': 'ca1e0128064ab941',
    'diagonals:bsgs': 'a318f34136ebc309',
    'ciphertext:bsgs': '8402153ad36bd784',
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

GOLDEN_WIDE = {
    '54-bit keys:diagonal': '6943cd1052c0cd1d',
    '54-bit diagonals:diagonal': '1913fbdd01b5e118',
    '54-bit ciphertext:diagonal': '50276e462a8da387',
    '54-bit trace:diagonal': '16e630de01412310',
    '54-bit keys:bsgs': '68556bb02c92c8ce',
    '54-bit diagonals:bsgs': '5a6ea2a6a6da481c',
    '54-bit ciphertext:bsgs': 'a07d2b2d9c54de3d',
    '54-bit trace:bsgs': 'ce57c1b5cccc223b',
    '54-bit keys:dh-bsgs': '40d90dcd6a69b6d9',
    '54-bit diagonals:dh-bsgs': '48aed1bc7ebc7039',
    '54-bit ciphertext:dh-bsgs': '4f52e9b563e209aa',
    '54-bit trace:dh-bsgs': '0b696b42a778f20c',
    '54-bit keys:th-bsgs': '40864d91e9cfe100',
    '54-bit diagonals:th-bsgs': '48aed1bc7ebc7039',
    '54-bit ciphertext:th-bsgs': '3e0c9162cd04e3f1',
    '54-bit trace:th-bsgs': 'e4687f9c05745efe',
    '44q54p keys:diagonal': 'f29c6a152254c863',
    '44q54p diagonals:diagonal': 'af7465455099f94d',
    '44q54p ciphertext:diagonal': 'e98282cde4b0ca5f',
    '44q54p trace:diagonal': 'e7514e25dadd2e57',
    '44q54p keys:bsgs': 'c5a4702e3d83fff6',
    '44q54p diagonals:bsgs': '8a56e0cb1b7fb745',
    '44q54p ciphertext:bsgs': '040346baba168a86',
    '44q54p trace:bsgs': 'f74fc638f6feb3ef',
    '44q54p keys:dh-bsgs': 'b14124165071bdf5',
    '44q54p diagonals:dh-bsgs': '04d9ffd7ba0b63df',
    '44q54p ciphertext:dh-bsgs': '7dadff0702372933',
    '44q54p trace:dh-bsgs': '68333e7a8d22a77f',
    '44q54p keys:th-bsgs': 'cf3ed53138d9f9d7',
    '44q54p diagonals:th-bsgs': '04d9ffd7ba0b63df',
    '44q54p ciphertext:th-bsgs': '0aa25d0912730135',
    '44q54p trace:th-bsgs': '4b3514be1e5ece4b',
}

GOLDEN_SPLITS = {
    '44-bit diagonal ()': ('a78c914cd667f932', 'e7514e25dadd2e57'),
    '44-bit dh-bsgs (1, 16)': ('1ba7307c76f53235', '647f4199d0313e07'),
    '44-bit dh-bsgs (2, 8)': ('3eea198fac4bd1e2', '559c4d51f760a0a0'),
    '44-bit dh-bsgs (4, 4)': ('50dcd4466fc5677a', '68333e7a8d22a77f'),
    '44-bit dh-bsgs (8, 2)': ('687ac20419dd237a', '9c482442d03c5643'),
    '44-bit dh-bsgs (16, 1)': ('ba05a154bd0d45b1', 'e7514e25dadd2e57'),
    '54-bit diagonal ()': ('852c55e7ba467fcf', 'e7514e25dadd2e57'),
    '54-bit dh-bsgs (1, 16)': ('cdee03ea34911eb6', '647f4199d0313e07'),
    '54-bit dh-bsgs (2, 8)': ('50a143d7b5e3a00f', '559c4d51f760a0a0'),
    '54-bit dh-bsgs (4, 4)': ('175fcddafb2e5e5e', '68333e7a8d22a77f'),
    '54-bit dh-bsgs (8, 2)': ('4e80ca54369e7623', '9c482442d03c5643'),
    '54-bit dh-bsgs (16, 1)': ('38408cd25cc8bc63', 'e7514e25dadd2e57'),
}

GOLDEN_CLI = {
    'simulate --params set-a': '0:4ce3eba82eabfcec',
    'simulate --params set-b': '0:69ddfb8e9f5ebbc6',
    'simulate --params set-c': '0:a7c5b5fcbe53e2be',
    'validate --params set-b': '0:15d6ff03d4ac0c62',
    'analyze --params set-c --format csv': '0:77bdb1e72db9f9ac',
    'analyze --params set-a': '0:e3e224a6c3f7b71a',
    'demo --params toy-small --method all --n 16 --seed 3 --compare': '0:8f929f8104f7c125',
    'demo --params toy-small --method all --n 16 --seed 3 --compare --format json': '0:26fc234b7b2806d7',
}

GOLDEN_SWEEP = {
    'sweep:set-a': '423c8790e55af2dd',
    'sweep:set-b': '0da62cefdbb43fe6',
    'sweep:set-c': '7abb4cbc6e963d67',
    'schedule:N=1024 dp=2': '445c6d269803f2f3',
    'schedule:N=1024 dp=4': 'ab02e23be7aca0bc',
    'schedule:N=1024 dp=8': 'c7ce2822d6daf416',
    'schedule:N=1024 dp=16': '727c4d7612b22011',
    'schedule:N=4096 dp=2': 'ec73ca0693cde933',
    'schedule:N=4096 dp=4': 'd20c4c468d46d18b',
    'schedule:N=4096 dp=8': '913d0994ff7313b5',
    'schedule:N=4096 dp=16': 'eae8457ba479cdfb',
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
    for offset in sorted(keys):
        key = keys[offset]
        kind = "hoisted" if key.hoist_offset else "plain"
        h.text((kind, offset, key.hoist_offset, len(key.digits)))
        for k0, k1 in key.digits:
            h.poly(k0)
            h.poly(k1)
    return h.digest()


def _hash_diagonals(dm: linear.DiagMatrix) -> str:
    h = _Hasher()
    h.text((dm.plan.hoisted, dm.plan.n))
    for pt in map(dm.diagonal, range(dm.plan.n)):
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


def _lt_hashes(params, n: int, factors: tuple, th_factors: tuple) -> dict:
    """Keys, packed diagonals, output ciphertext and trace of every method."""
    plans = {
        "diagonal": linear.LtPlan(linear.LtMethod.DIAGONAL, n),
        "bsgs": linear.LtPlan(linear.LtMethod.BSGS, n, factors),
        "dh-bsgs": linear.LtPlan(linear.LtMethod.DH_BSGS, n, factors),
        "th-bsgs": linear.LtPlan(linear.LtMethod.TH_BSGS, n, th_factors),
    }
    rng = np.random.default_rng(20261018)
    sk, pk = ckks.keygen(params, rng)
    f_matrix = rng.uniform(-1, 1, (n, n))
    v = rng.uniform(-1, 1, n)
    ct = ckks.encrypt(ckks.encode(np.tile(v, params.slots // n), params), pk, params, rng)
    out = {}
    for name, plan in plans.items():
        keys = linear.generate_lt_keys(sk, plan, params, rng)
        dm = linear.diagonalize(f_matrix, plan, params)
        result, trace = linear.evaluate_lt(ct, dm, keys, params)
        out[f"keys:{name}"] = _hash_keys(keys)
        out[f"diagonals:{name}"] = _hash_diagonals(dm)
        out[f"ciphertext:{name}"] = _hash_ciphertext(result)
        out[f"trace:{name}"] = _hash_trace(trace)
    return out


def compute_hashes() -> dict:
    params = ckks.CkksParams.make(ring_dim=2**10, levels=5, alpha=5, prime_bits=44)
    out = _lt_hashes(params, N_LT, (8, 8), (4, 4, 4))
    for set_name in sorted(cm.REFERENCE_CONFIGS):
        shape, factors, cfg = cm.reference_config(set_name)
        report = dp.report_json(shape, factors, cfg, dp.simulate(shape, factors, cfg))
        out[f"simulate:{set_name}"] = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
    return out


def compute_wide_hashes() -> dict:
    # GOLDEN covers 44-bit rows only; these shapes take the big-int path:
    # all 54-bit with beta=3, and 44-bit Q under 54-bit P (mixed-width PQ)
    all_wide = ckks.CkksParams.make(ring_dim=2**9, levels=3, alpha=1, prime_bits=54)
    primes_q = find_ntt_primes(44, 2**9, 3)
    primes_p = find_ntt_primes(54, 2**9, 2)
    mixed = ckks.CkksParams(2**9, rns.RnsBasis(primes_q, primes_p), float(2**36))
    out = {}
    for shape, params in (("54-bit", all_wide), ("44q54p", mixed)):
        hashes = _lt_hashes(params, N_WIDE, (4, 4), (2, 2, 4))
        out.update({f"{shape} {name}": value for name, value in hashes.items()})
    return out


def compute_split_hashes() -> dict:
    out = {}
    for bits in (44, 54):
        params = ckks.CkksParams.make(ring_dim=2**7, levels=3, alpha=2, prime_bits=bits)
        rng = np.random.default_rng(20261019)
        sk, pk = ckks.keygen(params, rng)
        f_matrix = rng.uniform(-1, 1, (N_SPLIT, N_SPLIT))
        v = rng.uniform(-1, 1, N_SPLIT)
        ct = ckks.encrypt(ckks.encode(np.tile(v, params.slots // N_SPLIT), params),
                          pk, params, rng)
        for factors in SPLITS:
            method = linear.LtMethod.DH_BSGS if factors else linear.LtMethod.DIAGONAL
            plan = linear.LtPlan(method, N_SPLIT, factors)
            keys = linear.generate_lt_keys(sk, plan, params, rng)
            dm = linear.diagonalize(f_matrix, plan, params)
            result, trace = linear.evaluate_lt(ct, dm, keys, params)
            name = f"{bits}-bit {method.value} {factors}"
            out[name] = (_hash_ciphertext(result), _hash_trace(trace))
    return out


def _report_hash(shape, factors, cfg) -> str:
    sim = dp.simulate(shape, factors, cfg)
    report = dp.report_json(shape, factors, cfg, sim)
    report["cwise_mult_limbs"] = sim.trace.cwise_mult_limbs
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]


def compute_sweep_hashes() -> dict:
    out = {}
    for set_name in sorted(cm.REFERENCE_CONFIGS):
        shape, _, ref_cfg = cm.reference_config(set_name)
        h = _Hasher()
        for factors in cm.pareto_factorizations("th-bsgs", shape):
            for mib in SWEEP_BUDGETS_MIB:
                try:
                    cfg = cm.search_parallelism(shape, factors, mib << 20, dp=ref_cfg.dp)
                except cm.Infeasible:
                    h.text((factors, mib, None))
                    continue
                h.text((factors, mib, _report_hash(shape, factors, cfg)))
        out[f"sweep:{set_name}"] = h.digest()
    for log_n in (10, 12):
        n = 2**log_n
        for dp_val in (2, 4, 8, 16):
            layout = pm.BankLayout.from_storage(np.arange(n, dtype=np.uint64), dp_val)
            h = _Hasher()
            for r in SCHEDULE_ROTATIONS:
                h.text(dump_schedule(pm.schedule(r, layout)))
            out[f"schedule:N={n} dp={dp_val}"] = h.digest()
    return out


def compute_cli_hashes() -> dict:
    out = {}
    for command in GOLDEN_CLI:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(command.split())
        out[command] = f"{code}:" + hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]
    return out


def test_outputs_match_golden_hashes():
    assert compute_hashes() == GOLDEN


def test_wide_moduli_outputs_match_golden_hashes():
    assert compute_wide_hashes() == GOLDEN_WIDE


def test_every_two_layer_split_matches_golden_hashes():
    assert compute_split_hashes() == GOLDEN_SPLITS


def test_cli_reports_match_golden_hashes():
    assert compute_cli_hashes() == GOLDEN_CLI


def test_sweep_reports_and_schedules_match_golden_hashes():
    assert compute_sweep_hashes() == GOLDEN_SWEEP


if __name__ == "__main__":
    for name, table in (("GOLDEN", compute_hashes()), ("GOLDEN_WIDE", compute_wide_hashes()),
                        ("GOLDEN_SPLITS", compute_split_hashes()),
                        ("GOLDEN_CLI", compute_cli_hashes()),
                        ("GOLDEN_SWEEP", compute_sweep_hashes())):
        print(f"{name} = {{")
        for key, value in table.items():
            print(f"    {key!r}: {value!r},")
        print("}")
