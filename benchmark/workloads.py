"""The benchmark's three workloads: set-up, seeded requests, and the
correctness gates every request must pass.

All three are closed loops with one caller in one thread. Each request
returns an ``Outcome``; a request with a non-empty ``problems`` list has
failed a gate.

* ``lt-eval``  server steady state: keys and the packed matrix exist;
  each request encrypts a fresh vector, crosses serialize, runs all four
  evaluators, crosses serialize again and decrypts. Packing does no work.
* ``lt-fresh`` criterion 2's trial: each request packs a new matrix for
  all four plans, then encrypts, evaluates and decrypts (no serialize).
* ``dse-sweep`` cost model, datapath simulator and permutation network
  over a fixed grid in a seeded order, almost no RNS arithmetic. A unit
  of work is one whole pass, so every run has the same request mix.

The datapath model has no hardware reference, so no simulated-versus-real
error is reported: its gates check the simulator against the closed
forms only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ckkslt import ckks, linear, ring, serialize
from ckkslt import costmodel as cm
from ckkslt import datapath as dpath
from ckkslt import permutation as pm
from ckkslt.modarith import find_ntt_primes

# acceptance shape: N=2^10, 5+5 limbs of 44 bits, beta=1, n=64
ACCEPT_PARAMS = dict(ring_dim=2**10, levels=5, alpha=5, prime_bits=44)
N_LT = 64
FACTORS = {"diagonal": (), "bsgs": (8, 8), "dh-bsgs": (8, 8), "th-bsgs": (4, 4, 4)}
METHODS = tuple(FACTORS)

# criterion 1 and 2 tolerances, unchanged
ERROR_TOL = 1e-3
AGREE_TOL = 1e-4

DSE_SETS = ("set-a", "set-b", "set-c")
DSE_BUDGETS_MIB = (1, 4, 16, 64)
PERM_LOG_N = (10, 12)
PERM_DP = (2, 4, 8, 16)
# 10 rotations make a pass 256 requests, so four passes already give the
# 1000 samples behind a p99 tail; with fewer the tail would fall to p98,
# which lies in a much cheaper class of design points
PERM_ROTATIONS = 10
PERM_PRIME_BITS = 30

# seed-stream tags, so each kind of input has its own generator
_KEYS, _MATRIX, _EVAL_REQ, _FRESH_REQ, _GRID = range(5)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    eval_s: dict[str, float] = field(default_factory=dict)
    traces: dict[str, linear.OpTrace] = field(default_factory=dict)
    pack_s: float | None = None
    precision_bits: float | None = None
    feasible: bool | None = None
    offchip_limbs: int = 0
    simulate_s: float = 0.0
    moves: int = 0
    occupancy: float | None = None
    permute_s: float = 0.0


def model_shape() -> cm.HeParams:
    p = ACCEPT_PARAMS
    return cm.HeParams(p["ring_dim"], p["levels"], p["alpha"], p["prime_bits"], n=N_LT)


def model_reports() -> dict[str, cm.CostReport]:
    shape = model_shape()
    return {m: cm.complexity(m, shape, FACTORS[m]) for m in METHODS}


# ---------------------------------------------------------------------------
# lt-eval and lt-fresh


@dataclass
class LtContext:
    seed: int
    params: ckks.CkksParams
    sk: ckks.SecretKey
    pk: ckks.PublicKey
    plans: dict[str, linear.LtPlan]
    keys: dict[str, linear.RotationKeys]
    model: dict[str, cm.CostReport]
    offsets: dict[str, set[int]]
    f_matrix: np.ndarray | None = None
    packed: dict[str, linear.DiagMatrix] | None = None

    @property
    def reps(self) -> int:
        return self.params.slots // N_LT


def _plan(method: str) -> linear.LtPlan:
    return linear.LtPlan(linear.LtMethod(method), N_LT, FACTORS[method])


def lt_setup(seed: int, pack: bool) -> LtContext:
    """Parameters, keys and rotation keys for all four plans; with
    ``pack`` also one seeded matrix packed for every plan."""
    params = ckks.CkksParams.make(**ACCEPT_PARAMS)
    rng = np.random.default_rng([seed, _KEYS])
    sk, pk = ckks.keygen(params, rng)
    plans = {m: _plan(m) for m in METHODS}
    keys = {m: linear.generate_lt_keys(sk, plan, params, rng) for m, plan in plans.items()}
    offsets = {m: set(linear.required_offsets(plan)[0]) for m, plan in plans.items()}
    ctx = LtContext(seed, params, sk, pk, plans, keys, model_reports(), offsets)
    if pack:
        ctx.f_matrix = np.random.default_rng([seed, _MATRIX]).uniform(-1, 1, (N_LT, N_LT))
        ctx.packed = {m: linear.diagonalize(ctx.f_matrix, plan, params)
                      for m, plan in plans.items()}
    return ctx


def _evaluate_all(ctx: LtContext, ct, packed, out: Outcome, roundtrip: bool,
                  tamper=None) -> dict[str, np.ndarray]:
    decoded = {}
    for m in METHODS:
        t0 = time.perf_counter()
        res, trace = linear.evaluate_lt(ct, packed[m], ctx.keys[m], ctx.params)
        out.eval_s[m] = time.perf_counter() - t0
        out.traces[m] = trace
        if tamper is not None:
            tamper(m, res)
        if roundtrip:
            res = serialize.load(serialize.save_ciphertext(res))
        decoded[m] = ckks.decode(ckks.decrypt(res, ctx.sk), ctx.params)
    return decoded


def lt_gates(ctx: LtContext, decoded: dict[str, np.ndarray], expect: np.ndarray,
             out: Outcome):
    """Criterion 1/2 tolerances, model operation counts and key offsets."""
    errors = {}
    for m, vec in decoded.items():
        errors[m] = float(np.max(np.abs(vec - expect)))
        if not errors[m] < ERROR_TOL:
            out.problems.append(f"{m}: error {errors[m]:.3e} not < {ERROR_TOL}")
    names = sorted(decoded)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diff = float(np.max(np.abs(decoded[a] - decoded[b])))
            if not diff < AGREE_TOL:
                out.problems.append(f"{a}|{b}: disagree by {diff:.3e}")
    for m, trace in out.traces.items():
        want = ctx.model[m]
        if (trace.decompose, trace.moddown) != (want.decompose, want.moddown):
            out.problems.append(
                f"{m}: Decompose/ModDown {trace.decompose}/{trace.moddown} "
                f"!= model {want.decompose}/{want.moddown}")
        if trace.key_offsets != ctx.offsets[m]:
            out.problems.append(f"{m}: key offsets differ from required_offsets")
    worst = max(errors.values())
    out.precision_bits = -math.log2(max(worst, np.finfo(np.float64).tiny))


def _encrypt(ctx: LtContext, v: np.ndarray, rng: np.random.Generator):
    tiled = np.tile(v, ctx.reps)
    return ckks.encrypt(ckks.encode(tiled, ctx.params), ctx.pk, ctx.params, rng)


def lt_eval_request(ctx: LtContext, k: int, tamper=None) -> Outcome:
    rng = np.random.default_rng([ctx.seed, _EVAL_REQ, k])
    v = rng.uniform(-1, 1, N_LT)
    out = Outcome()
    ct = serialize.load(serialize.save_ciphertext(_encrypt(ctx, v, rng)))
    decoded = _evaluate_all(ctx, ct, ctx.packed, out, roundtrip=True, tamper=tamper)
    lt_gates(ctx, decoded, np.tile(ctx.f_matrix @ v, ctx.reps), out)
    return out


def lt_fresh_request(ctx: LtContext, k: int, tamper=None) -> Outcome:
    rng = np.random.default_rng([ctx.seed, _FRESH_REQ, k])
    f_matrix = rng.uniform(-1, 1, (N_LT, N_LT))
    v = rng.uniform(-1, 1, N_LT)
    out = Outcome()
    t0 = time.perf_counter()
    packed = {m: linear.diagonalize(f_matrix, plan, ctx.params)
              for m, plan in ctx.plans.items()}
    out.pack_s = time.perf_counter() - t0
    ct = _encrypt(ctx, v, rng)
    decoded = _evaluate_all(ctx, ct, packed, out, roundtrip=False, tamper=tamper)
    lt_gates(ctx, decoded, np.tile(f_matrix @ v, ctx.reps), out)
    return out


# ---------------------------------------------------------------------------
# dse-sweep


@dataclass(frozen=True)
class DesignPoint:
    set_name: str
    factors: tuple[int, int, int]
    budget_bytes: int
    dp: int


@dataclass(frozen=True)
class PermutationCase:
    poly: ring.Poly
    dp: int
    r: int


@dataclass
class DseContext:
    grid: list  # DesignPoint | PermutationCase, in the seeded pass order


def dse_setup(seed: int) -> DseContext:
    """The fixed grid, shuffled by the seed; rotations are seeded too."""
    rng = np.random.default_rng([seed, _GRID])
    grid: list = []
    for set_name in DSE_SETS:
        shape = cm.NAMED_SETS[set_name]
        dp = cm.REFERENCE_CONFIGS[set_name][3]
        for factors in cm.pareto_factorizations("th-bsgs", shape):
            grid += [DesignPoint(set_name, factors, mib << 20, dp) for mib in DSE_BUDGETS_MIB]
    for log_n in PERM_LOG_N:
        n = 2**log_n
        modulus = find_ntt_primes(PERM_PRIME_BITS, n, 1)[0]
        poly = ring.random_poly(modulus, rng, ring.Domain.NTT)
        for dp in PERM_DP:
            rotations = rng.integers(1, n // 2, PERM_ROTATIONS)
            grid += [PermutationCase(poly, dp, int(r)) for r in rotations]
    order = rng.permutation(len(grid))
    return DseContext([grid[i] for i in order])


def design_point_request(point: DesignPoint, tamper=None) -> Outcome:
    out = Outcome()
    shape = cm.NAMED_SETS[point.set_name]
    budget_limbs = point.budget_bytes // shape.limb_bytes
    try:
        cfg = cm.search_parallelism(shape, point.factors, point.budget_bytes, dp=point.dp)
    except cm.Infeasible:
        out.feasible = False
        floor = cm.max_peak_limbs(shape, point.factors, cm.ParallelismConfig(dp=point.dp))
        if floor <= budget_limbs:
            out.problems.append(f"{point}: Infeasible although the minimal "
                                f"configuration fits ({floor} <= {budget_limbs} limbs)")
        return out
    out.feasible = True
    t0 = time.perf_counter()
    sim = dpath.simulate(shape, point.factors, cfg)
    out.simulate_s = time.perf_counter() - t0
    if tamper is not None:
        tamper("design-point", sim)
    out.offchip_limbs = sum(sim.meter.totals().values())
    envelope = cm.peak_onchip(shape, point.factors, cfg)
    if max(envelope.values()) > budget_limbs:
        out.problems.append(f"{point}: chosen configuration exceeds the budget")
    over = [p for p in envelope if sim.meter.onchip_peak[p] > envelope[p]]
    if over:
        out.problems.append(f"{point}: on-chip peak above envelope in phases {over}")
    rows = dpath.validate_against_model(shape, point.factors, cfg)
    unexplained = [(r["phase"], r["category"]) for r in rows if not r["explained"]]
    if unexplained:
        out.problems.append(f"{point}: unexplained cells {unexplained}")
    return out


def permutation_request(case: PermutationCase, tamper=None) -> Outcome:
    out = Outcome()
    n = case.poly.n
    t0 = time.perf_counter()
    layout = pm.BankLayout.from_storage(case.poly.coeffs, case.dp)
    steps = pm.schedule(case.r, layout)
    mux = pm.mux_controls(case.r, layout)
    pm.apply_schedule(layout, steps)
    out.permute_s = time.perf_counter() - t0
    if tamper is not None:
        tamper("permutation", layout)
    out.moves = sum(len(step.moves) for step in steps)
    out.occupancy = out.moves / (len(steps) * case.dp)
    label = f"N={n} dp={case.dp} r={case.r}"
    if out.occupancy != 1.0 or len(steps) != n // case.dp:
        out.problems.append(f"{label}: {len(steps)} steps at occupancy {out.occupancy}")
    ref = ring.automorphism_eval(case.poly, ring.RotationIndex(case.r, n))
    if not np.array_equal(layout.to_storage(), ref.coeffs):
        out.problems.append(f"{label}: banked result differs from automorphism_eval")
    if not (mux == mux[0]).all() or sorted(mux[0].tolist()) != list(range(case.dp)):
        out.problems.append(f"{label}: mux controls are not one fixed bank permutation")
    return out


def dse_request(item, tamper=None) -> Outcome:
    if isinstance(item, DesignPoint):
        return design_point_request(item, tamper)
    return permutation_request(item, tamper)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    setup: object      # seed -> context
    # (context, tamper) -> endless iterator of units. A unit is a list of
    # zero-argument requests; the clock is checked only between units.
    # tamper(label, result) may corrupt a result before its gate (tests).
    units: object


def _lt_units(request):
    def units(ctx: LtContext, tamper=None):
        k = 0
        while True:
            yield [lambda k=k: request(ctx, k, tamper)]
            k += 1
    return units


def _dse_units(ctx: DseContext, tamper=None):
    while True:
        yield [lambda item=item: dse_request(item, tamper) for item in ctx.grid]


WORKLOADS = {
    "lt-eval": Workload(lambda seed: lt_setup(seed, pack=True), _lt_units(lt_eval_request)),
    "lt-fresh": Workload(lambda seed: lt_setup(seed, pack=False), _lt_units(lt_fresh_request)),
    "dse-sweep": Workload(dse_setup, _dse_units),
}
