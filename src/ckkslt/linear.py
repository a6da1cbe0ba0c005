"""Encrypted linear-transform evaluators.

Four routes from ciphertext to F*v, trading rotation count against
switching-key storage:

* diagonal: one product per matrix diagonal, every rotation hoisted over
  a single shared digit decomposition.
* bsgs: two-layer baby-step giant-step split n = n1*n2 with full
  (unhoisted) rotations.
* dh-bsgs: the two-layer split with hoisting in both layers and the
  inner-layer ModDown delayed onto the accumulated sum.
* th-bsgs: a three-layer split n = n1*n2*n3 with hoisting across all
  layers; only the second baby layer pays per-index ModDown/Decompose,
  so rotation overhead scales with n1 + n3 instead of n2.

Every evaluator records an operation trace (Decompose / ModDown /
coefficient-wise limb multiplies / key offsets touched) that the cost
model and the datapath simulator cross-check.

Zero-offset rotations are identities and never consume a key or a
decomposition; the traces reflect that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .ckks import (
    Ciphertext,
    CkksParams,
    MissingKey,
    Plaintext,
    SecretKey,
    SwitchingKey,
    add_ct,
    decode,
    decrypt,
    encode,
    hoist_digits,
    hoisted_rotation,
    moddown_ntt,
    pt_ct_mult,
    raise_to_pq,
    rescale_ct,
    rns_add,
    rotate,
    rotation_keygen,
)
from .ring import RotationIndex, automorphism_coef, ntt, pointwise_mul
from .rns import RnsPoly


class PlanMismatch(ValueError):
    """Plan factors do not fit the method or the diagonal matrix."""


class BadFactors(ValueError):
    """Factorization does not multiply to the transform dimension."""


class DimensionTooLarge(ValueError):
    """Matrix dimension exceeds the slot count."""


class LtMethod(enum.Enum):
    DIAGONAL = "diagonal"
    BSGS = "bsgs"
    DH_BSGS = "dh-bsgs"
    TH_BSGS = "th-bsgs"


@dataclass(frozen=True)
class LtPlan:
    method: LtMethod
    n: int
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise BadFactors("transform dimension must be a power of two")
        need = {
            LtMethod.DIAGONAL: 0,
            LtMethod.BSGS: 2,
            LtMethod.DH_BSGS: 2,
            LtMethod.TH_BSGS: 3,
        }[self.method]
        if len(self.factors) != need:
            raise BadFactors(f"{self.method.value} needs {need} factors")
        if self.factors and int(np.prod(self.factors)) != self.n:
            raise BadFactors(f"factors {self.factors} do not multiply to {self.n}")
        if any(f < 1 for f in self.factors):
            raise BadFactors("factors must be >= 1")


@dataclass
class OpTrace:
    decompose: int = 0
    moddown: int = 0
    cwise_mult_limbs: int = 0
    key_offsets: set = field(default_factory=set)


@dataclass
class DiagMatrix:
    plan: LtPlan
    diagonals: list[Plaintext]  # index i holds the (pre-rotated) i-th diagonal
    over_pq: bool


@dataclass
class RotationKeys:
    plain: dict[int, SwitchingKey] = field(default_factory=dict)
    hoisted: dict[int, SwitchingKey] = field(default_factory=dict)

    def get(self, offset: int, hoisted: bool) -> SwitchingKey:
        table = self.hoisted if hoisted else self.plain
        if offset not in table:
            kind = "hoisted" if hoisted else "plain"
            raise MissingKey(f"no {kind} key for rotation offset {offset}")
        return table[offset]


def required_offsets(plan: LtPlan) -> tuple[list[int], bool]:
    """Rotation offsets a plan consumes and whether it wants hoisted keys."""
    if plan.method == LtMethod.DIAGONAL:
        return list(range(1, plan.n)), True
    if plan.method in (LtMethod.BSGS, LtMethod.DH_BSGS):
        n1, n2 = plan.factors
        offs = list(range(1, n1)) + [n1 * j for j in range(1, n2)]
        return offs, plan.method == LtMethod.DH_BSGS
    n1, n2, n3 = plan.factors
    offs = (
        list(range(1, n1))
        + [n1 * j for j in range(1, n2)]
        + [n1 * n2 * k for k in range(1, n3)]
    )
    return offs, True


def generate_lt_keys(sk: SecretKey, plan: LtPlan, params: CkksParams,
                     rng: np.random.Generator) -> RotationKeys:
    offsets, hoisted = required_offsets(plan)
    keys = RotationKeys()
    for off in offsets:
        key = rotation_keygen(sk, off, params, rng, hoisted=hoisted)
        (keys.hoisted if hoisted else keys.plain)[off] = key
    return keys


# ---------------------------------------------------------------------------
# diagonal packing


def diagonalize(f_matrix: np.ndarray, plan: LtPlan, params: CkksParams) -> DiagMatrix:
    """Pack the matrix diagonals, tiled across the slots and pre-rotated.

    Diagonal i at slot t holds F[t mod n, (t+i) mod n]. Methods that
    accumulate over the raised modulus get their diagonals encoded over
    PQ; plain BSGS multiplies over Q.
    """
    f_matrix = np.asarray(f_matrix, dtype=np.float64)
    n = plan.n
    if f_matrix.shape != (n, n):
        raise PlanMismatch(f"matrix shape {f_matrix.shape} != ({n}, {n})")
    if n > params.slots:
        raise DimensionTooLarge(f"n={n} exceeds {params.slots} slots")
    reps = params.slots // n
    over_pq = plan.method != LtMethod.BSGS
    moduli = params.basis.pq_moduli if over_pq else params.basis.q_moduli
    half = params.ring_dim // 2
    diagonals = []
    for i in range(n):
        vec = np.array([f_matrix[t % n, (t + i) % n] for t in range(n)])
        tiled = np.tile(vec, reps)
        pt = encode(tiled, params, moduli=moduli)
        offset = _prerotation_offset(plan, i)
        poly = pt.poly
        if offset:
            poly = automorphism_coef(poly, RotationIndex((-offset) % half, params.ring_dim))
        diagonals.append(Plaintext(ntt(poly), pt.scale))
    return DiagMatrix(plan, diagonals, over_pq)


def _prerotation_offset(plan: LtPlan, i: int) -> int:
    if plan.method == LtMethod.DIAGONAL:
        return 0
    if plan.method in (LtMethod.BSGS, LtMethod.DH_BSGS):
        n1, _ = plan.factors
        return n1 * (i // n1)
    n1, n2, _ = plan.factors
    return n1 * n2 * (i // (n1 * n2))


# ---------------------------------------------------------------------------
# shared pieces


def _pq_limb_count(params: CkksParams) -> int:
    return params.basis.level_count + params.basis.alpha


def _mul_pair(f: Plaintext, pair: tuple[RnsPoly, RnsPoly], trace: OpTrace,
              limbs: int) -> tuple[RnsPoly, RnsPoly]:
    trace.cwise_mult_limbs += 2 * limbs
    return pointwise_mul(pair[0], f.poly), pointwise_mul(pair[1], f.poly)


def _dot(diagonals, pairs, trace: OpTrace, limbs: int):
    """sum_m diagonals[m] * pairs[m] over PQ; pairs may be a generator."""
    acc = None
    for f, pair in zip(diagonals, pairs):
        term = _mul_pair(f, pair, trace, limbs)
        acc = term if acc is None else _pair_add(acc, term)
    return acc


def _hoist_traced(c1: RnsPoly, trace: OpTrace, params: CkksParams):
    trace.decompose += 1
    return hoist_digits(c1, params.basis)


def _moddown_traced(p: RnsPoly, trace: OpTrace, params: CkksParams) -> RnsPoly:
    trace.moddown += 1
    return moddown_ntt(p, params.basis)


def _hoisted_rotate(a: RnsPoly, digits, offset: int, keys: RotationKeys, trace: OpTrace,
                    params: CkksParams) -> tuple[RnsPoly, RnsPoly]:
    swk = keys.get(offset, hoisted=True)
    trace.key_offsets.add(offset)
    trace.cwise_mult_limbs += 2 * len(swk.digits) * _pq_limb_count(params)
    return hoisted_rotation(a, digits, swk, RotationIndex(offset, params.ring_dim))


def _delayed_rotate(pair, offset: int, keys: RotationKeys, trace: OpTrace,
                    params: CkksParams) -> tuple[RnsPoly, RnsPoly]:
    """Giant step on an accumulated PQ pair: ModDown and Decompose its
    second component, then rotate with the hoisted key."""
    digits = _hoist_traced(_moddown_traced(pair[1], trace, params), trace, params)
    return _hoisted_rotate(pair[0], digits, offset, keys, trace, params)


def _pair_add(a, b):
    return rns_add(a[0], b[0]), rns_add(a[1], b[1])


def _finish(pair, scale: float, level: int, trace: OpTrace,
            params: CkksParams) -> Ciphertext:
    c0 = _moddown_traced(pair[0], trace, params)
    c1 = _moddown_traced(pair[1], trace, params)
    ct = Ciphertext(c0, c1, level, scale)
    return rescale_ct(ct, params)


# ---------------------------------------------------------------------------
# evaluators


def lt_diagonal(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
                params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Sum of rotated-ciphertext x diagonal products, all rotations hoisted."""
    plan = dm.plan
    if plan.method != LtMethod.DIAGONAL:
        raise PlanMismatch("plan is not diagonal")
    trace = OpTrace()
    digits = _hoist_traced(ct.c1, trace, params)
    a0 = raise_to_pq(ct.c0, params.basis)
    pairs = chain([(a0, raise_to_pq(ct.c1, params.basis))],
                  (_hoisted_rotate(a0, digits, i, keys, trace, params)
                   for i in range(1, plan.n)))
    acc = _dot(dm.diagonals, pairs, trace, _pq_limb_count(params))
    out = _finish(acc, ct.scale * dm.diagonals[0].scale, ct.level, trace, params)
    return out, trace


def _rotate_traced(ct: Ciphertext, r: int, keys: RotationKeys, trace: OpTrace,
                   params: CkksParams) -> Ciphertext:
    """Full rotation (automorphism + complete key switch), trace-counted."""
    if r == 0:
        return ct
    swk = keys.get(r, hoisted=False)
    trace.key_offsets.add(r)
    trace.decompose += 1
    trace.moddown += 2
    trace.cwise_mult_limbs += 2 * len(swk.digits) * _pq_limb_count(params)
    return rotate(ct, r, swk, params)


def lt_bsgs(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
            params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Two-layer split with full rotations; products stay over Q."""
    plan = dm.plan
    if plan.method != LtMethod.BSGS:
        raise PlanMismatch("plan is not bsgs")
    n1, n2 = plan.factors
    trace = OpTrace()
    q_limbs = params.basis.level_count
    baby = [ct]
    for i in range(1, n1):
        baby.append(_rotate_traced(ct, i, keys, trace, params))
    acc: Ciphertext | None = None
    for j in range(n2):
        inner: Ciphertext | None = None
        for i in range(n1):
            term = pt_ct_mult(dm.diagonals[n1 * j + i], baby[i])
            trace.cwise_mult_limbs += 2 * q_limbs
            inner = term if inner is None else add_ct(inner, term)
        rotated = _rotate_traced(inner, n1 * j, keys, trace, params)
        acc = rotated if acc is None else add_ct(acc, rotated)
    return rescale_ct(acc, params), trace


def lt_dh_bsgs(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
               params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Two-layer split, hoisted in both layers, inner ModDowns delayed.

    One decomposition serves every baby rotation; each giant step past
    j=0 pays one ModDown and one Decompose on the accumulated inner sum.
    """
    plan = dm.plan
    if plan.method != LtMethod.DH_BSGS:
        raise PlanMismatch("plan is not dh-bsgs")
    n1, n2 = plan.factors
    trace = OpTrace()
    limbs = _pq_limb_count(params)
    digits0 = _hoist_traced(ct.c1, trace, params)
    a0 = raise_to_pq(ct.c0, params.basis)
    baby = [(a0, raise_to_pq(ct.c1, params.basis))]
    baby += [_hoisted_rotate(a0, digits0, i, keys, trace, params) for i in range(1, n1)]
    acc = _dot(dm.diagonals[:n1], baby, trace, limbs)
    for j in range(1, n2):
        inner = _dot(dm.diagonals[n1 * j:n1 * (j + 1)], baby, trace, limbs)
        acc = _pair_add(acc, _delayed_rotate(inner, n1 * j, keys, trace, params))
    out = _finish(acc, ct.scale * dm.diagonals[0].scale, ct.level, trace, params)
    return out, trace


def lt_th_bsgs(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
               params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Three-layer split with hoisting across all layers.

    Layer structure: inner offsets i < n1 each pay ModDown + Decompose so
    the middle layer can key-switch them; middle offsets n1*j reuse those
    digit sets; outer offsets n1*n2*k behave like giant steps with the
    ModDown delayed onto accumulated sums. Degenerate factors collapse
    loops cleanly (n3 = 1 reduces to the double-hoisted route).
    """
    plan = dm.plan
    if plan.method != LtMethod.TH_BSGS:
        raise PlanMismatch("plan is not th-bsgs")
    n1, n2, n3 = plan.factors
    trace = OpTrace()
    limbs = _pq_limb_count(params)
    digit_sets = [_hoist_traced(ct.c1, trace, params)]
    a0 = raise_to_pq(ct.c0, params.basis)
    pairs = [(a0, raise_to_pq(ct.c1, params.basis))]
    for i in range(1, n1):
        pairs.append(_hoisted_rotate(a0, digit_sets[0], i, keys, trace, params))
        b_down = _moddown_traced(pairs[i][1], trace, params)
        digit_sets.append(_hoist_traced(b_down, trace, params))
    for j in range(1, n2):
        pairs += [_hoisted_rotate(pairs[i][0], digit_sets[i], n1 * j, keys, trace, params)
                  for i in range(n1)]
    acc = _dot(dm.diagonals, pairs, trace, limbs)
    for k in range(1, n3):
        base = n1 * n2 * k
        u = _dot(dm.diagonals[base:], pairs, trace, limbs)
        acc = _pair_add(acc, _delayed_rotate(u, base, keys, trace, params))
    out = _finish(acc, ct.scale * dm.diagonals[0].scale, ct.level, trace, params)
    return out, trace


_EVALUATORS = {
    LtMethod.DIAGONAL: lt_diagonal,
    LtMethod.BSGS: lt_bsgs,
    LtMethod.DH_BSGS: lt_dh_bsgs,
    LtMethod.TH_BSGS: lt_th_bsgs,
}


def evaluate_lt(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
                params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    return _EVALUATORS[dm.plan.method](ct, dm, keys, params)


def lt_equivalence_check(f_matrix: np.ndarray, v: np.ndarray,
                         params: CkksParams, plans: list[LtPlan],
                         seed: int = 0) -> dict:
    """Run every plan on identical inputs and report pairwise differences."""
    from .ckks import encrypt, keygen

    rng = np.random.default_rng(seed)
    sk, pk = keygen(params, rng)
    n = plans[0].n
    reps = params.slots // n
    tiled = np.tile(np.asarray(v, dtype=np.float64), reps)
    ct = encrypt(encode(tiled, params), pk, params, rng)
    expected = np.tile(f_matrix @ np.asarray(v), reps)
    outputs = {}
    traces = {}
    ciphertexts = {}
    for plan in plans:
        keys = generate_lt_keys(sk, plan, params, rng)
        dm = diagonalize(f_matrix, plan, params)
        out, trace = evaluate_lt(ct, dm, keys, params)
        outputs[plan.method.value] = decode(decrypt(out, sk), params)
        traces[plan.method.value] = trace
        ciphertexts[plan.method.value] = out
    report = {
        "errors": {
            name: float(np.max(np.abs(vec - expected)))
            for name, vec in outputs.items()
        },
        "pairwise": {},
        "traces": traces,
        "outputs": outputs,
        "ciphertexts": ciphertexts,
    }
    names = sorted(outputs)
    for x in range(len(names)):
        for y in range(x + 1, len(names)):
            diff = float(np.max(np.abs(outputs[names[x]] - outputs[names[y]])))
            report["pairwise"][f"{names[x]}|{names[y]}"] = diff
    return report
