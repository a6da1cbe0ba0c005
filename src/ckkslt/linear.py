"""Encrypted linear-transform evaluators.

Four routes from ciphertext to F*v, trading rotation count against
switching-key storage:

* diagonal: one product per matrix diagonal, every rotation hoisted over
  a single shared digit decomposition.
* bsgs: two-layer baby-step giant-step split n = n1*n2 with unhoisted
  rotations: each decomposes its own ciphertext and ends in its own
  ModDown.
* dh-bsgs: the two-layer split with hoisting in both layers and the
  inner-layer ModDown delayed onto the accumulated sum.
* th-bsgs: a three-layer split n = n1*n2*n3 with hoisting across all
  layers; only the second baby layer pays per-index ModDown/Decompose,
  so rotation overhead scales with n1 + n3 instead of n2.

Each plan carries its layers (n1, n2, n3) from ``costmodel.plan_layers``:
diagonal is (1, n, 1) and a two-layer split (a, b) is (1, a, b), so key
offsets and diagonal pre-rotation follow one stride rule, and the three
hoisted routes are one algorithm on different layers. Its one
implementation is the six-phase walk in ``datapath.simulate``, which
``lt_hoisted`` runs; ``lt_bsgs`` rotates over Q without hoisting. Every
route rotates through ``ckks.hoisted_rotation`` with the same keys, one
per offset, twisted for it.

Every evaluator records an operation trace (Decompose / ModDown /
coefficient-wise limb multiplies / key offsets touched) that the cost
model cross-checks.

Zero-offset rotations are identities and never consume a key or a
decomposition; the traces reflect that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .ckks import (
    Ciphertext,
    CkksParams,
    MissingKey,
    Plaintext,
    SecretKey,
    add_ct,
    decode,
    decrypt,
    encode,
    encode_rows,
    encrypt,
    keygen,
    pt_ct_dot,
    real_array,
    rescale_ct,
    rotate_many,
    rotation_keygen,
)
from .costmodel import BadFactors, HeParams, ParallelismConfig, knob_extents, plan_layers
from .datapath import ComputeContext, OpTrace, PlanMismatch, simulate
from .ring import (
    BasisContext,
    Domain,
    RotationIndex,
    automorphism_block,
    ntt_subring,
    spread,
    subring_gap,
)
from .rns import RnsPoly, rns_residues


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
    layers: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = plan_layers(self.method.value, self.n, self.factors)
        object.__setattr__(self, "layers", layers)

    @property
    def hoisted(self) -> bool:
        """Whether the layers share digit decompositions and accumulate over
        PQ, with diagonals packed over PQ. Only plain BSGS decomposes per
        rotation, moves down at once and multiplies over Q."""
        return self.method != LtMethod.BSGS


@dataclass
class DiagMatrix:
    """A plan's packed diagonals, held in the subring. Diagonal i, pre-rotated,
    is a polynomial B_i(X^g) in NTT form, whose N values are B_i's N/g values
    each repeated g times; ``stack`` holds only those, one read-only
    (n, L, N/g) stack on the plan's common gap g, and :meth:`diagonal` spreads
    one to the dense plaintext a product reads."""

    plan: LtPlan
    stack: np.ndarray  # (n, L, N/g); row i holds the (pre-rotated) i-th diagonal
    gap: int
    context: BasisContext
    scale: float

    def diagonal(self, i: int) -> Plaintext:
        """Diagonal i as an NTT-form (L, N) plaintext, bit for bit the full-length
        transform; a view of the store when the gap is 1."""
        return Plaintext(RnsPoly(spread(self.stack[i], self.gap), self.context, Domain.NTT),
                         self.scale)


class RotationKeys(dict):
    """Switching keys by rotation offset, each twisted for its offset
    (``SwitchingKey.hoist_offset``); a rotation handed a key for another
    offset raises ``MissingKey``."""

    def __missing__(self, offset: int):
        raise MissingKey(f"no key for rotation offset {offset}")


def required_offsets(plan: LtPlan) -> tuple[list[int], bool]:
    """Rotation offsets a plan consumes, layer by layer at strides
    (1, n1, n1*n2), and ``plan.hoisted``; the keys do not depend on it."""
    n1, n2, n3 = plan.layers
    offs = [stride * k for stride, count in ((1, n1), (n1, n2), (n1 * n2, n3))
            for k in range(1, count)]
    return offs, plan.hoisted


def generate_lt_keys(sk: SecretKey, plan: LtPlan, params: CkksParams,
                     rng: np.random.Generator) -> RotationKeys:
    offsets, _ = required_offsets(plan)
    return RotationKeys((off, rotation_keygen(sk, off, params, rng)) for off in offsets)


# ---------------------------------------------------------------------------
# diagonal packing


def diagonalize(f_matrix: np.ndarray, plan: LtPlan, params: CkksParams) -> DiagMatrix:
    """Pack the matrix diagonals, tiled across the slots and pre-rotated.

    Diagonal i at slot t holds F[t mod n, (t+i) mod n]. Hoisted plans
    accumulate over the raised modulus, so their diagonals are encoded
    over PQ; plain BSGS multiplies over Q.

    The diagonals are packed as one batch in the subring, a giant block of
    n1*n2 diagonals at a time: the block's slot vectors are embedded as a stack
    (``encode_rows``), and a tiled diagonal lies in Z[X^g] with g = N/2n, so
    only the coefficients on the block's common gap are reduced into the basis,
    as one (B, L, N/g) stack. Past the first block that stack is pre-rotated by
    the block's giant-step offset in one ``automorphism_block`` call, and the
    stacks of all blocks take one subring transform (``ntt_subring``), whose
    (n, L, N/g) result the matrix keeps unspread: n*L*(N/g) words, g times
    fewer than the dense diagonals.

    Complex or non-numeric entries raise ``NotReal`` before any FFT.
    """
    f_matrix = real_array(f_matrix)
    n = plan.n
    if f_matrix.shape != (n, n):
        raise PlanMismatch(f"matrix shape {f_matrix.shape} != ({n}, {n})")
    if n > params.slots:
        raise DimensionTooLarge(f"n={n} exceeds {params.slots} slots")
    context = params.basis.pq_context if plan.hoisted else params.basis.q_context
    n1, n2, _ = plan.layers
    giant = n1 * n2  # diagonals are pre-rotated by their giant-step offset
    t = np.arange(n)
    rows = f_matrix[t, (t + t[:, None]) % n]  # row i is diagonal i

    def blocks():
        # one giant block's coefficients at a time, never a dense (L, N) block
        for start in range(0, n, giant):
            ints = encode_rows(np.tile(rows[start : start + giant], params.slots // n), params)
            gap = subring_gap(ints)
            stack = rns_residues(ints[:, ::gap], context)
            if start:
                stack = automorphism_block(
                    stack, context.q, RotationIndex(-start, params.ring_dim).g_r)
            yield gap, stack

    gap, stack = ntt_subring(blocks(), context)
    stack.flags.writeable = False  # diagonal() hands out views of it at gap 1
    return DiagMatrix(plan, stack, gap, context, params.scale)


# ---------------------------------------------------------------------------
# evaluators


def _rotate_traced(jobs, keys: RotationKeys, trace: OpTrace,
                   params: CkksParams) -> list[Ciphertext]:
    """Unhoisted rotations (own Decompose, key switch, automorphism, two
    ModDowns) of (ct, r) pairs with r != 0, trace-counted, run as one batch."""
    keyed = [(ct, r, keys[r]) for ct, r in jobs]
    for _, r, swk in keyed:
        trace.key_offsets.add(r)
        trace.decompose += 1
        trace.moddown += 2
        trace.cwise_mult_limbs += 2 * len(swk.digits) * (params.basis.level_count
                                                         + params.basis.alpha)
    return rotate_many(keyed, params)


def lt_bsgs(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
            params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Two-layer split with unhoisted rotations; products stay over Q. The baby
    steps rotate as one batch, and the giant steps as another once every
    inner sum is formed, each sum reduced once (``ckks.pt_ct_dot``)."""
    plan = dm.plan
    if plan.hoisted:
        raise PlanMismatch("plan is not bsgs")
    _, n1, n2 = plan.layers
    trace = OpTrace()
    q_limbs = params.basis.level_count
    baby = [ct, *_rotate_traced([(ct, i) for i in range(1, n1)], keys, trace, params)]
    inner = [pt_ct_dot((dm.diagonal(n1 * j + i), b) for i, b in enumerate(baby))
             for j in range(n2)]
    trace.cwise_mult_limbs += 2 * q_limbs * n1 * n2
    del baby  # freed before the giant steps' batch, where the evaluation peaks
    giant = _rotate_traced([(inner[j], n1 * j) for j in range(1, n2)], keys, trace, params)
    return rescale_ct(reduce(add_ct, giant, inner[0]), params), trace


def lt_hoisted(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
               params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    """Any hoisted plan, on its layers (n1, n2, n3).

    Inner offsets i < n1 each pay ModDown + Decompose so the middle layer
    can key-switch them; middle offsets n1*j reuse those digit sets; outer
    offsets n1*n2*k behave like giant steps with the ModDown delayed onto
    accumulated sums. The arithmetic is the six-phase datapath walk, where
    a compute batch is one stacked call: phases 2 and 5 run at their full
    extents (m2 = n1-1, m6 = n3), as their objects are resident anyway, and
    every other knob stays at 1 (phase 4 rotates as it reads). Degenerate
    layers collapse loops cleanly: dh-bsgs (a, b) runs as (1, a, b),
    diagonal as (1, n, 1), and th-bsgs with n3 = 1 matches dh-bsgs
    (n1, n2) within the approximation error.
    """
    shape = HeParams(params.ring_dim, params.basis.level_count, params.basis.alpha,
                     n=dm.plan.n)
    extents = dict(knob_extents(dm.plan.layers, shape.pq_limbs))
    sim = simulate(shape, dm.plan.layers, ParallelismConfig(m2=extents["m2"], m6=extents["m6"]),
                   ComputeContext(params, ct, dm, keys))
    return sim.ciphertext, sim.trace


def evaluate_lt(ct: Ciphertext, dm: DiagMatrix, keys: RotationKeys,
                params: CkksParams) -> tuple[Ciphertext, OpTrace]:
    evaluator = lt_hoisted if dm.plan.hoisted else lt_bsgs
    return evaluator(ct, dm, keys, params)


def lt_equivalence_check(f_matrix: np.ndarray, v: np.ndarray,
                         params: CkksParams, plans: list[LtPlan],
                         seed: int = 0) -> dict:
    """Run every plan on identical inputs and report pairwise differences."""
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
