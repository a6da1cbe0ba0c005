"""Event-counting simulator of the six-phase streaming datapath for the
hoisted linear transform on layers (n1, n2, n3).

The evaluation is partitioned into six phases; each phase streams its
inputs from an off-chip store, keeps working data in bounded on-chip
buffers, and writes its outputs back. The simulator walks the real loop
nests (key batches, diagonal chunks, accumulator spills) and meters
every logical transfer, attributing each to exactly one category:

    ntt            twiddle-table traffic (one limb-equivalent per modulus
                   per table load; transforms themselves are compute)
    lt_matrix      packed diagonal reads
    switching_key  rotation-key reads
    poly_read      polynomial reads
    poly_write     polynomial writes

Given live inputs (a ComputeContext), the same walk also executes the
arithmetic and returns the output ciphertext: this walk is the evaluator
of every hoisted plan (diagonal as (1, n, 1), dh-bsgs (a, b) as
(1, a, b), th-bsgs), and ``linear.lt_hoisted`` runs it at unit
parallelism. The operation trace (Decompose, ModDown, coefficient-wise
limb multiplies) is counted in both modes; key offsets are recorded only
where a key is actually fetched, so shape-only runs leave that set empty.

Metering happens once per loop nest, not once per object: each batch
iteration meters its whole batch, and the store is addressed by object
kind (``a``, ``b``, ``d``, ``u0``, ``u1``, ``acc``) and a contiguous
index range. Off-chip traffic is metered as events: no closed-form cell
enters it, so the comparison against the closed forms is a cross-check.
On-chip peaks are modeled, not walked: each phase that runs reports its
closed-form envelope (``peak_onchip``), and a phase whose loop never
runs reports 0.

Each object written to the off-chip store declares how many modeled
reads it gets, and the store frees its payload at the last one. A read
after the drop, or an object (named ``kind:index``) still live when the
walk ends, raises, so the walk's liveness is checked rather than assumed.

Modeling conventions that differ from the printed closed forms are
collected in WHITELIST with their exact deltas:

* phase 2 twiddle traffic batches by this phase's own parallelism (m2);
  the printed cell divides by m1.
* phase 1 also spills the initial digit set d0, which phase 3 re-reads
  (the printed phase-3 read already includes it; the printed phase-1
  write does not).
* phase 3 writes only the n2-1 rotated column groups it produces; the
  printed cell counts n2 groups (the unrotated group was written by
  phase 1 and is not copied through).
* phase 6 writes the final ciphertext after the top limb is dropped
  (2L limbs); the printed cell counts the pre-drop width 2(L+1).

Remaining conventions that the printed forms and the simulator share:
the accumulated pair from phase 4 streams through phase 5's round
machinery as round zero, and each batched round reloads one twiddle
table set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costmodel import (
    CATEGORIES,
    HeParams,
    ParallelismConfig,
    ceil_div,
    offchip_access,
    peak_onchip,
    validate_config,
)
from . import ckks as ck
from .linear import OpTrace, PlanMismatch
from .ring import BasisMismatch, RotationIndex


@dataclass
class MemoryMeter:
    offchip: dict = field(default_factory=lambda: {
        p: {c: 0 for c in CATEGORIES} for p in range(1, 7)
    })
    onchip_peak: dict = field(default_factory=lambda: {p: 0 for p in range(1, 7)})
    rounds: dict = field(default_factory=lambda: {p: 0 for p in range(1, 7)})

    def add(self, phase: int, category: str, limbs: int):
        self.offchip[phase][category] += limbs

    def tick(self, phase: int, rounds: int = 1):
        self.rounds[phase] += rounds

    def totals(self) -> dict:
        out = {c: 0 for c in CATEGORIES}
        for row in self.offchip.values():
            for c, v in row.items():
                out[c] += v
        return out


class OffchipStore:
    """Off-chip objects addressed by kind and index, each freed at its last
    declared read.

    ``write`` and ``read`` take one kind and a contiguous index range
    ``[start, stop)`` and meter the whole range at once as ``poly_write``
    or ``poly_read``; every object of a kind has the same size. ``write``
    declares how many modeled reads each object gets, and ``read`` counts
    them down and drops a payload at zero.
    A read whose range holds a dropped or never-written object raises
    before it meters anything, and ``live`` names (``kind:index``) what was
    written but not yet read out.
    """

    def __init__(self):
        # per kind: reads still due and payload slot per index; a spent
        # slot is reused when the index is written again (the phase-4
        # partials, the phase-5 accumulator)
        self._left: dict[str, list[int]] = {}
        self._payload: dict[str, list] = {}
        self._limbs: dict[str, int] = {}
        self._has_payloads = False  # a shape-only walk skips the freeing

    def write(self, meter: MemoryMeter, phase: int, kind: str, start: int, stop: int,
              limbs: int, payloads=None, reads: int = 1):
        count = stop - start
        if payloads is not None and len(payloads) != count:
            raise RuntimeError(f"{len(payloads)} payloads for {count} objects")
        meter.add(phase, "poly_write", count * limbs)
        self._has_payloads |= payloads is not None
        left = self._left.setdefault(kind, [])
        slots = self._payload.setdefault(kind, [])
        if len(left) < stop:
            left += [0] * (stop - len(left))
            slots += [None] * (stop - len(slots))
        left[start:stop] = [reads] * count
        slots[start:stop] = payloads if reads and payloads is not None else [None] * count
        self._limbs[kind] = limbs

    def read(self, meter: MemoryMeter, phase: int, kind: str, start: int, stop: int) -> list:
        left = self._left.get(kind, [])
        due = left[start:stop]
        if len(due) < stop - start or 0 in due:
            spent = next(i for i in range(start, stop) if i >= len(left) or not left[i])
            raise KeyError(f"off-chip object {kind}:{spent} is not live")
        meter.add(phase, "poly_read", (stop - start) * self._limbs[kind])
        slots = self._payload[kind]
        out = slots[start:stop]
        left[start:stop] = [n - 1 for n in due]
        if 1 in due and self._has_payloads:
            slots[start:stop] = [p if n > 1 else None for p, n in zip(out, due)]
        return out

    def live(self) -> list[str]:
        return sorted(f"{kind}:{i}" for kind, left in self._left.items() if any(left)
                      for i, n in enumerate(left) if n)


@dataclass
class SimResult:
    meter: MemoryMeter
    trace: OpTrace
    ciphertext: object = None


@dataclass
class ComputeContext:
    """Live arithmetic inputs; passing them makes ``simulate`` compute."""

    params_arith: object  # ckks.CkksParams
    ct: object            # ckks.Ciphertext, top level, NTT domain
    dm: object            # linear.DiagMatrix packed for a hoisted plan on these layers
    keys: object          # linear.RotationKeys of hoisted keys


def simulate(params: HeParams, factors, cfg: ParallelismConfig,
             inputs: ComputeContext | None = None) -> SimResult:
    """Run the six phases, metering every off-chip transfer.

    Without inputs the walk runs on shapes alone; with inputs it also
    performs the hoisted arithmetic and returns the output ciphertext.
    """
    n1, n2, n3 = validate_config(params, factors, cfg)
    beta = params.beta
    lp = params.levels
    limbs = params.pq_limbs
    meter = MemoryMeter()
    trace = OpTrace()
    store = OffchipStore()
    compute = inputs is not None
    if compute:
        ap = inputs.params_arith
        if (ap.ring_dim != params.ring_dim
                or ap.basis.level_count != params.levels
                or ap.basis.alpha != params.alpha):
            raise BasisMismatch("arithmetic parameters disagree with shape parameters")
        plan = inputs.dm.plan
        if not plan.hoisted or plan.layers != (n1, n2, n3):
            raise PlanMismatch(f"diagonals are packed for {plan.method.value} "
                               f"{plan.factors}, not hoisted layers {(n1, n2, n3)}")

    def rotate(a, digits, offset: int):
        """Hoisted rotation of (a, digits) by offset (compute mode only)."""
        trace.key_offsets.add(offset)
        return ck.hoisted_rotation(a, digits, inputs.keys[offset],
                                   RotationIndex(offset, ap.ring_dim))

    # a:i (i < n1) and d:i stream back once per phase-3 key batch; a:i is
    # read once more in phase 4, b:i (0 < i < n1) in phases 2 and 4
    key_batches = ceil_div(n2 - 1, cfg.m3)

    # ---- phase 1: initial decomposition and first-layer rotations --------
    meter.add(1, "poly_read", 2 * lp)  # the input ciphertext
    meter.add(1, "ntt", 2 * limbs)  # forward + inverse table sets, held all phase
    trace.decompose += 1
    a0 = b0 = digits0 = None  # one-payload lists in compute mode
    if compute:
        digits0 = [ck.hoist_digits(inputs.ct.c1, ap.basis)]
        a0 = [ck.raise_to_pq(inputs.ct.c0, ap.basis)]
        b0 = [ck.raise_to_pq(inputs.ct.c1, ap.basis)]
    store.write(meter, 1, "a", 0, 1, limbs, a0, reads=key_batches + 1)
    store.write(meter, 1, "b", 0, 1, limbs, b0)
    store.write(meter, 1, "d", 0, 1, beta * limbs, digits0, reads=key_batches)
    a_out = b_out = None
    for i0 in range(1, n1, cfg.m1):
        batch = range(i0, min(i0 + cfg.m1, n1))
        key_limbs = len(batch) * 2 * beta * limbs
        meter.add(1, "switching_key", key_limbs)
        trace.cwise_mult_limbs += key_limbs  # each key limb multiplies one digit limb
        meter.tick(1, ceil_div(limbs, cfg.l1))
        if compute:
            a_out, b_out = zip(*(rotate(a0[0], digits0[0], i) for i in batch))
        store.write(meter, 1, "a", batch.start, batch.stop, limbs, a_out,
                    reads=key_batches + 1)
        store.write(meter, 1, "b", batch.start, batch.stop, limbs, b_out, reads=2)
    # from here the store alone holds payloads, so each is freed at its last read
    a0 = b0 = digits0 = a_out = b_out = None

    # ---- phase 2: per-index ModDown + Decompose of the first layer -------
    d_out = None
    for i0 in range(1, n1, cfg.m2):
        batch = range(i0, min(i0 + cfg.m2, n1))
        meter.tick(2)
        meter.add(2, "ntt", limbs)  # twiddle reload per batch (actual: m2)
        b_in = store.read(meter, 2, "b", batch.start, batch.stop)
        trace.moddown += len(batch)
        trace.decompose += len(batch)
        if compute:
            d_out = [ck.hoist_digits(ck.moddown_ntt(b_i, ap.basis), ap.basis)
                     for b_i in b_in]
        store.write(meter, 2, "d", batch.start, batch.stop, beta * limbs, d_out,
                    reads=key_batches)
    b_in = d_out = None

    # ---- phase 3: second-layer rotations, keys cached per batch ----------
    for j0 in range(1, n2, cfg.m3):
        jbatch = range(j0, min(j0 + cfg.m3, n2))
        key_limbs = len(jbatch) * 2 * beta * limbs
        meter.add(3, "switching_key", key_limbs)
        trace.cwise_mult_limbs += n1 * key_limbs  # each cached key serves all n1 inputs
        meter.tick(3, ceil_div(n1, cfg.m4) * ceil_div(limbs, cfg.l3))
        # every (a_i, d_i) streams back once per key batch
        a_vals = store.read(meter, 3, "a", 0, n1)
        d_vals = store.read(meter, 3, "d", 0, n1)
        if compute:
            # a:m holds its rotation's operands (a_i, d_i, offset) and phase 4
            # rotates it as it reads it: the walk then holds n1 digit sets,
            # not n1*(n2-1) rotated pairs, so its memory does not grow with n2
            a_out = [(a_vals[i], d_vals[i], n1 * j) for j in jbatch for i in range(n1)]
        store.write(meter, 3, "a", n1 * j0, n1 * jbatch.stop, limbs, a_out)
        store.write(meter, 3, "b", n1 * j0, n1 * jbatch.stop, limbs)
    a_vals = d_vals = a_out = None

    # ---- phase 4: diagonal products into n3 accumulated pairs ------------
    meter.add(4, "ntt", limbs)  # one inverse table set for the final transforms
    total_m = n1 * n2
    u0_acc = u1_acc = None  # the n3 partial pairs, compute mode only
    if compute:
        u0_acc, u1_acc = [None] * n3, [None] * n3
    for m0 in range(0, total_m, cfg.m5):
        meter.tick(4)
        mbatch = range(m0, min(m0 + cfg.m5, total_m))
        a_in = store.read(meter, 4, "a", mbatch.start, mbatch.stop)
        b_in = store.read(meter, 4, "b", mbatch.start, mbatch.stop)
        meter.add(4, "lt_matrix", len(mbatch) * n3 * limbs)
        trace.cwise_mult_limbs += 2 * len(mbatch) * n3 * limbs
        if m0 > 0:
            store.read(meter, 4, "u0", 0, n3)
            store.read(meter, 4, "u1", 0, n3)
        if compute:
            pairs = [(a_m, b_m) if m < n1 else rotate(*a_m)
                     for m, a_m, b_m in zip(mbatch, a_in, b_in)]
            for k in range(n3):
                for m, (a_m, b_m) in zip(mbatch, pairs):
                    f = inputs.dm.diagonals[total_m * k + m].poly
                    t0, t1 = ck.pointwise_mul(a_m, f), ck.pointwise_mul(b_m, f)
                    if u0_acc[k] is not None:
                        t0, t1 = ck.rns_add(u0_acc[k], t0), ck.rns_add(u1_acc[k], t1)
                    u0_acc[k], u1_acc[k] = t0, t1
        store.write(meter, 4, "u0", 0, n3, limbs, u0_acc)
        store.write(meter, 4, "u1", 0, n3, limbs, u1_acc)
    a_in = b_in = pairs = u0_acc = u1_acc = a_m = b_m = t0 = t1 = None

    # ---- phase 5: outer-layer rotations with delayed ModDown -------------
    acc_pair = [None, None]
    for r0 in range(0, n3, cfg.m6):
        meter.tick(5)
        kbatch = range(r0, min(r0 + cfg.m6, n3))
        meter.add(5, "ntt", limbs)  # one table set per round
        if r0 != 0:
            acc_pair = store.read(meter, 5, "acc", 0, 2)
        u0s = store.read(meter, 5, "u0", kbatch.start, kbatch.stop)
        u1s = store.read(meter, 5, "u1", kbatch.start, kbatch.stop)
        rotated = len(kbatch) - (r0 == 0)  # outer index 0 seeds the accumulator
        meter.add(5, "switching_key", rotated * 2 * beta * limbs)
        trace.cwise_mult_limbs += rotated * 2 * beta * limbs
        trace.moddown += rotated
        trace.decompose += rotated
        if compute:
            for k, u0, u1 in zip(kbatch, u0s, u1s):
                if k == 0:
                    acc_pair = [u0, u1]
                    continue
                d = ck.hoist_digits(ck.moddown_ntt(u1, ap.basis), ap.basis)
                c0_add, c1_add = rotate(u0, d, total_m * k)
                acc_pair = [ck.rns_add(acc_pair[0], c0_add),
                            ck.rns_add(acc_pair[1], c1_add)]
        store.write(meter, 5, "acc", 0, 2, limbs, acc_pair if compute else None)

    # ---- phase 6: combined ModDown and rescale ----------------------------
    meter.tick(6)
    acc0, acc1 = store.read(meter, 6, "acc", 0, 2)
    meter.add(6, "ntt", limbs)
    trace.moddown += 2
    out_ct = None
    if compute:
        c0 = ck.moddown_ntt(acc0, ap.basis)
        c1 = ck.moddown_ntt(acc1, ap.basis)
        ct_full = ck.Ciphertext(c0, c1, inputs.ct.scale * inputs.dm.diagonals[0].scale)
        out_ct = ck.rescale_ct(ct_full, ap)
    meter.add(6, "poly_write", 2 * (lp - 1))  # the output ciphertext
    if store.live():
        raise RuntimeError(f"off-chip objects never read out: {store.live()}")
    # each loop nest's first batch is its whole knob (validate_config caps
    # every knob at its extent), so a phase that runs peaks at its envelope
    envelope = peak_onchip(params, factors, cfg)
    meter.onchip_peak = {p: envelope[p] if meter.rounds[p] else 0 for p in envelope}
    return SimResult(meter, trace, out_ct)


# ---------------------------------------------------------------------------
# validation against the closed forms


def _whitelist(params: HeParams, factors, cfg: ParallelismConfig) -> dict:
    """Cells where the honest event count deviates from the printed form,
    with the exact expected delta (simulated minus modeled)."""
    n1, n2, n3 = factors
    beta = params.beta
    limbs = params.pq_limbs
    return {
        (2, "ntt"): (
            (ceil_div(n1 - 1, cfg.m2) - ceil_div(n1 - 1, cfg.m1)) * limbs,
            "twiddle reloads batch by m2 (phase 2's own parallelism); "
            "the printed cell divides by m1",
        ),
        (1, "poly_write"): (
            beta * limbs,
            "the initial digit set spills off-chip for phase 3, whose "
            "printed read count already includes it",
        ),
        (3, "poly_write"): (
            -2 * n1 * limbs,
            "only the n2-1 rotated column groups are produced here; the "
            "unrotated group was written by phase 1",
        ),
        (6, "poly_write"): (
            -2,
            "final ciphertext is written after the top limb drops (2L "
            "limbs), the printed cell counts 2(L+1)",
        ),
    }


def validate_against_model(params: HeParams, factors, cfg: ParallelismConfig) -> list[dict]:
    """Per-cell comparison of simulated traffic against the closed forms."""
    sim = simulate(params, factors, cfg)
    model = offchip_access(params, factors, cfg)
    wl = _whitelist(params, factors, cfg)
    rows = []
    for phase in range(1, 7):
        for cat in CATEGORIES:
            simulated = sim.meter.offchip[phase][cat]
            modeled = model[phase][cat]
            delta = simulated - modeled
            entry = {
                "phase": phase,
                "category": cat,
                "model": modeled,
                "simulated": simulated,
                "delta": delta,
                "whitelisted": (phase, cat) in wl,
                "note": "",
                "explained": delta == 0,
            }
            if (phase, cat) in wl:
                expected_delta, note = wl[(phase, cat)]
                entry["note"] = note
                entry["explained"] = delta == expected_delta
            rows.append(entry)
    peaks = peak_onchip(params, factors, cfg)
    for phase in range(1, 7):
        rows.append({
            "phase": phase,
            "category": "onchip_peak",
            "model": peaks[phase],
            "simulated": sim.meter.onchip_peak[phase],
            "delta": sim.meter.onchip_peak[phase] - peaks[phase],
            "whitelisted": True,
            "note": "closed form is an upper envelope",
            "explained": sim.meter.onchip_peak[phase] <= peaks[phase],
        })
    return rows


def report_json(params: HeParams, factors, cfg: ParallelismConfig,
                sim: SimResult) -> dict:
    """Stable JSON schema: phases -> categories -> limbs, plus totals."""
    return {
        "params": {
            "ring_dim": params.ring_dim,
            "levels": params.levels,
            "alpha": params.alpha,
            "beta": params.beta,
            "word_bits": params.word_bits,
            "n": params.n,
            "factors": list(factors),
            "parallelism": {
                **{f"m{i+1}": v for i, v in enumerate(cfg.ms())},
                **{f"l{i+1}": v for i, v in enumerate(cfg.ls())},
                "dp": cfg.dp,
            },
        },
        "phases": {
            str(p): dict(sim.meter.offchip[p]) for p in range(1, 7)
        },
        "onchip_peak": {str(p): sim.meter.onchip_peak[p] for p in range(1, 7)},
        "rounds": {str(p): sim.meter.rounds[p] for p in range(1, 7)},
        "totals": sim.meter.totals(),
        "trace": {"decompose": sim.trace.decompose, "moddown": sim.trace.moddown},
    }
