"""Banked-memory realization of the NTT-domain automorphism.

An NTT-domain polynomial is spread across dp memory banks: bank f,
address n_f stores the evaluation-order value A_{bitrev(f*N/dp + n_f)}.
The automorphism moving the value at evaluation index y to index
(m*y + (m-1)/2) mod N has two structural properties this module
exploits and verifies:

* the destination bank depends only on the source bank, never on the
  address, so the per-step routing is a fixed dp-permutation; and
* viewed on odd residues t = 2*idx+1 mod 2N the map is multiplication
  by m, so every cycle has the same length ord_{2N}(m) and a
  displacement walk (write each in-flight value onto its target while
  reading the target's previous occupant) covers all N positions in
  exactly N/dp full-occupancy steps.

Direction convention: the ring-level rotation by r substitutes
x -> x^(5^r); expressed as "value at index idx moves to idx'", the index
multiplier is the inverse exponent, m = (5^r)^-1 mod 2N. target() and
schedule() take the rotation r and handle the inversion internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import check_dp
from .ring import RotationIndex, bitrev_table


class ScheduleViolation(ValueError):
    """A move schedule breaks the read-before-write step discipline."""


@dataclass
class BankLayout:
    ring_dim: int
    dp: int
    banks: np.ndarray  # shape (dp, N/dp)

    def __post_init__(self):
        n, dp = self.ring_dim, self.dp
        check_dp(dp, n)
        if self.banks.shape != (dp, n // dp):
            raise ValueError("bank array has the wrong shape")

    @classmethod
    def from_storage(cls, values: np.ndarray, dp: int) -> "BankLayout":
        """Split a bit-reversed-order NTT storage array into dp banks."""
        n = len(values)
        return cls(n, dp, values.reshape(dp, n // dp).copy())

    def to_storage(self) -> np.ndarray:
        return self.banks.reshape(-1).copy()


def perm_multiplier(r: int, ring_dim: int) -> int:
    """Odd index multiplier realizing rotation r in move-to form."""
    g_r = RotationIndex(r % (ring_dim // 2), ring_dim).g_r
    return pow(g_r, -1, 2 * ring_dim)


@dataclass(frozen=True)
class PermTarget:
    """Full decomposition of one coefficient move, §-by-§ fields exposed."""

    f: int
    n_f: int
    idx: int
    i_f: int
    j_f: int
    k_f: int
    t_f: int
    u_f: int
    v_f: int
    i_fp: int
    j_fp: int
    k_fp: int
    f_prime: int
    n_f_prime: int
    idx_prime: int


def source_index(f: int, n_f: int, layout: BankLayout) -> tuple[int, int, int, int]:
    """Evaluation index of (bank, address) plus its three-field split.

    idx = i_f*(N/dp) + j_f*dp + k_f with k_f = bitrev(f, log dp).
    """
    n, dp = layout.ring_dim, layout.dp
    if not (0 <= f < dp and 0 <= n_f < n // dp):
        raise ValueError("bank or address out of range")
    idx = int(bitrev_table(n)[f * (n // dp) + n_f])
    k_f = idx % dp
    rest = idx // dp
    j_f = rest % (n // (dp * dp))
    i_f = rest // (n // (dp * dp))
    assert k_f == bitrev_table(dp)[f]
    return idx, i_f, j_f, k_f


def target(f: int, n_f: int, r: int, layout: BankLayout) -> PermTarget:
    """Destination (bank, address) for the value at (f, n_f) under rotation r.

    Computed through the per-field decomposition of
    idx' = (m*idx + (m-1)/2) mod N, where t_f, u_f, v_f split
    m*k_f + (m-1)/2 and the middle-field carry propagates upward; the
    result is asserted against the direct index formula.
    """
    n, dp = layout.ring_dim, layout.dp
    m = perm_multiplier(r, n)
    idx, i_f, j_f, k_f = source_index(f, n_f, layout)
    mid = n // (dp * dp)
    base = m * k_f + (m - 1) // 2
    v_f = base % dp
    u_f = (base // dp) % mid
    t_f = base // (dp * mid)
    k_fp = v_f
    mid_total = m * j_f + u_f
    j_fp = mid_total % mid
    carry = mid_total // mid
    i_fp = (m * i_f + t_f + carry) % dp
    idx_prime = i_fp * (n // dp) + j_fp * dp + k_fp
    assert idx_prime == (m * idx + (m - 1) // 2) % n, "field split disagrees with direct formula"
    flat = int(bitrev_table(n)[idx_prime])
    f_prime = flat // (n // dp)
    n_f_prime = flat % (n // dp)
    assert f_prime == bitrev_table(dp)[k_fp]
    return PermTarget(f, n_f, idx, i_f, j_f, k_f, t_f, u_f, v_f,
                      i_fp, j_fp, k_fp, f_prime, n_f_prime, idx_prime)


def bank_map(r: int, layout: BankLayout) -> np.ndarray:
    """Destination bank per source bank; address-independent by construction."""
    m = perm_multiplier(r, layout.ring_dim)
    rev = bitrev_table(layout.dp)
    return rev[(m * rev + (m - 1) // 2) % layout.dp]  # k_f -> v_f, back to banks


@dataclass
class MoveStep:
    """One full-occupancy step: dp moves (src_bank, src_addr, dst_bank, dst_addr)."""

    moves: list[tuple[int, int, int, int]]


def _storage_permutation(r: int, n: int) -> np.ndarray:
    """dst[s] for each storage position s under the move-to convention."""
    m = perm_multiplier(r, n)
    rev = bitrev_table(n)
    idx = rev  # eval index of each storage slot
    idx_prime = (m * idx + (m - 1) // 2) % n
    return rev[idx_prime]


def schedule(r: int, layout: BankLayout) -> list[MoveStep]:
    """Displacement-walk schedule: N/dp steps, one read and one write per
    bank per step, at most dp values in flight.

    Lanes chase the permutation; when a lane's next position was already
    consumed (a chain closed onto an earlier start) it reopens at the
    lowest unvisited address of the bank it is currently serving.
    """
    n, dp = layout.ring_dim, layout.dp
    per_bank = n // dp
    dst_np = _storage_permutation(r, n)
    dst_flat = dst_np.tolist()
    # the move (src_bank, src_addr, dst_bank, dst_addr) out of each position
    move_of = list(zip(*(v.tolist() for v in np.divmod(np.arange(n), per_bank)
                                              + np.divmod(dst_np, per_bank))))
    visited = bytearray(n)
    next_free = [0] * dp  # per-bank cursor over unvisited addresses
    steps: list[MoveStep] = []

    def fresh(bank: int) -> int:
        a = next_free[bank]
        while a < per_bank and visited[bank * per_bank + a]:
            a += 1
        next_free[bank] = a
        if a >= per_bank:
            raise RuntimeError("bank exhausted early")  # cannot happen: reads stay balanced
        return a

    # lane state: current read position (flat); start with address 0 of each bank
    lanes = []
    for f in range(dp):
        pos = f * per_bank + fresh(f)
        visited[pos] = 1
        lanes.append(pos)
    seen = dp  # visited positions, so a closing chain knows whether any are left
    for _ in range(per_bank):
        moves = []
        new_lanes = []
        for pos in lanes:
            moves.append(move_of[pos])
            dst = dst_flat[pos]
            if visited[dst]:
                # chain closed: reopen in the bank this lane is writing to
                if seen == n:
                    continue
                bank = dst // per_bank
                dst = bank * per_bank + fresh(bank)
            visited[dst] = 1
            seen += 1
            new_lanes.append(dst)
        steps.append(MoveStep(moves))
        lanes = new_lanes
        if not lanes:
            break
    return steps


def apply_schedule(layout: BankLayout, steps: list[MoveStep]) -> None:
    """Execute in place, enforcing the read-before-write step discipline:
    within each step all dp reads land before any write; no position is
    read twice, written twice, or read after a write to it has landed (a
    write lands once its position has been read); every position is
    written; and no step holds more than dp writes waiting for a later
    read, so the walk needs no scratch buffer. A schedule that breaks a
    rule raises ``ScheduleViolation`` and leaves the banks untouched."""
    n, per_bank = layout.ring_dim, layout.ring_dim // layout.dp
    moves = np.array([m for step in steps for m in step.moves], dtype=np.int64).reshape(-1, 4)
    when = np.repeat(np.arange(len(steps)), [len(step.moves) for step in steps])
    src = moves[:, 0] * per_bank + moves[:, 1]
    dst = moves[:, 2] * per_bank + moves[:, 3]
    first_read = np.full(n, len(steps))
    first_write = np.full(n, len(steps))
    np.minimum.at(first_read, src, when)
    np.minimum.at(first_write, dst, when)
    landed = first_read <= first_write
    if (landed[src] & (when > first_write[src])).any():
        raise ScheduleViolation("read of an already-overwritten position")
    if np.bincount(src, minlength=n).max() > 1:
        raise ScheduleViolation("double read")
    if np.bincount(dst, minlength=n).max() > 1:
        raise ScheduleViolation("double write")
    if dst.size != n:
        raise ScheduleViolation("schedule did not cover every position")
    held = first_read[dst] > when  # lands only at a later step's read
    waiting = np.cumsum(np.bincount(when[held], minlength=len(steps) + 1)
                        - np.bincount(first_read[dst[held]], minlength=len(steps) + 1))
    if waiting.max() > layout.dp:
        raise ScheduleViolation("more than dp values in flight")
    # every read sees the value from before the schedule ran
    layout.banks[moves[:, 2], moves[:, 3]] = layout.banks[moves[:, 0], moves[:, 1]]


def apply_rotation_banked(layout: BankLayout, r: int) -> None:
    """Apply the full rotation to the banks via the move schedule."""
    apply_schedule(layout, schedule(r, layout))


def mux_controls(r: int, layout: BankLayout) -> np.ndarray:
    """Per-step dp-to-1 selector settings: entry [step, out_bank] names the
    source bank feeding that output bank. Constant across steps because the
    bank map is address-independent."""
    steps = schedule(r, layout)
    dp = layout.dp
    table = np.empty((len(steps), dp), dtype=np.int64)
    for s, step in enumerate(steps):
        for src_bank, _, dst_bank, _ in step.moves:
            table[s, dst_bank] = src_bank
    return table


def dump_schedule(steps: list[MoveStep]) -> str:
    lines = []
    for s, step in enumerate(steps):
        for sb, sa, db, da in step.moves:
            lines.append(f"{s}, {sb}, {sa}, {db}, {da}")
    return "\n".join(lines)
