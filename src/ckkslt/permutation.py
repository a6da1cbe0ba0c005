"""Banked-memory realization of the NTT-domain automorphism.

An NTT-domain polynomial is spread across dp memory banks: bank f,
address n_f stores the evaluation-order value A_{bitrev(f*N/dp + n_f)}.
The network routes the inverse of ``ring.eval_permutation``, the gather
index of ``automorphism_eval``: rotation r moves the value at evaluation
index y to (m*y + (m-1)/2) mod N, m = (5^r)^-1 mod 2N. That map has two
structural properties this module exploits:

* the destination bank depends only on the source bank, never on the
  address, so the per-step routing is a fixed dp-permutation;
  ``bank_map`` reads it at address 0 and tests check the other addresses;
* viewed on odd residues t = 2*idx+1 mod 2N the map is multiplication
  by m, so every cycle has the same length ord_{2N}(m) and a
  displacement walk (write each in-flight value onto its target while
  reading the target's previous occupant) covers all N positions in
  exactly N/dp full-occupancy steps.

``target`` returns one value's destination (bank, address) through the
per-field split of that formula, asserted against the direct formula.

A ``Schedule`` is one read-only (N/dp, dp, 4) int64 move array, built by
numpy from the source positions the walk records; its steps are (dp, 4)
views of that array, and ``apply_schedule`` and ``mux_controls`` read the
array itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import ConfigOutOfRange, check_dp
from .ring import BasisMismatch, RotationIndex, bitrev_table, eval_permutation


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
        if not hasattr(n, "__index__") or n & (n - 1) or self.banks.shape != (dp, n // dp):
            raise BasisMismatch(f"banks of shape {self.banks.shape} do not split N={n!r}")

    @classmethod
    def from_storage(cls, values: np.ndarray, dp: int) -> "BankLayout":
        """Split a bit-reversed-order NTT storage array into dp banks."""
        n = values.size
        # checked before the reshape, which would raise numpy's own error
        if values.ndim != 1 or n & (n - 1):
            raise BasisMismatch(f"storage of shape {values.shape} is not one NTT block")
        check_dp(dp, n)
        return cls(n, dp, values.reshape(dp, n // dp).copy())

    def to_storage(self) -> np.ndarray:
        return self.banks.reshape(-1).copy()


def _storage_permutation(r: int, n: int) -> np.ndarray:
    """dst[s] for each storage position s: the inverse of the gather index
    ``automorphism_eval`` applies for rotation r."""
    dst = np.empty(n, dtype=np.int64)
    dst[eval_permutation(n, RotationIndex(r, n).g_r)] = np.arange(n)
    return dst


def source_index(f: int, n_f: int, layout: BankLayout) -> tuple[int, int, int, int]:
    """Evaluation index of (bank, address) plus its three-field split.

    idx = i_f*(N/dp) + j_f*dp + k_f with k_f = bitrev(f, log dp).
    """
    n, dp = layout.ring_dim, layout.dp
    if not (0 <= f < dp and 0 <= n_f < n // dp):
        raise ConfigOutOfRange("bank or address out of range")
    idx = int(bitrev_table(n)[f * (n // dp) + n_f])
    k_f = idx % dp
    rest = idx // dp
    j_f = rest % (n // (dp * dp))
    i_f = rest // (n // (dp * dp))
    assert k_f == bitrev_table(dp)[f]
    return idx, i_f, j_f, k_f


def target(f: int, n_f: int, r: int, layout: BankLayout) -> tuple[int, int]:
    """Destination (bank, address) for the value at (f, n_f) under rotation r.

    Computed through the per-field decomposition of
    idx' = (m*idx + (m-1)/2) mod N, where t_f, u_f, v_f split
    m*k_f + (m-1)/2 and the middle-field carry propagates upward; the
    result is asserted against the direct index formula.
    """
    n, dp = layout.ring_dim, layout.dp
    m = pow(RotationIndex(r, n).g_r, -1, 2 * n)
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
    f_prime, n_f_prime = divmod(int(bitrev_table(n)[idx_prime]), n // dp)
    assert f_prime == bitrev_table(dp)[k_fp]
    return f_prime, n_f_prime


def bank_map(r: int, layout: BankLayout) -> np.ndarray:
    """Destination bank per source bank, read at each bank's address 0."""
    per_bank = layout.ring_dim // layout.dp
    return _storage_permutation(r, layout.ring_dim)[::per_bank] // per_bank


class Step:
    """One full-occupancy step: ``moves`` is a (dp, 4) view of its
    schedule's move array."""

    __slots__ = ("moves",)

    def __init__(self, moves: np.ndarray):
        self.moves = moves


@dataclass(frozen=True)
class Schedule:
    """A move schedule as one (steps, dp, 4) int64 array: row [s, lane] is
    the move (src_bank, src_addr, dst_bank, dst_addr) of that lane in step
    s. ``len`` counts steps and iterating yields each step as a view."""

    moves: np.ndarray

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return map(Step, self.moves)


def schedule(r: int, layout: BankLayout) -> Schedule:
    """Displacement-walk schedule: N/dp steps, one read and one write per
    bank per step, at most dp values in flight, returned read-only.

    Lanes chase the permutation; when a lane's next position was already
    consumed (a chain closed onto an earlier start) it reopens at the
    lowest unvisited address of the bank it is currently serving. The walk
    records each move's source position; the moves are built from those
    and their destinations once it is done.
    """
    n, dp = layout.ring_dim, layout.dp
    per_bank = n // dp
    dst_np = _storage_permutation(r, n)
    dst_flat = dst_np.tolist()
    visited = bytearray(n)
    next_free = [0] * dp  # per-bank cursor over unvisited addresses
    order: list[int] = []  # the source position of each move, in step order

    def fresh(bank: int) -> int:
        a = next_free[bank]
        while a < per_bank and visited[bank * per_bank + a]:
            a += 1
        next_free[bank] = a
        if a >= per_bank:
            raise RuntimeError("bank exhausted early")  # cannot happen: reads stay balanced
        return a

    # lane state: current read position (flat); start with address 0 of each bank
    lanes = list(range(0, n, per_bank))
    visited[::per_bank] = bytes([1]) * dp
    seen = dp  # visited positions, so a closing chain knows whether any are left
    for _ in range(per_bank):
        order += lanes
        new_lanes = []
        for pos in lanes:
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
        lanes = new_lanes
        if not lanes:
            break
    # no step holds more than dp moves, so N moves in at most N/dp steps
    # means every step moved dp values and the reshape below keeps steps whole
    if len(order) != n:
        raise RuntimeError(f"walk ended after {len(order)} of {n} moves")
    src = np.array(order, dtype=np.int64)
    moves = np.stack(np.divmod(src, per_bank) + np.divmod(dst_np[src], per_bank), axis=-1)
    moves = moves.reshape(per_bank, dp, 4)
    moves.flags.writeable = False
    return Schedule(moves)


def apply_schedule(layout: BankLayout, steps: Schedule) -> None:
    """Execute in place, enforcing the read-before-write step discipline:
    within each step all dp reads land before any write; no position is
    read twice, written twice, or read after a write to it has landed (a
    write lands once its position has been read); every position is
    written; and no step holds more than dp writes waiting for a later
    read, so the walk needs no scratch buffer. A schedule that breaks a
    rule, or whose moves are not a (steps, dp, 4) int64 array of banks and
    addresses inside the layout, raises ``ScheduleViolation`` and leaves
    the banks untouched."""
    n, dp = layout.ring_dim, layout.dp
    per_bank = n // dp
    moves = steps.moves
    if not isinstance(moves, np.ndarray) or moves.dtype != np.int64 \
            or moves.ndim != 3 or moves.shape[1:] != (dp, 4):
        raise ScheduleViolation(f"moves are not a (steps, {dp}, 4) int64 array")
    count = len(moves)
    moves = moves.reshape(-1, 4)
    if ((moves < 0) | (moves >= (dp, per_bank, dp, per_bank))).any():
        raise ScheduleViolation("move outside the layout")
    when = np.repeat(np.arange(count), dp)
    src = moves[:, 0] * per_bank + moves[:, 1]
    dst = moves[:, 2] * per_bank + moves[:, 3]
    first_read = np.full(n, count)
    first_write = np.full(n, count)
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
    waiting = np.cumsum(np.bincount(when[held], minlength=count + 1)
                        - np.bincount(first_read[dst[held]], minlength=count + 1))
    if waiting.max() > dp:
        raise ScheduleViolation("more than dp values in flight")
    # every read sees the value from before the schedule ran
    layout.banks[moves[:, 2], moves[:, 3]] = layout.banks[moves[:, 0], moves[:, 1]]


def mux_controls(r: int, layout: BankLayout) -> np.ndarray:
    """Per-step dp-to-1 selector settings: entry [step, out_bank] names the
    source bank feeding that output bank. Constant across steps because the
    bank map is address-independent."""
    moves = schedule(r, layout).moves
    table = np.empty(moves.shape[:2], dtype=np.int64)
    np.put_along_axis(table, moves[:, :, 2], moves[:, :, 0], axis=1)
    return table
