"""Reference implementations that tests check ckkslt against."""

import numpy as np


def negacyclic_mul_schoolbook(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """O(N^2) reference product mod (x^N + 1, q), exact big-int arithmetic."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return np.array(out, dtype=np.uint64)


def dump_schedule(steps) -> str:
    """A permutation schedule as "step, src_bank, src_addr, dst_bank, dst_addr" lines."""
    lines = []
    for s, step in enumerate(steps):
        for sb, sa, db, da in step.moves:
            lines.append(f"{s}, {sb}, {sa}, {db}, {da}")
    return "\n".join(lines)
