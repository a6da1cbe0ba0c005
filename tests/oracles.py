"""Reference implementations that tests check ckkslt against."""

from dataclasses import replace

import numpy as np

from ckkslt.costmodel import (Infeasible, ParallelismConfig, knob_extents, max_peak_limbs,
                              validate_config)


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


def diagonalize_one_at_a_time(f_matrix: np.ndarray, plan, params) -> list:
    """The polynomials of ``linear.diagonalize``'s packed diagonals, as
    ``DiagMatrix.diagonal`` returns them, one dense diagonal at a time: ``encode``'s
    body over the plan's basis, ``automorphism_coef`` by the diagonal's giant-step
    offset, then ``ntt``."""
    from ckkslt import ckks, ring, rns

    n = plan.n
    context = params.basis.pq_context if plan.hoisted else params.basis.q_context
    n1, n2, _ = plan.layers
    giant = n1 * n2
    t = np.arange(n)
    out = []
    for i, row in enumerate(np.asarray(f_matrix, dtype=np.float64)[t, (t + t[:, None]) % n]):
        ints = ckks.encode_rows(np.tile(row, params.slots // n)[None], params)[0]
        poly = rns.rns_from_ints(ints, context)
        if i >= giant:
            poly = ring.automorphism_coef(
                poly, ring.RotationIndex(-giant * (i // giant), params.ring_dim))
        out.append(ring.ntt(poly))
    return out


def rotate_automorphism_first(ct, r: int, swk, params):
    """A rotation by r in the other order: the automorphism, then a full key
    switch of phi_r(c1) with the plain key, then ModDown. The plain key is
    phi_r of the stored twisted key ``swk``, an exact permutation."""
    from ckkslt import ckks, ring

    rot = ring.RotationIndex(r, params.ring_dim)
    plain = ckks.SwitchingKey([(ring.automorphism_eval(k0, rot), ring.automorphism_eval(k1, rot))
                               for k0, k1 in swk.digits])
    digits = ckks.hoist_digits(ring.automorphism_eval(ct.c1, rot), params.basis)
    u0, u1 = ckks.key_switch(digits, plain)
    c0 = ckks.rns_add(ring.automorphism_eval(ct.c0, rot), ckks.moddown_ntt(u0, params.basis))
    return ckks.Ciphertext(c0, ckks.moddown_ntt(u1, params.basis), ct.scale)


def dump_schedule(steps) -> str:
    """A permutation schedule as "step, src_bank, src_addr, dst_bank, dst_addr" lines."""
    lines = []
    for s, step in enumerate(steps.moves.tolist()):
        for sb, sa, db, da in step:
            lines.append(f"{s}, {sb}, {sa}, {db}, {da}")
    return "\n".join(lines)


def schedule_tuples(r: int, layout) -> list[list[tuple[int, int, int, int]]]:
    """``permutation.schedule`` as a walk that emits one move tuple per
    position it reads, per step; destinations come from ``argsort`` of
    ``ring.eval_permutation``."""
    from ckkslt import ring

    n, dp = layout.ring_dim, layout.dp
    per_bank = n // dp
    dst_np = np.argsort(ring.eval_permutation(n, ring.RotationIndex(r, n).g_r))
    dst_flat = dst_np.tolist()
    move_of = list(zip(*(v.tolist() for v in np.divmod(np.arange(n), per_bank)
                                              + np.divmod(dst_np, per_bank))))
    visited = bytearray(n)
    next_free = [0] * dp
    steps = []

    def fresh(bank: int) -> int:
        a = next_free[bank]
        while a < per_bank and visited[bank * per_bank + a]:
            a += 1
        next_free[bank] = a
        if a >= per_bank:
            raise RuntimeError("bank exhausted early")
        return a

    lanes = list(range(0, n, per_bank))
    visited[::per_bank] = bytes([1]) * dp
    seen = dp
    for _ in range(per_bank):
        moves = []
        new_lanes = []
        for pos in lanes:
            moves.append(move_of[pos])
            dst = dst_flat[pos]
            if visited[dst]:
                if seen == n:
                    continue
                bank = dst // per_bank
                dst = bank * per_bank + fresh(bank)
            visited[dst] = 1
            seen += 1
            new_lanes.append(dst)
        steps.append(moves)
        lanes = new_lanes
        if not lanes:
            break
    return steps


def search_parallelism_stepping(params, factors, onchip_budget_bytes: int,
                                dp: int = 2) -> ParallelismConfig:
    """``costmodel.search_parallelism`` as it was before its closed form:
    each knob grows one unit at a time, with one checked ``peak_onchip``
    per candidate, while every phase peak fits the budget."""
    budget_limbs = onchip_budget_bytes // params.limb_bytes
    base = ParallelismConfig(dp=dp)
    layers = validate_config(params, factors, base)
    if max_peak_limbs(params, factors, base) > budget_limbs:
        raise Infeasible("budget below the minimal-footprint configuration")

    def grows(cfg: ParallelismConfig, name: str, hi: int) -> ParallelismConfig:
        best = cfg
        for val in range(getattr(cfg, name) + 1, hi + 1):
            cand = replace(cfg, **{name: val})
            if max_peak_limbs(params, factors, cand) <= budget_limbs:
                best = cand
            else:
                break
        return best

    cfg = base
    # off-chip-relevant knobs come first (larger is never worse for
    # traffic); the rest only trade on-chip space
    for name, hi in knob_extents(layers, params.pq_limbs):
        cfg = grows(cfg, name, hi)
    return cfg
