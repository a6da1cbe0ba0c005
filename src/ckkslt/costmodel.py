"""Closed-form complexity and memory-traffic models.

Operation counts per method (Decompose, ModDown, coefficient-wise limb
multiplies, switching-key limbs) and the six-phase off-chip / on-chip
memory model of the streaming datapath, plus factorization and
parallelism searches and the key-size/compute trade-off sweep.

Every route is a split of the transform dimension n into three layers
(n1, n2, n3) whose rotations step by (1, n1, n1*n2): diagonal is
(1, n, 1), a two-layer split (a, b) is (1, a, b), and th-bsgs takes its
three factors as they are. ``plan_layers`` is the one place that rule
and the factor checks live; plans, keys, packing, the cost formulas and
the datapath all read its triple.

Hoisted counts are line counts of the algorithm (zero-offset rotations
skipped), which the executable evaluators realize: n1+n3-1 Decompose and
n1+n3 ModDown. The published summary table charges th-bsgs one more of
each.

Switching-key byte convention: a key is a pair of polynomials, so
key_bytes = limbs * 2 * N * w / 8. Module constant KEY_PAIR_FACTOR
documents the pair multiplier.

Non-integer division terms in the memory table evaluate as ceilings,
matching the iteration-count reading of the phase descriptions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

from .modarith import InvalidModulus
from .ring import BasisMismatch

KEY_PAIR_FACTOR = 2

PHASES = (1, 2, 3, 4, 5, 6)
CATEGORIES = ("ntt", "lt_matrix", "switching_key", "poly_read", "poly_write")


class ConfigOutOfRange(ValueError):
    """Parallelism parameter outside its loop extent, or a bank or address
    outside the banked layout."""


class Infeasible(ValueError):
    """No parallelism configuration fits the on-chip budget."""


class BadFactors(ValueError):
    """Factorization incompatible with the method or dimension, or sought
    under an unknown objective."""


@dataclass(frozen=True)
class HeParams:
    """Shape-level parameters: no arithmetic tables, safe at any size."""

    ring_dim: int
    levels: int  # L + 1
    alpha: int
    word_bits: int = 54
    n: int = 0  # transform dimension; defaults to N/2

    def __post_init__(self):
        dim = self.ring_dim
        if dim < 8 or dim & (dim - 1):
            raise InvalidModulus(f"ring_dim={dim} is not a power of two >= 8")
        if not 8 <= self.word_bits <= 60:
            raise InvalidModulus(f"word_bits={self.word_bits} outside [8, 60]")
        if self.levels < 1 or self.alpha < 1:
            raise BasisMismatch(f"levels={self.levels} and alpha={self.alpha} must be >= 1")
        if self.n == 0:
            object.__setattr__(self, "n", self.ring_dim // 2)
        if self.n & (self.n - 1) or self.n > self.ring_dim // 2:
            raise BadFactors("n must be a power of two <= N/2")

    @property
    def beta(self) -> int:
        return -(-self.levels // self.alpha)

    @property
    def pq_limbs(self) -> int:
        return self.levels + self.alpha

    @property
    def limb_bytes(self) -> int:
        return self.ring_dim * self.word_bits // 8  # exact: N is a power of two >= 8


# evaluation parameter sets (N, L+1, alpha, w) with n = N/2
SET_A = HeParams(2**13, 5, 5, 54)
SET_B = HeParams(2**15, 16, 8, 54)
SET_C = HeParams(2**16, 32, 12, 54)
NAMED_SETS = {"set-a": SET_A, "set-b": SET_B, "set-c": SET_C}

# published per-set factorizations and datapath parallelism
# ((n1, n2, n3), (m1..m6), (l1..l5), dp)
REFERENCE_CONFIGS = {
    "set-a": ((8, 64, 8), (7, 7, 63, 1, 103, 8), (5, 10, 1, 1, 5), 2),
    "set-b": ((16, 128, 8), (4, 1, 11, 1, 25, 4), (2, 12, 1, 1, 1), 8),
    "set-c": ((16, 128, 16), (1, 1, 4, 1, 12, 1), (1, 1, 1, 1, 1), 16),
}


@dataclass(frozen=True)
class ParallelismConfig:
    m1: int = 1
    m2: int = 1
    m3: int = 1
    m4: int = 1
    m5: int = 1
    m6: int = 1
    l1: int = 1
    l2: int = 1
    l3: int = 1
    l4: int = 1
    l5: int = 1
    dp: int = 2

    def ms(self):
        return (self.m1, self.m2, self.m3, self.m4, self.m5, self.m6)

    def ls(self):
        return (self.l1, self.l2, self.l3, self.l4, self.l5)


def reference_config(name: str) -> tuple[HeParams, tuple[int, int, int], ParallelismConfig]:
    params = NAMED_SETS[name]
    factors, ms, ls, dp = REFERENCE_CONFIGS[name]
    cfg = ParallelismConfig(*ms, *ls, dp=dp)
    return params, factors, cfg


# number of factors each method takes
METHOD_ARITY = {"diagonal": 0, "bsgs": 2, "dh-bsgs": 2, "th-bsgs": 3}


def plan_layers(method: str, n: int, factors=()) -> tuple[int, int, int]:
    """Validate a factorization and return its layers (n1, n2, n3).

    The only factor validator: raises BadFactors for an unknown method,
    a non-integer n or factor, an n that is not a power of two, the wrong
    number of factors, a factor below 1, or factors whose product is not n.
    """
    if method not in METHOD_ARITY:
        raise BadFactors(f"unknown method {method}")
    factors = tuple(factors)
    # a float, Fraction or Decimal among integers makes their product one too
    if not hasattr(math.prod(factors, start=n), "__index__"):
        raise BadFactors(f"n={n!r} and factors {factors} must be integers")
    if n < 1 or n & (n - 1):
        raise BadFactors(f"transform dimension {n} is not a power of two")
    want = METHOD_ARITY[method]
    if len(factors) != want:
        raise BadFactors(f"{method} needs {want} factors, got {factors}")
    if not factors:
        return 1, n, 1
    if min(factors) < 1:
        raise BadFactors("factors must be >= 1")
    if math.prod(factors) != n:
        raise BadFactors(f"factors {factors} do not multiply to {n}")
    return (1,) * (3 - want) + factors


def check_dp(dp: int, ring_dim: int):
    """The bank count rule: dp is a power of two >= 2 with dp^2 <= N."""
    if dp < 2 or dp & (dp - 1):
        raise ConfigOutOfRange(f"dp={dp} is not a power of two >= 2")
    if dp * dp > ring_dim:
        raise ConfigOutOfRange(f"dp={dp} needs dp^2 <= N={ring_dim}")


def knob_extents(layers: tuple[int, int, int], limbs: int) -> tuple[tuple[str, int], ...]:
    """Loop extent of each parallelism knob for th-bsgs layers over
    ``limbs`` PQ limbs, in the order ``search_parallelism`` grows them."""
    n1, n2, n3 = layers
    return (("m1", max(n1 - 1, 1)), ("m3", max(n2 - 1, 1)), ("m5", n1 * n2), ("m6", n3),
            ("m2", max(n1 - 1, 1)), ("m4", n1),
            ("l1", limbs), ("l2", limbs), ("l3", limbs), ("l4", limbs), ("l5", limbs))


def validate_config(params: HeParams, factors, cfg: ParallelismConfig) -> tuple[int, int, int]:
    """Check a six-phase configuration; returns the th-bsgs layers."""
    layers = plan_layers("th-bsgs", params.n, factors)
    check_dp(cfg.dp, params.ring_dim)
    for name, hi in knob_extents(layers, params.pq_limbs):
        val = getattr(cfg, name)
        if not 1 <= val <= hi:
            raise ConfigOutOfRange(f"{name}={val} outside [1, {hi}]")
    return layers


@dataclass
class CostReport:
    method: str
    factors: tuple
    decompose: int
    moddown: int
    cwise_mult_limbs: int
    switching_key_limbs: int
    modmul_total: int = 0

    def key_bytes(self, params: HeParams) -> int:
        return self.switching_key_limbs * KEY_PAIR_FACTOR * params.limb_bytes


def complexity(method: str, params: HeParams, factors=()) -> CostReport:
    """Operation counts for one transform evaluation.

    Hoisted methods are charged the executable line counts; the published
    summary table charges th-bsgs one more Decompose and one more ModDown.

    Key products are charged once per key, n1+n2+n3-3 in all, while the
    six-phase walk applies each of the n2-1 middle-layer keys to all n1
    first-layer inputs, so its trace holds 2*beta*(n1-1)*(n2-1)*pq_limbs
    more limb multiplies than ``cwise_mult_limbs``.
    """
    n1, n2, n3 = plan_layers(method, params.n, factors)
    factors = tuple(factors)
    n = params.n
    beta = params.beta
    limbs = params.pq_limbs
    rot = n1 + n2 + n3 - 3  # nonzero rotation offsets over the three layers
    keys = beta * rot * limbs
    if method == "bsgs":
        # unhoisted: every rotation pays a full key switch, products over Q
        dec, mdown = rot, 2 * rot
        cwise = 2 * beta * rot * limbs + 2 * n * params.levels
    else:
        # hoisted: n1 + n3 - 1 digit sets, a ModDown for each past the
        # first plus the final pair
        dec, mdown = n1 + n3 - 1, n1 + n3
        cwise = 2 * beta * rot * limbs + 2 * n * limbs
    report = CostReport(method, factors, dec, mdown, cwise, keys)
    report.modmul_total = (
        report.decompose * decompose_modmuls(params)
        + report.moddown * moddown_modmuls(params)
        + report.cwise_mult_limbs * params.ring_dim
    )
    return report


# ---------------------------------------------------------------------------
# modular-multiplication cost constants (documented conventions)


def ntt_limb_modmuls(params: HeParams) -> int:
    n = params.ring_dim
    return (n // 2) * (n.bit_length() - 1)


def _digit_sizes(params: HeParams) -> list[int]:
    sizes = []
    rem = params.levels
    while rem > 0:
        sizes.append(min(params.alpha, rem))
        rem -= params.alpha
    return sizes


def decompose_modmuls(params: HeParams) -> int:
    """One Decompose: input inverse transforms, per-digit conversions,
    forward transforms of the extension limbs."""
    n = params.ring_dim
    total = params.levels * ntt_limb_modmuls(params)
    for k in _digit_sizes(params):
        ext = params.pq_limbs - k
        total += n * k * (1 + ext)
        total += ext * ntt_limb_modmuls(params)
    return total


def moddown_modmuls(params: HeParams) -> int:
    """One ModDown: inverse transforms of all PQ limbs, conversion of the
    special limbs, per-limb scaling, forward transforms back."""
    n = params.ring_dim
    total = params.pq_limbs * ntt_limb_modmuls(params)
    total += n * params.alpha * (1 + params.levels)
    total += n * params.levels
    total += params.levels * ntt_limb_modmuls(params)
    return total


# ---------------------------------------------------------------------------
# factor searches


def _pow2_divisors(n: int) -> list[int]:
    return [1 << k for k in range(n.bit_length()) if (1 << k) <= n]


def _splits(n: int, arity: int) -> list[tuple[int, ...]]:
    """Every power-of-two split of n into arity ordered factors."""
    if arity == 0:
        return [()]
    if arity == 1:
        return [(n,)]
    return [(d, *rest) for d in _pow2_divisors(n) for rest in _splits(n // d, arity - 1)]


def search_factors(method: str, params: HeParams, objective: str = "min_keys"):
    """Pick a power-of-two factorization of the method's arity.

    min_keys minimizes switching-key limbs; min_compute minimizes total
    modular multiplications. Ties break toward the lexicographically
    smallest factor tuple.
    """
    if objective == "min_keys":
        key = lambda fs: (complexity(method, params, fs).switching_key_limbs, fs)
    elif objective == "min_compute":
        key = lambda fs: (complexity(method, params, fs).modmul_total, fs)
    else:
        raise BadFactors(f"unknown objective {objective}")
    # an unknown method gets the empty split, which complexity rejects
    return min(_splits(params.n, METHOD_ARITY.get(method, 0)), key=key)


def pareto_factorizations(method: str, params: HeParams) -> list[tuple]:
    """One point per value of the second factor, ascending: the giant
    step of a two-layer split, the middle layer of a three-layer split
    (outer pair chosen for least compute, smaller first factor on ties)."""
    arity = METHOD_ARITY.get(method, 0)
    if arity < 2:
        raise BadFactors(f"{method} has no second factor to sweep")
    out = []
    for n2 in _pow2_divisors(params.n):
        rest = params.n // n2
        outer = ([(rest, n2)] if arity == 2
                 else [(a, n2, rest // a) for a in _pow2_divisors(rest)])
        out.append(min(outer, key=lambda fs: (complexity(method, params, fs).modmul_total, fs)))
    return out


# ---------------------------------------------------------------------------
# six-phase memory model


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def offchip_access(params: HeParams, factors, cfg: ParallelismConfig) -> dict:
    """Off-chip traffic per phase and category, in limbs."""
    n1, n2, n3 = validate_config(params, factors, cfg)
    n = params.n
    lp = params.levels  # L + 1
    limbs = params.pq_limbs
    beta = params.beta
    c5 = ceil_div(n3, cfg.m6)
    c4 = ceil_div(n1 * n2, cfg.m5)
    table = {
        1: {
            "ntt": 2 * limbs,
            "lt_matrix": 0,
            "switching_key": 2 * (n1 - 1) * beta * limbs,
            "poly_read": 2 * lp,
            "poly_write": 2 * n1 * limbs,
        },
        2: {
            "ntt": ceil_div(n1 - 1, cfg.m1) * limbs,
            "lt_matrix": 0,
            "switching_key": 0,
            "poly_read": (n1 - 1) * limbs,
            "poly_write": (n1 - 1) * beta * limbs,
        },
        3: {
            "ntt": 0,
            "lt_matrix": 0,
            "switching_key": 2 * (n2 - 1) * beta * limbs,
            "poly_read": ceil_div(n2 - 1, cfg.m3) * n1 * (beta + 1) * limbs,
            "poly_write": 2 * n1 * n2 * limbs,
        },
        4: {
            "ntt": limbs,
            "lt_matrix": n * limbs,
            "switching_key": 0,
            "poly_read": 2 * (n1 * n2 + (c4 - 1) * n3) * limbs,
            "poly_write": 2 * c4 * n3 * limbs,
        },
        5: {
            "ntt": c5 * limbs,
            "lt_matrix": 0,
            "switching_key": 2 * (n3 - 1) * beta * limbs,
            "poly_read": 2 * (n3 + c5 - 1) * limbs,
            "poly_write": 2 * c5 * limbs,
        },
        6: {
            "ntt": limbs,
            "lt_matrix": 0,
            "switching_key": 0,
            "poly_read": 2 * limbs,
            "poly_write": 2 * lp,
        },
    }
    return table


def peak_onchip(params: HeParams, factors, cfg: ParallelismConfig) -> dict:
    """Peak on-chip residency per phase, in limbs."""
    validate_config(params, factors, cfg)
    lp = params.levels
    limbs = params.pq_limbs
    beta = params.beta
    m1, m2, m3, m4, m5, m6 = cfg.ms()
    l1, l2, l3, l4, l5 = cfg.ls()
    return {
        1: 2 * lp + (beta + 4) * l1 + (4 * beta + 6) * m1 * l1,
        2: m2 * (2 * lp + params.alpha + 2 * beta * l2) + 2 * l2,
        3: 2 * l3 * ((beta + 1) * m4 + 2 * beta * m3 + 2 * m3 * m4),
        4: 6 * m5 * l4 + 5 * l4,
        5: m6 * limbs + (5 * beta * m6 + 2 * m6 + 6) * l5 + 2 * l5,
        6: 2 * limbs,
    }


def total_offchip_limbs(params: HeParams, factors, cfg: ParallelismConfig) -> int:
    table = offchip_access(params, factors, cfg)
    return sum(sum(row.values()) for row in table.values())


def max_peak_limbs(params: HeParams, factors, cfg: ParallelismConfig) -> int:
    return max(peak_onchip(params, factors, cfg).values())


def search_parallelism(params: HeParams, factors, onchip_budget_bytes: int,
                       dp: int = 2) -> ParallelismConfig:
    """Minimize total off-chip limbs subject to every phase peak fitting
    the budget; remaining free parameters then grow as large as the
    budget allows (deterministic greedy, m before l).

    Off-chip traffic depends only on m1, m3, m5, m6 and each of those
    couples to a single phase's peak, so the phases optimize
    independently.
    """
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


# ---------------------------------------------------------------------------
# trade-off sweep


@dataclass
class TradeoffPoint:
    method: str
    factors: tuple
    key_limbs: int
    key_bytes: int
    modmul_total: int
    tag: str = ""


def tradeoff_curve(methods, params: HeParams) -> list[TradeoffPoint]:
    """Key-size / compute sweep, one point per factorization, with the
    minimum-memory and best-tradeoff (minimum-compute) points tagged; a
    tie goes to the lexicographically smallest factors."""
    points: list[TradeoffPoint] = []
    for method in methods:
        if method in ("diagonal", "bsgs"):
            # diagonal has no split; bsgs keys and compute both bottom
            # out at a near-square split
            fs = search_factors(method, params, "min_compute")
            rep = complexity(method, params, fs)
            points.append(TradeoffPoint(method, fs, rep.switching_key_limbs,
                                        rep.key_bytes(params), rep.modmul_total,
                                        "single"))
            continue
        sweep = pareto_factorizations(method, params)
        reports = [complexity(method, params, fs) for fs in sweep]
        best_mem = min(range(len(sweep)), key=lambda i: (reports[i].switching_key_limbs, sweep[i]))
        best_cmp = min(range(len(sweep)), key=lambda i: (reports[i].modmul_total, sweep[i]))
        for i, (fs, rep) in enumerate(zip(sweep, reports)):
            tags = []
            if i == best_mem:
                tags.append("min-memory")
            if i == best_cmp:
                tags.append("best-tradeoff")
            points.append(TradeoffPoint(method, fs, rep.switching_key_limbs,
                                        rep.key_bytes(params), rep.modmul_total,
                                        "+".join(tags)))
    return points


TRADEOFF_COLUMNS = ("method", "factors", "key_limbs", "key_bytes", "modmul_total", "tag")


def tradeoff_csv(points: list[TradeoffPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRADEOFF_COLUMNS)
    for p in points:
        writer.writerow([p.method, "x".join(map(str, p.factors)), p.key_limbs,
                         p.key_bytes, p.modmul_total, p.tag])
    return buf.getvalue()


def best_tradeoff_ratio(params: HeParams) -> dict:
    """Switching-key ratio between the two-layer and three-layer methods
    at their best-tradeoff sweep points."""
    best = {p.method: p for p in tradeoff_curve(["dh-bsgs", "th-bsgs"], params)
            if "best-tradeoff" in p.tag}
    dh_best, th_best = best["dh-bsgs"], best["th-bsgs"]
    return {
        "dh_factors": dh_best.factors,
        "th_factors": th_best.factors,
        "dh_key_limbs": dh_best.key_limbs,
        "th_key_limbs": th_best.key_limbs,
        "ratio": dh_best.key_limbs / th_best.key_limbs,
    }
