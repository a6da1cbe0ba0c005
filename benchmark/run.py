"""Benchmark of ckkslt: one closed-loop workload per run.

    python3 benchmark/run.py --workload lt-eval --seed 1 --seconds 30 --trace 0

Workloads are ``lt-eval``, ``lt-fresh`` and ``dse-sweep`` (see
workloads.py). The program is imported from ``src/`` next to this
directory and nowhere else; without it the run fails before printing a
result. One caller, one thread, BLAS pinned to one thread.

``--trace 0`` sets up at least three times and for at least a second
(``setup_s`` is the median), then runs requests until ``--seconds`` have
passed and prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half traced (the traced half repeats the same requests
after a traced set-up) and prints the per-layer metrics; the spans go to
``.bench_out/``.

Every request passes correctness gates or counts as failed. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
no request failed.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy is imported
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("lt-eval", "lt-fresh", "dse-sweep")

TRACED = {
    "modarith": ["is_prime"],
    "ring": ["ntt", "intt", "mod_mul_vec", "mod_add_vec", "mod_sub_vec",
             "pointwise_mul", "automorphism_eval", "automorphism_coef"],
    "rns": ["bconv", "decompose", "moddown", "rescale", "rns_from_ints",
            "crt_reconstruct"],
    "ckks": ["encode", "decode", "encrypt", "decrypt", "hoist_digits",
             "key_switch", "raise_to_pq", "moddown_ntt", "rotation_keygen"],
    "linear": ["generate_lt_keys", "diagonalize", "evaluate_lt"],
    "serialize": ["save_ciphertext", "load"],
    "costmodel": ["search_parallelism", "pareto_factorizations",
                  "offchip_access", "peak_onchip"],
    "datapath": ["simulate", "validate_against_model"],
    "permutation": ["schedule", "mux_controls", "apply_schedule"],
}
# these run only while setting up, so their calls and self time are
# counted per set-up; every other traced function is counted per request
SETUP_ONLY = ("ckks.rotation_keygen", "linear.generate_lt_keys",
              "costmodel.pareto_factorizations")
# modules with traced work in some workload's set-up
SETUP_MODULES = ("modarith", "ring", "rns", "ckks", "linear", "costmodel")
METHODS = ("diagonal", "bsgs", "dh-bsgs", "th-bsgs")
SETUP_REQUEST = -1
MIN_TAIL_BEYOND = 10
# set-up repeats until both hold, so a set-up of a few milliseconds is
# sampled over a whole second of host noise
MIN_SETUP_REPEATS = 3
MIN_SETUP_SECONDS = 1.0

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    units = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            per = "setup" if f"{mod}.{fn}" in SETUP_ONLY else "req"
            units[f"{mod}.{fn}.calls"] = f"calls/{per}"
            units[f"{mod}.{fn}.self_s"] = f"s/{per}"
    for m in METHODS:
        for count in ("decompose", "moddown", "cwise_mult_limbs"):
            units[f"linear.{m}.{count}"] = "count"
    for m in METHODS:
        units[f"costmodel.{m}.modmul_total"] = "count"
        units[f"costmodel.{m}.modmul_per_s"] = "1/s"
    units.update({
        "costmodel.feasible_ratio": "ratio",
        "datapath.offchip_limbs": "limbs/req",
        "datapath.offchip_limbs_per_s": "limbs/s",
        "permutation.occupancy": "ratio",
        "permutation.moves_per_s": "1/s",
    })
    for mod in TRACED:
        units[f"{mod}.raised"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage"] = "ratio"
    for m in METHODS:
        units[f"eval_s.{m}"] = "s"
    units["pack_s.p50"] = "s"
    units["precision_bits.p50"] = "bits"
    for mod in SETUP_MODULES:
        units[f"setup.{mod}.self_s"] = "s/setup"
    return units


PER_LAYER = _per_layer()


def import_program():
    """Import ckkslt from ``src/`` of this checkout, or exit nonzero."""
    if not os.path.isfile(os.path.join(SRC, "ckkslt", "__init__.py")):
        raise SystemExit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import ckkslt

    if not os.path.realpath(ckkslt.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"benchmark: ckkslt imported from {ckkslt.__file__}, not {SRC}")


def facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_pin": BLAS_PIN,
        "loop": "closed, 1 caller, 1 thread",
    }


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Requests of one closed-loop phase, their latencies and outcomes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes: list = []
        self.failed = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def throughput(self) -> float:
        return self.attempted / self.elapsed


def run_loop(workload, ctx, seconds: float, tracer=None, tamper=None) -> Loop:
    """Issue whole units of requests until ``seconds`` have passed."""
    from workloads import Outcome

    loop = Loop()
    clock = time.perf_counter
    start = clock()
    for unit in workload.units(ctx, tamper):
        for request in unit:
            if tracer is not None:
                tracer.request = loop.attempted
            t0 = clock()
            try:
                outcome = request()
            except Exception:
                traceback.print_exc()
                outcome = Outcome(problems=["request raised"])
            loop.latencies.append(clock() - t0)
            if outcome.problems:
                loop.failed += 1
                print(f"request {loop.attempted} failed: {outcome.problems}",
                      file=sys.stderr)
            loop.outcomes.append(outcome)
        if clock() - start >= seconds:
            break
    loop.elapsed = clock() - start
    if tracer is not None:
        tracer.request = SETUP_REQUEST
    return loop


def timed_setup(workload, seed: int):
    t0 = time.perf_counter()
    ctx = workload.setup(seed)
    return ctx, time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it,
    never below the median, and its value."""
    import numpy as np

    q = max(50, math.floor(100 * (1 - MIN_TAIL_BEYOND / len(samples))))
    return q, float(np.percentile(samples, q))


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def scoped_metrics(loop: Loop, model: dict) -> dict[str, tuple[float, int]]:
    """Metrics that exist only on some workloads, as (value, samples);
    value 0 where the workload does not exercise the layer."""
    out = {}
    lt = [o for o in loop.outcomes if o.eval_s]
    for m in METHODS:
        eval_s = _median(o.eval_s.get(m) for o in lt)
        out[f"eval_s.{m}"] = (eval_s, len(lt))
        out[f"costmodel.{m}.modmul_total"] = (model[m].modmul_total, 1)
        out[f"costmodel.{m}.modmul_per_s"] = (
            model[m].modmul_total / eval_s if eval_s else 0.0, len(lt))
        trace = next((o.traces[m] for o in lt if m in o.traces), None)
        for count in ("decompose", "moddown", "cwise_mult_limbs"):
            out[f"linear.{m}.{count}"] = (getattr(trace, count) if trace else 0, len(lt))
    packs = [o.pack_s for o in loop.outcomes if o.pack_s is not None]
    out["pack_s.p50"] = (_median(packs), len(packs))
    bits = [o.precision_bits for o in lt]
    out["precision_bits.p50"] = (_median(bits), len(bits))
    points = [o for o in loop.outcomes if o.feasible is not None]
    feasible = [o for o in points if o.feasible]
    limbs = sum(o.offchip_limbs for o in feasible)
    sim_s = sum(o.simulate_s for o in feasible)
    out["costmodel.feasible_ratio"] = (len(feasible) / len(points) if points else 0.0,
                                       len(points))
    out["datapath.offchip_limbs"] = (limbs / len(feasible) if feasible else 0.0,
                                     len(feasible))
    out["datapath.offchip_limbs_per_s"] = (limbs / sim_s if sim_s else 0.0, len(feasible))
    perms = [o for o in loop.outcomes if o.occupancy is not None]
    moves = sum(o.moves for o in perms)
    perm_s = sum(o.permute_s for o in perms)
    out["permutation.occupancy"] = (
        statistics.fmean(o.occupancy for o in perms) if perms else 0.0, len(perms))
    out["permutation.moves_per_s"] = (moves / perm_s if perm_s else 0.0, len(perms))
    return out


def end_to_end_metrics(setups: list[float], loop: Loop) -> tuple[dict, int]:
    q, tail_s = tail(loop.latencies)
    n = len(loop.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "throughput_rps": (loop.throughput, n),
        "request_s.p50": (statistics.median(loop.latencies), n),
        "request_s.tail": (tail_s, n),
        "pass_ratio": ((loop.attempted - loop.failed) / loop.attempted, loop.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    return metrics, q


def per_layer_metrics(plain: Loop, traced: Loop, tracer, model: dict) -> dict:
    requests = traced.attempted
    loop_sum = tracer.summary(range(requests))
    setup_sum = tracer.summary([SETUP_REQUEST])
    metrics = {}
    for name in tracer.names:
        summary, count = (setup_sum, 1) if name in SETUP_ONLY else (loop_sum, requests)
        metrics[f"{name}.calls"] = (summary["calls"][name] / count, count)
        metrics[f"{name}.self_s"] = (summary["self_s"][name] / count, count)
    metrics.update(scoped_metrics(plain, model))
    for mod in TRACED:
        metrics[f"{mod}.raised"] = (tracer.raised[mod], requests)
    for mod in SETUP_MODULES:
        metrics[f"setup.{mod}.self_s"] = (
            sum(v for k, v in setup_sum["self_s"].items() if k.startswith(mod + ".")), 1)
    metrics["trace.overhead_ratio"] = (plain.throughput / traced.throughput, requests)
    metrics["trace.coverage"] = (loop_sum["top_level_s"] / sum(traced.latencies), requests)
    return metrics


# ---------------------------------------------------------------------------
# entry point


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tamper=None) -> dict:
    """Run one workload and return the full result (see ``main``)."""
    import workloads
    from tracer import Tracer

    from ckkslt import costmodel

    workload = workloads.WORKLOADS[workload_name]
    model = workloads.model_reports()
    result = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "facts": facts()}
    if not trace:
        setups = []
        while len(setups) < MIN_SETUP_REPEATS or sum(setups) < MIN_SETUP_SECONDS:
            ctx = None
            ctx, elapsed = timed_setup(workload, seed)
            setups.append(elapsed)
        gc.collect()
        loop = run_loop(workload, ctx, seconds, tamper=tamper)
        metrics, q = end_to_end_metrics(setups, loop)
        result["tail_percentile"] = q
        result["latencies"] = loop.latencies
        result["scoped"] = scoped_metrics(loop, model)
        loops = [loop]
        units = END_TO_END
    else:
        ctx, _ = timed_setup(workload, seed)
        gc.collect()
        plain = run_loop(workload, ctx, seconds / 2, tamper=tamper)
        ctx = None
        tracer = Tracer("ckkslt", TRACED, expected=(costmodel.Infeasible,))
        tracer.request = SETUP_REQUEST
        with tracer:
            ctx, _ = timed_setup(workload, seed)
            gc.collect()
            traced = run_loop(workload, ctx, seconds / 2, tracer=tracer, tamper=tamper)
        metrics = per_layer_metrics(plain, traced, tracer, model)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"{workload_name}-seed{seed}-spans.npz")
        tracer.save(spans)
        result["spans"] = os.path.relpath(spans, ROOT)
        loops = [plain, traced]
        units = PER_LAYER
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    result["metrics"] = {name: {"value": metrics[name][0], "unit": unit,
                                "samples": metrics[name][1]}
                         for name, unit in units.items()}
    result["attempted"] = sum(lp.attempted for lp in loops)
    result["failed"] = sum(lp.failed for lp in loops)
    return result


def report(result: dict) -> list[str]:
    lines = [f"# ckkslt benchmark workload={result['workload']} seed={result['seed']} "
             f"seconds={result['seconds']} trace={result['trace']}",
             "# facts " + json.dumps(result["facts"], sort_keys=True),
             "# datapath model: no hardware reference, so no simulated-versus-real "
             "error is reported"]
    for name, m in result["metrics"].items():
        note = f"  (p{result['tail_percentile']})" if name == "request_s.tail" else ""
        lines.append(f"{name:<40} {m['value']:>14.6g} {m['unit']:<10} n={m['samples']}{note}")
    for name, (value, n) in result.get("scoped", {}).items():
        lines.append(f"  {name:<38} {value:>14.6g} {PER_LAYER[name]:<10} n={n}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("\n".join(report(result)))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
