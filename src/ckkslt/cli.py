"""Command-line interface.

Subcommands:

    demo      end-to-end encrypted linear transform on random inputs
    analyze   key-size / compute trade-off sweep (CSV or JSON)
    simulate  six-phase datapath metering report (JSON)
    validate  simulator vs closed-form cross-check

Reports are deterministic for a fixed seed and configuration; timing
goes to stderr so saved output stays byte-identical. Exit codes:
0 success, 1 usage or configuration error, 2 tolerance or validation
failure.

``--config FILE`` holds ``key = value`` lines, read as ``--key=value``
flags placed straight after the subcommand, so command-line flags win.
Keys before any ``[section]`` apply to every subcommand, keys under
``[<subcommand>]`` to that one only; switches take ``true``/``false``.
Unknown keys, sections and values are usage errors, as on the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import costmodel as cm
from . import datapath as dp

BANNER = "# NOT FOR PRODUCTION CRYPTOGRAPHY: toy parameters, unhardened arithmetic"

TOY_PROFILES = {
    # demo profiles: word_bits is the prime width
    "toy": cm.HeParams(2**10, 5, 5, 44),
    "toy-small": cm.HeParams(2**8, 3, 3, 30),
    "toy-large": cm.HeParams(2**13, 5, 5, 44),
}
PROFILES = {**TOY_PROFILES, **cm.NAMED_SETS}


COMMANDS = ("demo", "analyze", "simulate", "validate")


class UsageError(ValueError):
    """A command line or config file that the parser rejects."""


class Parser(argparse.ArgumentParser):
    """Exact flag names only; subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def config_flags(path: str, command: str) -> list[str]:
    """The flags a config file gives ``command``: ``--key=value`` per line
    in scope, ``--key``/``--no-key`` for ``true``/``false``."""
    flags = []
    section = ""
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in COMMANDS:
                    raise UsageError(f"unknown config section [{section}]")
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if section in ("", command):
                key = key.replace("_", "-")
                flags.append({"true": f"--{key}", "false": f"--no-{key}"}
                             .get(val, f"--{key}={val}"))
    return flags


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _shape_params(args) -> cm.HeParams:
    return dataclasses.replace(PROFILES[args.params], n=args.n)  # n=0 gives N/2


# ---------------------------------------------------------------------------
# demo


def cmd_demo(args) -> int:
    from . import ckks, linear

    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance {args.tolerance} is not a finite number > 0")
    if args.seed < 0:
        raise UsageError(f"--seed {args.seed} is negative; numpy seeds are >= 0")
    shape = TOY_PROFILES[args.params]
    params = ckks.CkksParams.make(ring_dim=shape.ring_dim, levels=shape.levels,
                                  alpha=shape.alpha, prime_bits=shape.word_bits)
    n = args.n
    if n > params.slots:
        raise UsageError(f"--n {n} exceeds slot count {params.slots}")
    methods = ([m.value for m in linear.LtMethod] if args.method == "all"
               else [args.method])
    # the plans validate n and the factors before anything is drawn
    plans = []
    for name in methods:
        # a single method takes --factors as given, so a wrong arity is an
        # error; "all" hands them only to the methods whose arity they fit
        fs = args.factors
        if fs is None or (args.method == "all" and len(fs) != cm.METHOD_ARITY[name]):
            fs = cm.search_factors(name, _shape_params(args),
                                   "min_keys" if name == "th-bsgs" else "min_compute")
        plans.append(linear.LtPlan(linear.LtMethod(name), n, tuple(fs)))

    rng = np.random.default_rng(args.seed)
    if args.identity:
        f_matrix = np.eye(n)
    else:
        f_matrix = rng.uniform(-1, 1, (n, n))
    v = rng.uniform(-1, 1, n)

    t0 = time.time()
    report = linear.lt_equivalence_check(f_matrix, v, params, plans,
                                         seed=args.seed)
    elapsed = time.time() - t0
    worst = max(report["errors"].values())
    status = "PASS" if worst < args.tolerance else "FAIL"
    if args.save_output:
        from . import serialize
        for name, ct_out in report["ciphertexts"].items():
            path = (args.save_output if len(report["ciphertexts"]) == 1
                    else f"{args.save_output}.{name}")
            with open(path, "wb") as fh:
                fh.write(serialize.save_ciphertext(ct_out))
    rows = []
    for name in sorted(report["errors"]):
        tr = report["traces"][name]
        rows.append({
            "method": name,
            "error": report["errors"][name],
            "decompose": tr.decompose,
            "moddown": tr.moddown,
            "key_offsets": len(tr.key_offsets),
            "cwise_mult_limbs": tr.cwise_mult_limbs,
        })
    if args.format == "json":
        payload = {
            "banner": BANNER.lstrip("# "),
            "methods": rows,
            "tolerance": args.tolerance,
            "max_error": worst,
            "status": status,
        }
        if args.compare:
            payload["pairwise"] = report["pairwise"]
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        buf.write(BANNER + "\n")
        writer = _csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        buf.write(f"# tolerance={args.tolerance:.1e} max_error={worst:.3e} "
                  f"{status}\n")
        text = buf.getvalue()
    else:
        lines = [BANNER]
        for row in rows:
            lines.append(
                "method={method} error={error:.3e} decompose={decompose} "
                "moddown={moddown} key_offsets={key_offsets} "
                "cwise_mult_limbs={cwise_mult_limbs}".format(**row))
        if args.compare and report["pairwise"]:
            for pair in sorted(report["pairwise"]):
                lines.append(
                    f"pairwise {pair} diff={report['pairwise'][pair]:.3e}")
            lines.append(f"max_pairwise={max(report['pairwise'].values()):.3e}")
        lines.append(
            f"tolerance={args.tolerance:.1e} max_error={worst:.3e} {status}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    print(f"wall time: {elapsed:.2f}s", file=sys.stderr)
    return 0 if status == "PASS" else 2


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    params = _shape_params(args)
    methods = (["bsgs", "dh-bsgs", "th-bsgs"] if args.method == "all"
               else [args.method])
    points = cm.tradeoff_curve(methods, params)
    if args.format == "csv":
        text = cm.tradeoff_csv(points)
        if "dh-bsgs" in methods and "th-bsgs" in methods:
            ratio = cm.best_tradeoff_ratio(params)
            text += ("# dh_best={} th_best={} key_ratio={:.4f}\n".format(
                "x".join(map(str, ratio["dh_factors"])),
                "x".join(map(str, ratio["th_factors"])),
                ratio["ratio"]))
    else:
        payload = {
            "params": {"ring_dim": params.ring_dim, "levels": params.levels,
                       "alpha": params.alpha, "w": params.word_bits,
                       "n": params.n},
            "points": [
                {"method": p.method, "factors": list(p.factors),
                 "key_limbs": p.key_limbs, "key_bytes": p.key_bytes,
                 "modmul_total": p.modmul_total, "tag": p.tag}
                for p in points
            ],
        }
        if "dh-bsgs" in methods and "th-bsgs" in methods:
            payload["key_ratio"] = cm.best_tradeoff_ratio(params)
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate / validate


def _factors_and_config(args, params):
    """Factors and config of simulate/validate. An explicit ``--dp`` always
    applies; without it a named set's reference config keeps its dp, and
    anything else uses ``ParallelismConfig``'s default."""
    if args.params in cm.REFERENCE_CONFIGS and not args.factors:
        _, factors, cfg = cm.reference_config(args.params)
    else:
        factors = tuple(args.factors) if args.factors else \
            cm.search_factors("th-bsgs", params, "min_keys")
        cfg = cm.ParallelismConfig()
    dp = cfg.dp if args.dp is None else args.dp
    if args.parallelism:
        vals = args.parallelism
        if len(vals) != 11:
            raise UsageError("--parallelism wants m1,...,m6,l1,...,l5")
        cfg = cm.ParallelismConfig(*vals)
    if args.budget_bytes:
        cfg = cm.search_parallelism(params, factors, args.budget_bytes, dp=dp)
    return factors, dataclasses.replace(cfg, dp=dp)


def cmd_simulate(args) -> int:
    params = _shape_params(args)
    factors, cfg = _factors_and_config(args, params)
    sim = dp.simulate(params, factors, cfg)
    text = json.dumps(dp.report_json(params, factors, cfg, sim), indent=2) + "\n"
    _emit(text, args.out)
    return 0


def cmd_validate(args) -> int:
    params = _shape_params(args)
    factors, cfg = _factors_and_config(args, params)
    rows = dp.validate_against_model(params, factors, cfg)
    unexplained = [r for r in rows if not r["explained"]]
    payload = {"cells": rows, "unexplained": len(unexplained)}
    text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    if unexplained:
        print(f"{len(unexplained)} unexplained deltas", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="ckkslt",
        description="Encrypted linear transforms: demos, cost sweeps, and "
                    "datapath simulation (not for production cryptography).",
    )
    parser.add_argument("--config", help="key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = ("diagonal", "bsgs", "dh-bsgs", "th-bsgs", "all")

    def command(name, func, profiles, n=0, help=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--params", default="toy", choices=profiles,
                       help="toy* are the demo profiles (44/30-bit primes), "
                            "set-a/b/c the 54-bit evaluation shapes")
        p.add_argument("--n", type=int, default=n, help="transform dimension")
        p.add_argument("--out", default=None)
        return p

    d = command("demo", cmd_demo, tuple(TOY_PROFILES), n=64,
                help="run encrypted transforms end to end")
    d.add_argument("--factors", type=int_list, default=None)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--format", choices=("text", "csv", "json"), default="text")
    d.add_argument("--method", default="th-bsgs", choices=methods)
    d.add_argument("--tolerance", type=float, default=1e-3)
    d.add_argument("--compare", action=argparse.BooleanOptionalAction, default=False,
                   help="print pairwise output differences")
    d.add_argument("--identity", action=argparse.BooleanOptionalAction, default=False,
                   help="use the identity matrix")
    d.add_argument("--save-output", default=None,
                   help="write the result ciphertext container(s) here")

    a = command("analyze", cmd_analyze, tuple(PROFILES),
                help="key-size / compute trade-off sweep")
    a.add_argument("--format", choices=("json", "csv"), default="json")
    a.add_argument("--method", default="all", choices=methods)

    for name, func in (("simulate", cmd_simulate), ("validate", cmd_validate)):
        s = command(name, func, tuple(PROFILES))
        s.add_argument("--factors", type=int_list, default=None)
        s.add_argument("--dp", type=int, default=None,
                       help="bank count (default: the reference config's, else 2)")
        knobs = s.add_mutually_exclusive_group()
        knobs.add_argument("--parallelism", type=int_list, default=None,
                           help="m1,...,m6,l1,...,l5")
        knobs.add_argument("--budget-bytes", type=int, default=0,
                           help="search the knobs that fit this on-chip budget")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the subcommand is the first token that is not --config's value
            at = 1 + next(i for i, tok in enumerate(argv) if tok == args.command and (
                i == 0 or "=" in argv[i - 1] or not argv[i - 1].startswith("-")))
            argv[at:at] = config_flags(args.config, args.command)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # the cm errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
