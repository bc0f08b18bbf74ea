"""Command-line front end: law parsing, experiment dispatch, CSV + manifest.

Law grammar (also the canonical config serialization):

    constant:0.7
    discrete:0.5@0.75,0.5@0.3333333333333333
    beta:5.0,2.0

Step-law grammar for the ladder commands:

    lattice:0.3@+1,0.7@-1      lattice spacing derived by gcd
    general:0.5@-1.7,0.5@0.9   forced non-lattice
    logrho:discrete:...        log odds-ratio law of an environment law

Every run writes ``<out>.csv`` (one row per data point) and
``<out>.manifest.json`` (full config echo, versions, wall time, estimator
side information such as dropped-environment counts under ``extras``).  Floats
are serialized with repr, so configs and CSVs round-trip bit-identically.
Exit codes: 0 success, 1 parse/usage error, 2 when more than
``--max-nonconverged`` series reported converged == False, or when a run
failed: a series the command needs did not converge, a step or path budget
was spent, or a built-in cross-check failed (``error: ...`` on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import secrets
import sys
import time
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .env import EnvLaw, classify_regime, sample_window
from .exact import (
    SeriesValue,
    conditioned_env,
    conditioned_return_expectation,
    expected_hit,
    hitting_prob,
    r_tail,
    return_decomposition,
    speed_and_et1,
)
from .ladder import StepLaw, overshoot_constant, phi_estimate, step_from_env, sup_tail
from .mc import (
    conditioned_sampler,
    divergence_diagnostic,
    estimate_return_conditional,
    speed_estimate,
)

CSV_HEADER = [
    "quantity",
    "param",
    "value",
    "std_error",
    "error_budget",
    "remainder_heuristic",
    "converged",
    "n",
    "method",
    "seed",
]


class CliError(Exception):
    pass


def parse_law(text: str) -> EnvLaw:
    kind, _, body = text.partition(":")
    try:
        if kind == "constant":
            return EnvLaw.constant(float(body))
        if kind == "discrete":
            pairs = []
            for item in body.split(","):
                w, _, o = item.partition("@")
                pairs.append((float(w), float(o)))
            return EnvLaw.discrete(pairs)
        if kind == "beta":
            a, b = body.split(",")
            return EnvLaw.beta_law(float(a), float(b))
    except (ValueError, TypeError) as exc:
        raise CliError(f"malformed law {text!r}: {exc}") from exc
    raise CliError(f"unknown law kind {kind!r} (want constant/discrete/beta)")


def format_law(law: EnvLaw) -> str:
    if law.kind == "constant":
        return f"constant:{law.p!r}"
    if law.kind == "discrete":
        body = ",".join(f"{w!r}@{o!r}" for w, o in zip(law.weights, law.omegas))
        return f"discrete:{body}"
    return f"beta:{law.alpha!r},{law.beta!r}"


def parse_step(text: str) -> StepLaw:
    kind, _, body = text.partition(":")
    try:
        if kind in ("lattice", "general"):
            pairs = []
            for item in body.split(","):
                w, _, v = item.partition("@")
                pairs.append((float(w), float(v)))
            return StepLaw.of(pairs, lattice="detect" if kind == "lattice" else None)
        if kind == "logrho":
            return step_from_env(parse_law(body))
    except CliError:
        raise
    except (ValueError, TypeError) as exc:
        raise CliError(f"malformed step law {text!r}: {exc}") from exc
    raise CliError(f"unknown step-law kind {kind!r} (want lattice/general/logrho)")


def _jsonable(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(x).items()}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


class _Rows:
    """Collects CSV rows and tracks non-convergence for the exit code."""

    def __init__(self, seed: int):
        self.rows: list[list[str]] = []
        self.seed = seed
        self.nonconverged = 0

    def add(
        self,
        quantity: str,
        param="",
        value=None,
        std_error=None,
        error_budget=None,
        remainder=None,
        converged=None,
        n=None,
        method=None,
        seed=None,
    ):
        if converged is False:
            self.nonconverged += 1
        self.rows.append(
            [
                quantity,
                _fmt(param),
                _fmt(value),
                _fmt(std_error),
                _fmt(error_budget),
                _fmt(remainder),
                _fmt(converged),
                _fmt(n),
                _fmt(method),
                _fmt(self.seed if seed is None else seed),
            ]
        )

    def add_series(self, quantity: str, sv: SeriesValue, param=""):
        self.add(
            quantity,
            param=param,
            value=sv.value,
            remainder=sv.remainder_bound,
            converged=sv.converged,
            n=sv.terms_used,
            method="series",
        )

    def add_estimate(self, quantity: str, est, param=""):
        self.add(
            quantity,
            param=param,
            value=est.value,
            std_error=est.std_error,
            error_budget=est.error_budget,
            n=est.n,
            method=est.method + ("".join(f"[{f}]" for f in est.flags)),
            seed=est.seed,
        )


def _write_outputs(out: str, rows: _Rows, manifest: dict) -> None:
    with open(out + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows.rows)
    with open(out + ".manifest.json", "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_seed(args) -> int:
    if args.seed is None:
        return secrets.randbits(63)
    return args.seed


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("RWRE_WORKERS", "1"))


def cmd_classify(args) -> int:
    law = parse_law(args.law)
    report = classify_regime(law)
    payload = _jsonable(dataclasses.asdict(report))
    payload["law"] = format_law(law)
    print(json.dumps(payload, sort_keys=True))
    if not args.json_only:
        width = max(len(k) for k in payload)
        for key in sorted(payload):
            print(f"{key.ljust(width)}  {payload[key]}")
    return 0


def cmd_exact(args) -> int:
    law = parse_law(args.law)
    seed = _resolve_seed(args)
    rows = _Rows(seed)
    tol = args.tol
    if args.return_decomposition:
        rd = return_decomposition(law, seed, tol=tol)
        for name in (
            "p_return",
            "e_return_indicator",
            "e_left_hit",
            "p_right_return",
            "e_cond_right",
            "e_return_given_return",
        ):
            rows.add(name, value=getattr(rd, name), method="exact")
    elif args.expected_hit is not None:
        sv = expected_hit((law, seed), args.expected_hit, args.direction, tol=tol)
        rows.add_series("expected_hit", sv, param=f"x={args.expected_hit},dir={args.direction}")
    elif args.r_tail is not None:
        sv = r_tail(law, seed, args.r_tail, tol=tol)
        rows.add_series("r_tail", sv, param=f"i={args.r_tail}")
    elif args.cond_return:
        sv = conditioned_return_expectation(law, seed, tol=tol)
        rows.add_series("conditioned_return_expectation", sv)
    elif args.conditioned_env is not None:
        window = conditioned_env(law, seed, args.conditioned_env, tol=tol)
        for x in range(window.lo, window.hi + 1):
            rows.add("omega_tilde", param=x, value=window.omega_at(x), method="exact")
    elif args.hitting_prob is not None:
        a, x, b = args.hitting_prob
        if not a <= x <= b:
            raise CliError(f"--hitting-prob needs A <= X <= B, got {a} {x} {b}")
        window = sample_window(law, seed, min(a, x) - 1, max(b, x))
        p_left, p_right = hitting_prob(window, x, a, b)
        rows.add("p_left", param=f"a={a},x={x},b={b}", value=p_left, method="exact")
        rows.add("p_right", param=f"a={a},x={x},b={b}", value=p_right, method="exact")
    elif args.speed:
        speed, e_t1 = speed_and_et1(law)
        rows.add("speed", value=speed, method="exact")
        rows.add("e_t1", value=e_t1, method="exact")
    else:
        raise CliError("exact: choose one action (see --help)")
    return _finish(args, rows, law=format_law(law), seed=seed)


def cmd_simulate(args) -> int:
    law = parse_law(args.law)
    seed = _resolve_seed(args)
    workers = _workers(args)
    rows = _Rows(seed)
    if args.speed:
        est = speed_estimate(law, horizon=args.horizon, reps=args.reps, seed=seed, workers=workers)
        rows.add_estimate("speed", est, param=f"horizon={args.horizon},reps={args.reps}")
    elif args.return_conditional:
        est = estimate_return_conditional(
            law,
            mode=args.mode,
            n_env=args.n_env,
            n_walk=args.n_walk,
            tol=args.tol,
            seed=seed,
            workers=workers,
        )
        rows.add_estimate("return_conditional", est, param=f"mode={args.mode}")
    else:
        raise CliError("simulate: choose --speed or --return-conditional")
    return _finish(args, rows, extras=est.extras, law=format_law(law), seed=seed, workers=workers)


def cmd_conditioned(args) -> int:
    law = parse_law(args.law)
    seed = _resolve_seed(args)
    workers = _workers(args)
    env_seed = args.env_seed if args.env_seed is not None else seed
    samples = conditioned_sampler(
        (law, env_seed), mode=args.mode, n=args.n, cap=args.cap, seed=seed, workers=workers
    )
    rows = _Rows(seed)
    for i, t0 in enumerate(samples):
        rows.add("t0_sample", param=i, value=int(t0), method=args.mode)
    return _finish(args, rows, law=format_law(law), seed=seed, workers=workers, env_seed=env_seed)


def cmd_ladder(args) -> int:
    step = parse_step(args.step)
    seed = _resolve_seed(args)
    workers = _workers(args)
    rows = _Rows(seed)
    extras = None
    if args.sup_tail is not None:
        est = sup_tail(step, t=args.sup_tail, n=args.n, method=args.method, seed=seed, workers=workers)
        rows.add_estimate("sup_tail", est, param=f"t={args.sup_tail},method={args.method}")
        extras = est.extras
    elif args.overshoot is not None:
        k_lo, k_hi = args.overshoot
        scan = overshoot_constant(step, range(k_lo, k_hi + 1), n=args.n, seed=seed, workers=workers)
        for entry in scan.entries:
            rows.add(
                "scaled_sup_tail",
                param=entry.k,
                value=entry.scaled,
                std_error=entry.scaled_se,
                n=scan.n_per_level,
                method="overshoot-importance",
            )
        for unit, freq in scan.overshoot_pmf.items():
            rows.add("overshoot_pmf", param=unit, value=freq, method="overshoot-importance")
        rows.add("wald_mean_s_tau", param=scan.wald.k, value=scan.wald.mean_s_tau,
                 std_error=scan.wald.se_s_tau, method="overshoot-importance")
        rows.add("wald_mean_tau", param=scan.wald.k, value=scan.wald.mean_tau,
                 std_error=scan.wald.se_tau, method="overshoot-importance")
        rows.add("wald_drift_q", param=scan.wald.k, value=scan.wald.drift_q, method="exact")
    elif args.phi is not None:
        est = phi_estimate(step, t=args.phi, n=args.n, seed=seed, workers=workers)
        rows.add_estimate("phi", est, param=f"t={args.phi}")
        extras = est.extras
    else:
        raise CliError("ladder: choose --sup-tail, --overshoot, or --phi")
    return _finish(args, rows, extras=extras, step=args.step, seed=seed, workers=workers)


def cmd_diverge(args) -> int:
    law = parse_law(args.law)
    seed = _resolve_seed(args)
    schedule = [int(s) for s in args.schedule.split(",")]
    report = divergence_diagnostic(law, schedule, seed=seed, tol=args.tol)
    rows = _Rows(seed)
    for (n, value), (_, se) in zip(report.running_means, report.running_ses):
        rows.add("running_weighted_mean", param=n, value=value, std_error=se, method="exact-rb")
    rows.add("hill_index", value=report.hill_index, n=report.n_env, method="hill-top1pct")
    for t, value in report.lemma_points:
        rows.add("t_times_survival", param=t, value=value, n=report.n_env, method="empirical")
    rows.add("lemma_min", value=report.lemma_min, n=report.n_env, method="empirical")
    rows.add("regression_index", value=report.regression_index, method="loglog-fit")
    rows.add("kappa", value=report.kappa, method="moment-root")
    extras = {"env_failures": report.env_failures}
    return _finish(args, rows, extras=extras, law=format_law(law), seed=seed, schedule=schedule)


def _finish(args, rows: _Rows, extras=None, **config) -> int:
    manifest = {
        "command": args.command,
        "config": {**_public_args(args), **config},
        "versions": {
            "rwre": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.perf_counter() - args._t0,
        "nonconverged": rows.nonconverged,
        "extras": dict(extras or {}),
    }
    _write_outputs(args.out, rows, manifest)
    if rows.nonconverged > args.max_nonconverged:
        return 2
    return 0


def _public_args(args) -> dict:
    skip = {"func", "_t0", "command"}
    return {k: v for k, v in vars(args).items() if not k.startswith("_") and k not in skip}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; parse errors are 1 here
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rwre", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, law=True):
        if law:
            p.add_argument("--law", required=True, help="environment law, e.g. constant:0.7")
        p.add_argument("--seed", type=int, default=None, help="master seed (random if absent, echoed)")
        p.add_argument("--workers", type=int, default=None, help="worker streams (default $RWRE_WORKERS or 1)")
        p.add_argument("--out", default="rwre_out", help="output prefix for .csv and .manifest.json")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-nonconverged", type=int, default=0)

    p = sub.add_parser("classify", help="regime report from the law's moments")
    p.add_argument("--law", required=True)
    p.add_argument("--json-only", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("exact", help="exact quenched computations")
    common(p)
    p.add_argument("--return-decomposition", action="store_true")
    p.add_argument("--expected-hit", type=int, default=None, metavar="X")
    p.add_argument("--direction", choices=("right", "left"), default="right")
    p.add_argument("--r-tail", type=int, default=None, metavar="I")
    p.add_argument("--cond-return", action="store_true")
    p.add_argument("--conditioned-env", type=int, default=None, metavar="HI")
    p.add_argument("--hitting-prob", type=int, nargs=3, default=None, metavar=("A", "X", "B"))
    p.add_argument("--speed", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo estimators on the walk")
    common(p)
    p.add_argument("--speed", action="store_true")
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--return-conditional", action="store_true")
    p.add_argument("--mode", choices=("quenched", "averaged"), default="quenched")
    p.add_argument("--n-env", type=int, default=1000)
    p.add_argument("--n-walk", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conditioned", help="sample conditional return times")
    common(p)
    p.add_argument("--mode", choices=("h_transform", "rejection"), default="h_transform")
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--env-seed", type=int, default=None, help="environment seed (defaults to --seed)")
    p.set_defaults(func=cmd_conditioned)

    p = sub.add_parser("ladder", help="negative-drift walk estimators")
    common(p, law=False)
    p.add_argument("--step", required=True, help="step law, e.g. lattice:0.3@+1,0.7@-1")
    p.add_argument("--sup-tail", type=float, default=None, metavar="T")
    p.add_argument("--method", choices=("importance", "naive"), default="importance")
    p.add_argument("--overshoot", type=int, nargs=2, default=None, metavar=("K_LO", "K_HI"))
    p.add_argument("--phi", type=float, default=None, metavar="T")
    p.add_argument("-n", type=int, default=100_000)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("diverge", help="weak-transience diagnostics")
    common(p)
    p.add_argument("--schedule", default="1000,10000,100000")
    p.set_defaults(func=cmd_diverge)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._t0 = t0
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:  # ConvergenceError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
