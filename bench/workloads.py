"""Workload definitions and output checks for the rwre CLI benchmark.

A workload is a fixed list of ``rwre`` CLI invocations.  The benchmark's
``--seed`` only shifts the command seeds (seed 0 gives the seeds of the
acceptance criteria the commands come from), so the same seed always gives
the same command lines.  The environment seed of the ``path-short``
conditioned commands stays at 101 for every seed: FIX-C has an infinite
averaged conditional return time, so the cost of sampling one environment is
heavy-tailed across environments, and a per-seed environment would make the
workload's size, not the code's speed, drive its timings.

Checks use only the standard library.  They hold for every seed: closed
forms, an in-run oracle (``exact --cond-return`` for the conditioned
samplers) and statistical bands of ``Z_BAND`` standard errors, whose
false-alarm rate (below 1e-6 per comparison) stays negligible over the
hundreds of runs a benchmark campaign makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FIX_A = "discrete:0.5@0.8,0.5@0.6"
FIX_C = "discrete:0.5@0.75,0.5@0.3333333333333333"
FIX_F = "discrete:0.5@0.8,0.5@0.3333333333333333"
BETA = "beta:5,2"
CONST = "constant:0.7"
LATTICE = "lattice:0.3@+1,0.7@-1"
GENERAL = "general:0.5@-1.7,0.5@0.9"
ENV_SEED = 101
WORKERS = "2"

Z_BAND = 5.0  # two-sided normal false-alarm rate 5.7e-7
KS_ALPHA = 1e-6
ENV_FAIL_FRACTION = 1e-3  # environments rwre may drop as non-convergent

# Reference for the FIX-A averaged conditional return time: the same
# estimator over 10^5 environments at master seed 987654321, disjoint from
# every workload seed.  FIX-A has rho <= 2/3, so the per-environment values
# are bounded and the delta-method standard error is reliable.
FIX_A_AVG_REF = (4.355907062941151, 0.0023353259343943103)


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


def _seed(base: int, seed: int) -> str:
    return str((base + 1000 * seed) % 2**63)


def workload(name: str, seed: int) -> Workload:
    """The command list of workload ``name`` for benchmark seed ``seed``."""
    if name == "env-average":
        return Workload(
            name,
            (
                Command("diverge_fixc", (
                    "diverge", "--law", FIX_C, "--schedule", "1000,4000",
                    "--seed", _seed(3, seed), "--tol", "1e-8", "--workers", WORKERS)),
                Command("avg_fixa", (
                    "simulate", "--law", FIX_A, "--return-conditional", "--mode", "averaged",
                    "--n-env", "2000", "--seed", _seed(1, seed), "--workers", WORKERS)),
                Command("avg_beta", (
                    "simulate", "--law", BETA, "--return-conditional", "--mode", "averaged",
                    "--n-env", "200", "--seed", _seed(2, seed), "--workers", WORKERS)),
            ),
        )
    if name == "walk-long":
        return Workload(
            name,
            (
                Command("speed_fixa", (
                    "simulate", "--law", FIX_A, "--speed", "--horizon", "100000",
                    "--reps", "100", "--seed", _seed(12, seed), "--workers", WORKERS)),
                Command("speed_const", (
                    "simulate", "--law", CONST, "--speed", "--horizon", "100000",
                    "--reps", "100", "--seed", _seed(12, seed), "--workers", WORKERS)),
            ),
        )
    if name == "path-short":
        env = str(ENV_SEED)
        return Workload(
            name,
            (
                Command("cond_h", (
                    "conditioned", "--law", FIX_C, "--mode", "h_transform", "-n", "10000",
                    "--seed", _seed(31, seed), "--env-seed", env, "--workers", WORKERS)),
                Command("cond_rej", (
                    "conditioned", "--law", FIX_C, "--mode", "rejection", "-n", "10000",
                    "--seed", _seed(32, seed), "--env-seed", env, "--workers", WORKERS)),
                Command("exact_cond", (
                    "exact", "--law", FIX_C, "--cond-return", "--seed", env,
                    "--tol", "1e-12", "--workers", WORKERS)),
                Command("sup_naive", (
                    "ladder", "--step", LATTICE, "--sup-tail", "4", "--method", "naive",
                    "-n", "1000000", "--seed", _seed(8, seed), "--workers", WORKERS)),
                Command("sup_imp", (
                    "ladder", "--step", LATTICE, "--sup-tail", "4", "--method", "importance",
                    "-n", "1000000", "--seed", _seed(8, seed), "--workers", WORKERS)),
                Command("sup_float", (
                    "ladder", "--step", GENERAL, "--sup-tail", "6", "--method", "importance",
                    "-n", "300000", "--seed", _seed(8, seed), "--workers", WORKERS)),
                Command("overshoot", (
                    "ladder", "--step", "logrho:" + FIX_F, "--overshoot", "10", "20",
                    "-n", "100000", "--seed", _seed(9, seed), "--workers", WORKERS)),
                Command("phi", (
                    "ladder", "--step", "logrho:" + FIX_F, "--phi", "6",
                    "-n", "100000", "--seed", _seed(10, seed), "--workers", WORKERS)),
            ),
        )
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("env-average", "walk-long", "path-short")
COMMAND_NAMES = tuple(c.name for w in WORKLOADS for c in workload(w, 0).commands)


# ---------------------------------------------------------------- checks

def _num(text: str) -> float:
    return float(text) if text else math.nan


def _only(rows: list[dict], quantity: str) -> dict:
    hits = [r for r in rows if r["quantity"] == quantity]
    if len(hits) != 1:
        raise ValueError(f"expected one {quantity!r} row, found {len(hits)}")
    return hits[0]


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing-through-zero f on [lo, hi] to 1e-15."""
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(mid) > 0.0 else (mid, hi)
    return 0.5 * (lo + hi)


def ks_statistic(a: list[float], b: list[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, exact with ties."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    d = 0.0
    while i < len(a) and j < len(b):
        x = min(a[i], b[j])
        while i < len(a) and a[i] == x:
            i += 1
        while j < len(b) and b[j] == x:
            j += 1
        d = max(d, abs(i / len(a) - j / len(b)))
    return d


def _mean_se(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean = math.fsum(xs) / n
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


def _check_speed(rows, truth: float) -> list[str]:
    row = _only(rows, "speed")
    v, se = _num(row["value"]), _num(row["std_error"])
    if not (se > 0.0 and abs(v - truth) <= Z_BAND * se):
        return [f"speed {v!r} +- {se!r} not within {Z_BAND} SE of {truth!r}"]
    return []


def _check_averaged(rows, n_env: int) -> list[str]:
    row = _only(rows, "return_conditional")
    v, se, n = _num(row["value"]), _num(row["std_error"]), int(row["n"])
    problems = []
    # e_return_indicator >= 1 + p_return, so the ratio exceeds 1 + 1/p >= 2.
    if not (math.isfinite(v) and v > 2.0 and math.isfinite(se) and se > 0.0):
        problems.append(f"averaged estimate {v!r} +- {se!r} not a finite value > 2")
    if n < n_env * (1.0 - ENV_FAIL_FRACTION) or n > n_env:
        problems.append(f"averaged estimate used {n} of {n_env} environments")
    if row["method"] != "return-conditional-averaged-rb":  # E[rho] < 1: no flag
        problems.append(f"unexpected method/flags {row['method']!r}")
    return problems


def _check_env_average(out: dict) -> dict[str, list[str]]:
    res: dict[str, list[str]] = {}
    rows = out["diverge_fixc"]
    hill = _num(_only(rows, "hill_index")["value"])
    lemma = _num(_only(rows, "lemma_min")["value"])
    kappa = _num(_only(rows, "kappa")["value"])
    oracle = _bisect(lambda k: 0.5 * (3.0**-k + 2.0**k) - 1.0, 0.1, 1.0)
    means = [_num(r["value"]) for r in rows if r["quantity"] == "running_weighted_mean"]
    p = []
    if not hill < 0.9:
        p.append(f"Hill index {hill!r} >= 0.9")
    if not lemma >= 0.05:
        p.append(f"lemma_min {lemma!r} < 0.05")
    if not abs(kappa - oracle) <= 1e-9:
        p.append(f"kappa {kappa!r} vs moment-equation root {oracle!r}")
    if len(means) != 2 or not all(math.isfinite(m) and m > 0.0 for m in means):
        p.append(f"running means {means!r}")
    res["diverge_fixc"] = p

    p = _check_averaged(out["avg_fixa"], 2000)
    row = _only(out["avg_fixa"], "return_conditional")
    v, se = _num(row["value"]), _num(row["std_error"])
    ref, ref_se = FIX_A_AVG_REF
    if not abs(v - ref) <= Z_BAND * math.hypot(se, ref_se):
        p.append(f"FIX-A averaged {v!r} +- {se!r} vs reference {ref!r} +- {ref_se!r}")
    res["avg_fixa"] = p
    res["avg_beta"] = _check_averaged(out["avg_beta"], 200)
    return res


def _check_walk_long(out: dict) -> dict[str, list[str]]:
    return {
        # (1 - E rho)/(1 + E rho) with E rho = 11/24
        "speed_fixa": _check_speed(out["speed_fixa"], 13.0 / 35.0),
        "speed_const": _check_speed(out["speed_const"], 0.4),
    }


def _check_path_short(out: dict) -> dict[str, list[str]]:
    res: dict[str, list[str]] = {}
    exact = _only(out["exact_cond"], "conditioned_return_expectation")
    target = _num(exact["value"])
    res["exact_cond"] = [] if exact["converged"] == "True" and math.isfinite(target) else [
        f"exact conditional return {exact!r} did not converge"]

    samples = {}
    for name in ("cond_h", "cond_rej"):
        xs = [int(r["value"]) for r in out[name] if r["quantity"] == "t0_sample"]
        p = []
        if len(xs) != 10000:
            p.append(f"{len(xs)} samples, want 10000")
        if any(x % 2 != 1 for x in xs):
            p.append("a return time from 1 to 0 is even")
        mean, se = _mean_se(xs)
        if not abs(mean - target) <= Z_BAND * se + _num(exact["remainder_heuristic"]):
            p.append(f"mean {mean!r} +- {se!r} vs exact {target!r}")
        samples[name] = xs
        res[name] = p
    h, r = samples["cond_h"], samples["cond_rej"]
    crit = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) * math.sqrt((len(h) + len(r)) / (len(h) * len(r)))
    ks = ks_statistic(h, r)
    if not ks < crit:
        res["cond_rej"].append(f"KS(h_transform, rejection) = {ks!r} >= {crit!r}")

    imp = _only(out["sup_imp"], "sup_tail")
    nai = _only(out["sup_naive"], "sup_tail")
    vi, sei = _num(imp["value"]), _num(imp["std_error"])
    vn, sen, budget = _num(nai["value"]), _num(nai["std_error"]), _num(nai["error_budget"])
    truth = (3.0 / 7.0) ** 4
    res["sup_imp"] = [] if abs(vi - truth) <= 1e-12 * truth and sei == 0.0 else [
        f"importance {vi!r} +- {sei!r} vs (3/7)^4 = {truth!r} with SE 0"]
    res["sup_naive"] = [] if abs(vn - vi) <= Z_BAND * math.hypot(sen, sei) + budget else [
        f"naive {vn!r} +- {sen!r} vs importance {vi!r}"]

    # Every importance weight e^{-gamma S_tau} has t <= S_tau < t + 0.9
    # (the largest up-step), so the mean lies in [e^{-gamma(t+0.9)}, e^{-gamma t}].
    gamma = _bisect(lambda g: 0.5 * (math.exp(-1.7 * g) + math.exp(0.9 * g)) - 1.0, 1e-6, 10.0)
    fl = _only(out["sup_float"], "sup_tail")
    vf = _num(fl["value"])
    lo, hi = math.exp(-gamma * 6.9), math.exp(-gamma * 6.0)
    res["sup_float"] = [] if lo * (1 - 1e-9) <= vf <= hi * (1 + 1e-9) and _num(fl["std_error"]) > 0 else [
        f"float-path importance {vf!r} outside Lundberg bracket [{lo!r}, {hi!r}]"]

    rows = out["overshoot"]
    ents = [(_num(r["value"]), _num(r["std_error"])) for r in rows if r["quantity"] == "scaled_sup_tail"]
    p = []
    if len(ents) != 11:
        p.append(f"{len(ents)} overshoot levels, want 11")
    if not all(0.0 < v <= 1.0 + 1e-12 for v, _ in ents):  # e^{-gamma * overshoot} <= 1
        p.append("a scaled crossing probability lies outside (0, 1]")
    for i in range(len(ents)):
        for j in range(i + 1, len(ents)):
            (a, sa), (b, sb) = ents[i], ents[j]
            if abs(a - b) > Z_BAND * math.hypot(sa, sb) + 1e-12:
                p.append(f"levels {i} and {j} disagree: {a!r} vs {b!r}")
    pmf = math.fsum(_num(r["value"]) for r in rows if r["quantity"] == "overshoot_pmf")
    if abs(pmf - 1.0) > 1e-12:
        p.append(f"overshoot pmf sums to {pmf!r}")
    s = _only(rows, "wald_mean_s_tau")
    t = _only(rows, "wald_mean_tau")
    q = _num(_only(rows, "wald_drift_q")["value"])
    gap = abs(_num(s["value"]) - q * _num(t["value"]))
    if gap > Z_BAND * (_num(s["std_error"]) + abs(q) * _num(t["std_error"])):
        p.append(f"Wald identity gap {gap!r}")
    res["overshoot"] = p

    phi = _only(out["phi"], "phi")
    v = _num(phi["value"])
    res["phi"] = [] if math.isfinite(v) and v >= 1.0 and _num(phi["std_error"]) > 0 else [
        f"phi(6) = {v!r} not a finite value >= 1"]
    return res


_CHECKS = {
    "env-average": _check_env_average,
    "walk-long": _check_walk_long,
    "path-short": _check_path_short,
}


def check_outputs(name: str, out: dict) -> dict[str, list[str]]:
    """Problems per command; ``out`` maps command name to its CSV rows.

    Commands missing from ``out`` (they failed to run) are skipped here;
    their failure is already counted.  A check that cannot read the rows
    it needs reports that as a problem of the command it was checking.
    """
    try:
        return _CHECKS[name](out)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        missing = {c.name for c in workload(name, 0).commands} - set(out)
        if missing:
            return {}
        return {c.name: [f"output check could not run: {exc!r}"] for c in workload(name, 0).commands}
