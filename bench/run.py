"""rwre CLI benchmark: three closed-loop workloads of real ``rwre`` commands.

Run from the repository root:

    python3 bench/run.py --workload env-average --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36        # every workload, one table
    python3 bench/run.py --workload all --seconds 36 --trace 1 --record bench/baseline.json

Each pass runs a workload's command list once, back to back, through
``rwre.cli.main(argv)`` in a fresh interpreter (bench/child.py), so every
pass pays the real set-up (``import rwre.cli``) and starts with cold
in-process caches.  Passes repeat while the next one is expected to end
within ``--seconds``; the reported end-to-end values are medians over
passes.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
the traced ones (bench/tracer.py) plus the tracing overhead.

Every command's CSV is checked (bench/workloads.py) and must be
byte-identical across the passes of a run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Only the standard library is used here; the program under
test is imported from ``src/`` of the checkout, never installed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REFERENCE_NOMINAL_S
from tracer import LAYERS
from workloads import COMMAND_NAMES, WORKLOADS, check_outputs, workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PASS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, in the order they are listed in BENCHMARK.json.
COUNT, SECONDS = "count", "s"
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = COUNT
    PER_LAYER[f"{_layer}.busy_s"] = SECONDS
    PER_LAYER[f"{_layer}.self_s"] = SECONDS
PER_LAYER.update({
    "rng.sites": COUNT, "rng.sites_per_s": "sites/s", "rng.sites_per_call": "sites/call",
    "env.sites": COUNT, "env.sites_per_s": "sites/s",
    "exact.series_terms": COUNT, "exact.terms_per_s": "terms/s", "exact.nonconverged": COUNT,
    "mc.path_steps": COUNT, "mc.path_steps_per_s": "steps/s", "mc.samples": COUNT,
    "mc.envs": COUNT, "mc.envs_per_s": "envs/s", "mc.env_failures": COUNT,
    "ladder.paths": COUNT, "ladder.paths_per_s": "paths/s",
    "estimate.samples": COUNT, "estimate.samples_per_s": "samples/s",
    "cli.csv_rows": COUNT, "cli.csv_bytes": "bytes",
})
PER_LAYER.update({f"cli.cmd.{name}_s": SECONDS for name in COMMAND_NAMES})
PER_LAYER.update({"trace.spans": COUNT, "trace.overhead_s": SECONDS})

# rate metric -> (count metric, time metric it is divided by)
RATES = {
    "rng.sites_per_s": ("rng.sites", "rng.self_s"),
    "rng.sites_per_call": ("rng.sites", "rng.site_calls"),
    "env.sites_per_s": ("env.sites", "env.busy_s"),
    "exact.terms_per_s": ("exact.series_terms", "exact.busy_s"),
    "mc.path_steps_per_s": ("mc.path_steps", "mc.self_s"),
    "mc.envs_per_s": ("mc.envs", "mc.busy_s"),
    "ladder.paths_per_s": ("ladder.paths", "ladder.busy_s"),
    "estimate.samples_per_s": ("estimate.samples", "estimate.self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Run:
    """The passes of one workload at one seed, and their verdicts."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = workload(name, seed)
        self.work = work
        self.passes: list[dict] = []
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool, spans_path: Path | None = None) -> dict:
        index = len(self.passes)
        out_dir = self.work / f"pass-{index}"
        out_dir.mkdir(parents=True)
        spec_path = self.work / f"pass-{index}.spec.json"
        result_path = self.work / f"pass-{index}.result.json"
        spec = {
            "src": str(SRC),
            "commands": [(c.name, c.argv) for c in self.workload.commands],
            "out_dir": str(out_dir),
            "trace": traced,
            "result": str(result_path),
            "spans_path": str(spans_path) if spans_path else None,
        }
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(spec_path), repr(time.monotonic())],
                capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=str(ROOT),
            )
            stderr = proc.stderr
            record = json.loads(result_path.read_text()) if result_path.exists() else None
        except subprocess.TimeoutExpired:
            stderr, record = f"pass timed out after {PASS_TIMEOUT_S} s", None
        if record is None:
            record = {"commands": [{"name": c.name, "exit": None, "error": stderr.strip()[-500:]}
                                   for c in self.workload.commands]}
        record["traced"] = traced
        self._judge(record, out_dir)
        shutil.rmtree(out_dir)
        self.passes.append(record)
        return record

    def _judge(self, record: dict, out_dir: Path) -> None:
        """Count attempts and failures: exit code, exception, output checks."""
        outputs, bad = {}, {}
        csv_rows = csv_bytes = 0
        for entry in record["commands"]:
            name = entry["name"]
            self.attempted += 1
            if entry["exit"] != 0 or entry["error"]:
                bad[name] = f"exit {entry['exit']}: {entry['error']}"
                continue
            path = out_dir / f"{name}.csv"
            data = path.read_bytes()
            csv_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if self.hashes.setdefault(name, digest) != digest:
                bad[name] = "CSV differs from the first pass of this run"
            with open(path, newline="") as fh:
                outputs[name] = list(csv.DictReader(fh))
            csv_rows += len(outputs[name])
        for name, problems in check_outputs(self.workload.name, outputs).items():
            if problems and name not in bad:
                bad[name] = "; ".join(problems)
        record["csv_rows"], record["csv_bytes"] = csv_rows, csv_bytes
        self.failed += len(bad)
        self.problems += [f"pass {len(self.passes)} {name}: {why}" for name, why in bad.items()]
        self.problems += [f"pass {len(self.passes)} tracer count: {e}" for e in record.get("count_errors", [])]

    # ------------------------------------------------------------ metrics

    def _untraced(self) -> list[dict]:
        return [p for p in self.passes if not p["traced"] and "peak_rss_mb" in p]

    def end_to_end(self) -> dict[str, float]:
        """Medians over untraced passes, times scaled to the nominal speed.

        A command's wall and CPU time are multiplied by REFERENCE_NOMINAL_S
        over the mean of the reference timings taken just before and just
        after it; set-up is scaled by the first reference timing of its pass.
        """
        ps = self._untraced()
        if not ps:
            return {}

        def scaled(p, key):
            refs = p["reference_s"]
            return sum(c[key] * 2.0 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1])
                       for i, c in enumerate(p["commands"]))

        return {
            "wall_s": statistics.median(scaled(p, "wall_s") for p in ps),
            "cpu_s": statistics.median(scaled(p, "cpu_s") for p in ps),
            "setup_s": statistics.median(p["setup_s"] * REFERENCE_NOMINAL_S / p["reference_s"][0] for p in ps),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ps),
        }

    def raw(self) -> dict[str, float]:
        """Unscaled median pass wall time and median reference timing."""
        ps = self._untraced()
        return {
            "wall_s": statistics.median(sum(c["wall_s"] for c in p["commands"]) for p in ps),
            "reference_s": statistics.median(r for p in ps for r in p["reference_s"]),
        } if ps else {}

    def _traced_values(self) -> list[dict]:
        """Flat per-layer values of each traced pass.

        Times (keys ending in ``_s``) are scaled to the nominal speed by one
        factor per pass, from the median of its reference timings, so that
        the self times of all layers still add up to the pass time.
        """
        values = []
        for p in self.passes:
            if not (p["traced"] and "layers" in p):
                continue
            v = dict(p["layers"])
            v["trace.wall_s"] = sum(c["wall_s"] for c in p["commands"])
            for c in p["commands"]:
                v[f"cli.cmd.{c['name']}_s"] = c["wall_s"]
            factor = REFERENCE_NOMINAL_S / statistics.median(p["reference_s"])
            v = {k: x * factor if k.endswith("_s") else x for k, x in v.items()}
            v.update(p["counts"])
            v["cli.csv_rows"], v["cli.csv_bytes"] = p["csv_rows"], p["csv_bytes"]
            v["trace.spans"] = p["spans"]
            values.append(v)
        return values

    def count_mismatches(self) -> list[str]:
        """Counts that differ between traced passes (they must repeat exactly)."""
        values = self._traced_values()
        keys = [k for k in set().union(*values) if PER_LAYER.get(k) not in (SECONDS, None)
                and k in PER_LAYER and "_per_" not in k]
        return [f"count {k} differs across traced passes: {[v.get(k, 0) for v in values]}"
                for k in sorted(keys) if len({v.get(k, 0) for v in values}) != 1]

    def per_layer(self) -> dict[str, float]:
        """Medians of times over traced passes, counts of the first, rates."""
        values = self._traced_values()
        if not values:
            return {}
        out = {}
        for key in set().union(*values):
            xs = [v.get(key, 0) for v in values]
            out[key] = statistics.median(xs) if key.endswith("_s") else xs[0]
        for rate, (num, den) in RATES.items():
            out[rate] = _ratio(out.get(num, 0), out.get(den, 0))
        out["trace.overhead_s"] = out["trace.wall_s"] - self.end_to_end().get("wall_s", 0.0)
        return {k: out.get(k, 0) for k in PER_LAYER}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and not self.count_mismatches()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 spans_path: Path | None = None) -> Run:
    """Passes while the next one, as long as the longest so far, would end
    within ``seconds``.

    At least one pass of each kind the run needs is made, so a tiny budget
    still gives a result.
    """
    run = Run(name, seed, work)
    needed = {False, True} if trace else {False}
    start = last = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(run.passes) % 2 == 1
        run.run_pass(traced, spans_path if traced else None)
        now = time.monotonic()
        longest, last = max(longest, now - last), now
        if {p["traced"] for p in run.passes} >= needed and now - start + longest > seconds:
            return run


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _summary(run: Run) -> str:
    e2e = run.end_to_end()
    n_untraced = len(run._untraced())
    fail_frac = run.failed / max(run.attempted, 1)
    parts = [f"{k}={_fmt(e2e[k])} {u}" for k, u in END_TO_END.items() if k in e2e]
    parts.append(f"fail_frac={_fmt(fail_frac)} fraction ({run.failed}/{run.attempted})")
    parts += [f"(unscaled {k}={_fmt(v)} s)" for k, v in run.raw().items()]
    return f"{run.workload.name}: {n_untraced} untraced of {len(run.passes)} passes; " + " ".join(parts)


def _machine() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=str(ROOT))
        sha = proc.stdout.strip() or None
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True,
    ).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe[0] if probe else None,
        "scipy": probe[1] if len(probe) > 1 else None,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, metavar="PATH",
                    help="with --workload all --trace 1: write machine, commands and layer shares as JSON")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running pass is killed and
    # waited for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "rwre" / "cli.py").is_file():
        print(f"error: no rwre sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record and not (args.workload == "all" and args.trace):
        print("error: --record needs --workload all --trace 1", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"run-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            spans = BENCH / ".work" / f"{name}.spans.csv.gz" if args.trace else None
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), work / name, spans)
            runs.append(run)
            print(_summary(run), flush=True)
            for problem in run.problems + run.count_mismatches():
                print(f"  FAILED {problem}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for run in runs:
        prefix = f"{run.workload.name}." if args.workload == "all" else ""
        if args.trace:
            values, units = run.per_layer(), PER_LAYER
        else:
            values, units = run.end_to_end(), END_TO_END
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values.get(key, 0), "unit": unit}
        if prefix:
            metrics[prefix + "fail_frac"] = {"value": run.failed / max(run.attempted, 1), "unit": "fraction"}

    if args.record:
        _write_record(Path(args.record), runs, args.seed)

    result = {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _write_record(path: Path, runs: list[Run], seed: int) -> None:
    whys = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    record = {"machine": _machine(), "seed": seed, "workloads": {}}
    for run in runs:
        layers = run.per_layer()
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        record["workloads"][run.workload.name] = {
            "why": whys[run.workload.name],
            "commands": ["rwre " + " ".join(c.argv) for c in run.workload.commands],
            "passes": len(run.passes),
            "end_to_end": run.end_to_end(),
            "unscaled": run.raw(),
            "fail_frac": run.failed / max(run.attempted, 1),
            "self_share": {layer: round(layers[f"{layer}.self_s"] / total, 4) for layer in LAYERS},
            "per_layer": layers,
        }
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
