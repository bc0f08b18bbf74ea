"""Law grammar, command dispatch, CSV/manifest outputs, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwre
from rwre import cli
from rwre.cli import format_law, main, parse_law, parse_step
from rwre.env import EnvLaw

from laws import FIX_A, FIX_C, FIX_D


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


class TestLawGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "constant:0.7",
            "discrete:0.5@0.75,0.5@0.333333",
            "beta:5,2",
            "discrete:0.25@0.1,0.25@0.2,0.5@0.9",
        ],
    )
    def test_round_trip(self, text):
        law = parse_law(text)
        assert parse_law(format_law(law)) == law

    def test_constant_is_the_one_atom_discrete_law(self):
        law = EnvLaw.constant(0.7)
        assert law == EnvLaw.discrete([(1.0, 0.7)]) == parse_law("discrete:1.0@0.7")
        assert format_law(law) == format_law(parse_law("discrete:1.0@0.7")) == "constant:0.7"
        assert parse_law(format_law(law)) == law

    def test_round_trip_preserves_float_noise(self):
        assert parse_law(format_law(FIX_C)) == FIX_C
        assert parse_law(format_law(FIX_D)) == FIX_D

    def test_malformed(self, capsys):
        assert main(["classify", "--law", "bogus:1"]) == 1
        assert main(["classify", "--law", "discrete:0.5@0.75"]) == 1
        assert "error" in capsys.readouterr().err

    def test_step_grammar(self):
        step = parse_step("lattice:0.3@+1,0.7@-1")
        assert step.lattice == pytest.approx(1.0)
        assert parse_step("general:0.5@-1.7,0.5@0.9").lattice is None
        logrho = parse_step("logrho:constant:0.7")
        assert logrho.values[0] == pytest.approx(math.log(3.0 / 7.0))

    def test_usage_error_exit_1(self, capsys):
        assert main(["classify"]) == 1
        capsys.readouterr()


class TestClassifyCommand:
    def test_fix_c(self, capsys):
        assert main(["classify", "--law", "discrete:0.5@0.75,0.5@0.333333", "--json-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["direction"] == "right"
        assert payload["speed"] == 0.0
        assert payload["quenched_strongly_transient"] is True
        assert payload["averaged_strongly_transient"] == "no"

    def test_recurrent(self, capsys):
        assert main(["classify", "--law", "constant:0.5", "--json-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["direction"] == "recurrent"

    def test_beta(self, capsys):
        assert main(["classify", "--law", "beta:5,2", "--json-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["speed"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert payload["kappa"] == pytest.approx(3.0, abs=1e-9)

    def test_human_table(self, capsys):
        assert main(["classify", "--law", "constant:0.7"]) == 0
        out = capsys.readouterr().out
        assert "direction" in out and "speed" in out


class TestExactCommand:
    def test_return_decomposition_values(self, tmp_path):
        out = str(tmp_path / "rd")
        code = main(
            ["exact", "--law", "constant:0.7", "--return-decomposition", "--seed", "5",
             "--tol", "1e-13", "--out", out]
        )
        assert code == 0
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(out + ".csv")}
        assert rows["p_return"] == pytest.approx(0.6, abs=1e-12)
        assert rows["e_return_given_return"] == pytest.approx(25.0 / 6.0, abs=1e-9)

    def test_nonconverged_exit_2(self, tmp_path):
        out = str(tmp_path / "div")
        code = main(
            ["exact", "--law", "constant:0.7", "--expected-hit", "0", "--direction", "left",
             "--seed", "1", "--out", out]
        )
        assert code == 2
        manifest = read_manifest(out + ".manifest.json")
        assert manifest["nonconverged"] == 1

    def test_max_nonconverged_allows_that_many(self, tmp_path):
        out = str(tmp_path / "div")
        code = main(
            ["exact", "--law", "constant:0.7", "--expected-hit", "0", "--direction", "left",
             "--seed", "1", "--max-nonconverged", "1", "--out", out]
        )
        assert code == 0
        manifest = read_manifest(out + ".manifest.json")
        assert manifest["nonconverged"] == 1 and manifest["config"]["max_nonconverged"] == 1

    def test_convergence_error_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "rd")
        code = main(
            ["exact", "--law", "constant:0.7", "--return-decomposition", "--seed", "5",
             "--tol", "0", "--out", out]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_hitting_prob(self, tmp_path):
        out = str(tmp_path / "hp")
        assert main(
            ["exact", "--law", "constant:0.5", "--hitting-prob", "0", "3", "10",
             "--seed", "1", "--out", out]
        ) == 0
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(out + ".csv")}
        assert rows["p_left"] == pytest.approx(0.7, abs=1e-12)

    def test_hitting_prob_rejects_unordered_sites(self, tmp_path, capsys):
        out = tmp_path / "hp"
        assert main(["exact", "--law", "constant:0.7", "--hitting-prob", "5", "0", "3",
                     "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "A <= X <= B" in err
        assert not (tmp_path / "hp.csv").exists()


FLOAT_STEP = ["--step", "general:0.5@-1.7,0.5@0.9"]  # overrides the lattice step before it


class TestLadderCommand:
    def test_sup_tail_zero_variance(self, tmp_path):
        out = str(tmp_path / "lad")
        code = main(
            ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--sup-tail", "10",
             "--method", "importance", "-n", "1", "--seed", "1", "--out", out]
        )
        assert code == 0
        row = read_csv(out + ".csv")[0]
        assert float(row["value"]) == pytest.approx((3.0 / 7.0) ** 10, rel=1e-12)
        assert float(row["std_error"]) == 0.0

    @pytest.mark.parametrize("args,message", [
        (["--sup-tail", "4", "-n", "0"], "n >= 1"),
        (["--phi", "4", "-n", "-3"], "n >= 1"),
        (["--overshoot", "20", "10"], "nonempty k_range"),
        # non-finite levels on a float law, where no lattice rounding rejects them
        ([*FLOAT_STEP, "--sup-tail", "nan", "--method", "naive"], "finite level"),
        ([*FLOAT_STEP, "--sup-tail", "nan", "--method", "importance"], "finite level"),
        ([*FLOAT_STEP, "--sup-tail", "inf"], "finite level"),
        ([*FLOAT_STEP, "--phi", "nan"], "finite level"),
        ([*FLOAT_STEP, "--phi", "inf"], "finite level"),
    ])
    def test_rejects_no_paths_or_levels(self, tmp_path, capsys, args, message):
        out = tmp_path / "lad"
        code = main(["ladder", "--step", "lattice:0.3@+1,0.7@-1", *args, "--seed", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "lad.csv").exists()

    def test_root_bracket_failure_exit_2(self, tmp_path, capsys):
        # a drift of -5e-10 puts the tilting root gamma beyond its bracket cap
        code = main(["ladder", "--step", "general:0.5@-1,0.5@1e-9", "--sup-tail", "1",
                     "-n", "10", "--seed", "1", "--out", str(tmp_path / "lad")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bracket cap" in err

    def test_sup_tail_extras_in_manifest(self, tmp_path):
        out = str(tmp_path / "lad")
        assert main(["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--sup-tail", "4",
                     "--method", "naive", "-n", "1000", "--seed", "1", "--out", out]) == 0
        extras = read_manifest(out + ".manifest.json")["extras"]
        assert set(extras) == {"gamma", "censor_level"}
        assert extras["gamma"] == pytest.approx(math.log(7.0 / 3.0), rel=1e-9)


class TestConditionedCommand:
    @pytest.mark.parametrize("flag,value", [("-n", "-5"), ("-n", "0"), ("--cap", "0")])
    def test_rejects_nonpositive_sizes(self, tmp_path, capsys, flag, value):
        code = main(["conditioned", "--law", "discrete:0.5@0.8,0.5@0.6", "--mode", "rejection",
                     flag, value, "--seed", "1", "--out", str(tmp_path / "c")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{flag.lstrip('-')} >= 1" in err
        assert not (tmp_path / "c.csv").exists()

    def test_path_cap_exhausted_exit_2(self, tmp_path, capsys):
        code = main(["conditioned", "--law", format_law(FIX_C), "--mode", "rejection",
                     "-n", "10", "--cap", "5", "--env-seed", "101", "--seed", "1",
                     "--out", str(tmp_path / "c")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "path cap 5 exhausted" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("mode,samples", [
        ("h_transform", [1, 19, 1, 5, 3, 27, 1, 3, 19, 19, 1, 1]),
        ("rejection", [3, 3, 1, 1, 1, 19, 1, 27, 437, 19, 407, 199]),
    ])
    def test_sample_rows_pinned(self, tmp_path, mode, samples):
        out = tmp_path / "c"
        code = main(["conditioned", "--law", format_law(FIX_C), "--mode", mode, "-n", "12",
                     "--seed", "5", "--env-seed", "101", "--workers", "2", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "quantity,param,value,std_error,error_budget,remainder_heuristic," \
                           "converged,n,method,seed"
        assert lines[1:] == [f"t0_sample,{i},{t},,,,,,{mode},5" for i, t in enumerate(samples)]
        assert read_manifest(tmp_path / "c.manifest.json")["nonconverged"] == 0

    @pytest.mark.parametrize("mode", ["h_transform", "rejection"])
    def test_sample_rows_are_what_csv_writer_writes(self, tmp_path, monkeypatch, mode):
        # The sample rows are rendered as one text block; they must be the
        # bytes csv.writer writes for the rows ``add`` would have made.
        drawn, sampler = [], cli.conditioned_sampler
        monkeypatch.setattr(cli, "conditioned_sampler",
                            lambda *args, **kw: drawn.append(sampler(*args, **kw)) or drawn[-1])
        out = tmp_path / "c"
        assert main(["conditioned", "--law", format_law(FIX_C), "--mode", mode, "-n", "2000",
                     "--seed", "7", "--env-seed", "101", "--out", str(out)]) == 0
        rows = cli._Rows(7)
        for i, t in enumerate(drawn[0].tolist()):
            rows.add("t0_sample", param=i, value=t, method=mode)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(cli.CSV_HEADER)
        writer.writerows(rows.rows)
        assert (tmp_path / "c.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("quantity,method", [
        ("t0,sample", "rejection"), ('t0"sample', "rejection"), ("t0_sample", "a\nb"),
        ("t0_sample", "a\rb"), ("t0_sample", "a,b"),
    ])
    def test_sample_rows_refuse_names_csv_would_quote(self, quantity, method):
        with pytest.raises(ValueError, match="plain names"):
            cli._Rows(1).add_samples(quantity, np.arange(3), method)


class TestSimulateCommand:
    @pytest.mark.parametrize("flag,value", [
        ("--horizon", "0"), ("--horizon", "-3"), ("--reps", "0"),
    ])
    def test_speed_rejects_nonpositive_sizes(self, tmp_path, capsys, flag, value):
        args = ["simulate", "--law", "constant:0.7", "--speed", "--horizon", "100",
                "--reps", "5", "--seed", "1", "--out", str(tmp_path / "s")]
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{flag[2:]} >= 1" in err
        assert not (tmp_path / "s.csv").exists()


class TestReturnConditionalCommand:
    @pytest.mark.parametrize("n_env", ["0", "-5"])
    def test_averaged_rejects_nonpositive_n_env(self, tmp_path, capsys, n_env):
        code = main(
            ["simulate", "--law", "constant:0.7", "--return-conditional", "--mode", "averaged",
             "--n-env", n_env, "--seed", "1", "--out", str(tmp_path / "a")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_env >= 1" in err
        assert not (tmp_path / "a.csv").exists()

    def test_failed_cross_check_exit_2(self, tmp_path, capsys):
        # one walk cannot give the two returns the walk-level cross-check needs
        code = main(["simulate", "--law", "constant:0.7", "--return-conditional",
                     "--mode", "quenched", "--n-walk", "1", "--seed", "1",
                     "--out", str(tmp_path / "q")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too few returns" in err
        assert not (tmp_path / "q.csv").exists()


    def test_averaged_extras_in_manifest(self, tmp_path):
        out = str(tmp_path / "a")
        assert main(["simulate", "--law", "discrete:0.5@0.8,0.5@0.6", "--return-conditional",
                     "--mode", "averaged", "--n-env", "30", "--seed", "1", "--out", out]) == 0
        assert read_manifest(out + ".manifest.json")["extras"] == {"env_failures": 0.0}

    def test_averaged_csv_does_not_depend_on_workers(self, tmp_path):
        args = ["simulate", "--law", "discrete:0.5@0.8,0.5@0.6", "--return-conditional",
                "--mode", "averaged", "--n-env", "30", "--seed", "1"]
        for workers in ("1", "4"):
            out = str(tmp_path / workers)
            assert main(args + ["--workers", workers, "--out", out]) == 0
            assert read_manifest(out + ".manifest.json")["config"]["workers"] == int(workers)
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "4.csv").read_bytes()


LATTICE = "lattice:0.3@+1,0.7@-1"


class TestOneActionPerCommand:
    @pytest.mark.parametrize("args", [
        ["exact", "--law", "constant:0.7", "--speed", "--r-tail", "3"],
        ["exact", "--law", "constant:0.7", "--cond-return", "--hitting-prob", "-1", "0", "1"],
        ["exact", "--law", "constant:0.7"],
        ["simulate", "--law", "constant:0.7", "--speed", "--return-conditional"],
        ["simulate", "--law", "constant:0.7"],
        ["ladder", "--step", LATTICE, "--sup-tail", "4", "--phi", "3"],
        ["ladder", "--step", LATTICE, "--overshoot", "2", "3", "--sup-tail", "4"],
        ["ladder", "--step", LATTICE],
        ["exact", "--law", "constant:0.7", "--r-tail", "2", "--direction", "left"],
        ["ladder", "--step", LATTICE, "--phi", "2", "-n", "100", "--method", "naive"],
        ["simulate", "--law", "constant:0.7", "--speed", "--mode", "averaged"],
    ])
    def test_none_or_two_actions_exit_1(self, tmp_path, capsys, args):
        assert main(args + ["--seed", "1", "--out", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and ("not allowed with" in err or "is required" in err)
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("args", [
        ["ladder", "--step", LATTICE, "--sup-tail", "4", "-n", "100"],
        ["conditioned", "--law", "constant:0.7", "-n", "10", "--env-seed", "1"],
    ])
    def test_tol_rejected_where_unread(self, tmp_path, capsys, args):
        assert main(args + ["--seed", "1", "--out", str(tmp_path / "a"), "--tol", "5"]) == 1
        assert "unrecognized arguments: --tol 5" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()
        assert main(args + ["--seed", "1", "--out", str(tmp_path / "a")]) == 0
        assert "tol" not in read_manifest(str(tmp_path / "a.manifest.json"))["config"]

    @pytest.mark.parametrize("args", [
        ["ladder", "--step", LATTICE, "--phi", "2", "-n", "100"],
        ["conditioned", "--law", "constant:0.7", "-n", "10", "--env-seed", "1"],
        ["simulate", "--law", "constant:0.7", "--speed", "--horizon", "200", "--reps", "3"],
        ["diverge", "--law", "constant:0.7", "--schedule", "10,20"],
    ])
    def test_max_nonconverged_is_an_exact_option(self, tmp_path, capsys, args):
        # only exact reports series with a converged flag
        out = ["--seed", "1", "--out", str(tmp_path / "a")]
        assert main(args + out + ["--max-nonconverged", "5"]) == 1
        assert "unrecognized arguments: --max-nonconverged 5" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()
        assert main(args + out) == 0
        assert "max_nonconverged" not in read_manifest(str(tmp_path / "a.manifest.json"))["config"]

    @pytest.mark.parametrize("args,read,unread", [
        (["exact", "--law", "constant:0.7", "--expected-hit", "1"], {"direction": "right"}, []),
        (["exact", "--law", "constant:0.7", "--r-tail", "2"], {}, ["direction"]),
        (["ladder", "--step", LATTICE, "--sup-tail", "4", "-n", "100"], {"method": "importance"}, []),
        (["ladder", "--step", LATTICE, "--phi", "2", "-n", "100"], {}, ["method"]),
        (["simulate", "--law", "constant:0.7", "--speed", "--horizon", "200", "--reps", "3"],
         {"horizon": 200, "reps": 3}, ["mode", "n_env", "n_walk", "tol"]),
        (["simulate", "--law", "constant:0.7", "--return-conditional"],
         {"mode": "quenched", "n_env": 1000, "n_walk": 0, "tol": 1e-10}, ["horizon", "reps"]),
    ])
    def test_manifest_echoes_the_options_a_run_reads(self, tmp_path, args, read, unread):
        assert main(args + ["--seed", "1", "--out", str(tmp_path / "a")]) == 0
        config = read_manifest(str(tmp_path / "a.manifest.json"))["config"]
        assert {k: config[k] for k in read} == read
        assert not set(unread) & set(config)


class TestManifestAndDeterminism:
    def test_csv_bytes_reproduce(self, tmp_path):
        args = ["simulate", "--law", "discrete:0.5@0.8,0.5@0.6", "--speed",
                "--horizon", "2000", "--reps", "10", "--seed", "7", "--workers", "2"]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()

    @pytest.mark.parametrize("action", [
        ["exact", "--r-tail", "3"],
        ["simulate", "--speed", "--horizon", "2000", "--reps", "10", "--workers", "2"],
    ])
    def test_constant_and_one_atom_discrete_write_the_same_csv(self, tmp_path, action):
        for name, law in (("c", "constant:0.7"), ("d", "discrete:1.0@0.7")):
            args = [action[0], "--law", law, *action[1:], "--seed", "3"]
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()

    def test_rerun_from_manifest_config(self, tmp_path):
        out1 = str(tmp_path / "one")
        assert main(
            ["conditioned", "--law", "discrete:0.5@0.75,0.5@0.3333333333333333",
             "--mode", "h_transform", "-n", "50", "--seed", "9", "--env-seed", "101",
             "--out", out1]
        ) == 0
        cfg = read_manifest(out1 + ".manifest.json")["config"]
        out2 = str(tmp_path / "two")
        assert main(
            ["conditioned", "--law", cfg["law"], "--mode", cfg["mode"],
             "-n", str(cfg["n"]), "--seed", str(cfg["seed"]),
             "--env-seed", str(cfg["env_seed"]), "--out", out2]
        ) == 0
        assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()

    def test_absent_seed_drawn_and_recorded(self, tmp_path):
        out = str(tmp_path / "rnd")
        assert main(
            ["exact", "--law", "constant:0.7", "--r-tail", "1", "--out", out]
        ) == 0
        manifest = read_manifest(out + ".manifest.json")
        seed = manifest["config"]["seed"]
        assert isinstance(seed, int)
        rows = read_csv(out + ".csv")
        assert rows[0]["seed"] == str(seed)

    def test_manifest_records_workers_and_versions(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(
            ["simulate", "--law", "constant:0.7", "--speed", "--horizon", "500",
             "--reps", "4", "--seed", "1", "--workers", "3", "--out", out]
        ) == 0
        manifest = read_manifest(out + ".manifest.json")
        assert manifest["config"]["workers"] == 3
        assert set(manifest["versions"]) == {"rwre", "numpy", "python"}
        assert manifest["wall_time_s"] >= 0.0

    def test_manifest_echoes_the_anchor_delta(self, tmp_path):
        out = str(tmp_path / "a")
        assert main(["exact", "--law", "constant:0.7", "--cond-return", "--seed", "1",
                     "--out", out]) == 0
        assert read_manifest(out + ".manifest.json")["anchor_delta"] == 1e-6


class TestDivergeCommand:
    def test_too_few_environments_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "dv")
        code = main(["diverge", "--law", format_law(FIX_C), "--schedule", "10",
                     "--seed", "1", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 11 environments" in err
        assert main(["diverge", "--law", format_law(FIX_C), "--schedule", "0,100",
                     "--seed", "1", "--out", out]) == 1
        assert "positive schedule points" in capsys.readouterr().err

    def test_env_failures_in_manifest(self, tmp_path):
        out = str(tmp_path / "dv")
        assert main(["diverge", "--law", format_law(FIX_C), "--schedule", "20,60",
                     "--seed", "4", "--out", out]) == 0
        assert read_manifest(out + ".manifest.json")["extras"] == {"env_failures": 0}

    def test_running_standard_errors_written(self, tmp_path):
        out = str(tmp_path / "dv")
        code = main(["diverge", "--law", "discrete:0.5@0.8,0.5@0.6", "--schedule", "50,200",
                     "--seed", "2", "--tol", "1e-8", "--out", out])
        assert code == 0
        rows = read_csv(out + ".csv")
        assert [r["quantity"] for r in rows] == [
            "running_weighted_mean", "running_weighted_mean", "hill_index",
            "t_times_survival", "t_times_survival", "t_times_survival",
            "lemma_min", "regression_index", "kappa",
        ]
        for row in rows[:2]:
            se = float(row["std_error"])
            assert math.isfinite(se) and se > 0.0
        assert all(r["std_error"] == "" for r in rows[2:])


def _fresh_python(code: str) -> int:
    """Exit code of ``code`` run in a new interpreter that imports this rwre."""
    src = str(Path(rwre.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_scipy_linalg_unloaded():
    # rwre runs on numpy alone; scipy.linalg serves only the test oracle
    # ``absorption_oracle``.  Loading any of scipy with the CLI would cost every
    # command its import time and memory.
    code = ("import sys, rwre.cli\n"
            "sys.exit(int(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)))")
    assert _fresh_python(code) == 0


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs a command 12-14 ms to import; np.unique loads it.
    code = (
        "import sys\n"
        "from rwre.cli import main\n"
        f"assert main(['simulate', '--law', {format_law(FIX_A)!r}, '--speed', '--horizon', '500',"
        f" '--reps', '4', '--seed', '1', '--out', {str(tmp_path / 'sp')!r}]) == 0\n"
        "assert main(['ladder', '--step', 'lattice:0.3@+1,0.7@-1', '--overshoot', '3', '6',"
        f" '-n', '200', '--seed', '1', '--out', {str(tmp_path / 'ov')!r}]) == 0\n"
        "sys.exit(int('numpy.ma' in sys.modules))"
    )
    assert _fresh_python(code) == 0


@pytest.mark.parametrize("raw", ["abc", "2.5", ""])
def test_bad_rwre_workers_is_named_in_the_error(monkeypatch, capsys, tmp_path, raw):
    monkeypatch.setenv("RWRE_WORKERS", raw)
    argv = ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--sup-tail", "4",
            "-n", "100", "--seed", "1", "--out", str(tmp_path / "w")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RWRE_WORKERS" in err and repr(raw) in err


@pytest.mark.parametrize("flag, env, expected", [
    ("0", None, "--workers must be >= 1, got 0"),
    ("-2", "4", "--workers must be >= 1, got -2"),
    (None, "0", "RWRE_WORKERS must be >= 1, got '0'"),
    (None, "-3", "RWRE_WORKERS must be >= 1, got '-3'"),
])
def test_workers_below_one_names_its_source(monkeypatch, capsys, tmp_path, flag, env, expected):
    if env is None:
        monkeypatch.delenv("RWRE_WORKERS", raising=False)
    else:
        monkeypatch.setenv("RWRE_WORKERS", env)
    argv = ["ladder", "--step", "lattice:0.3@+1,0.7@-1", "--sup-tail", "4",
            "-n", "100", "--seed", "1", "--out", str(tmp_path / "w")]
    if flag is not None:
        argv += ["--workers", flag]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "w.csv").exists()
