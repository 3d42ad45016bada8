"""Command-line interface: config handling, outputs, manifests, reproducibility."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from hypam import NoiseSpec, chaos_k1_estimate, fkmc
from hypam.cli import DEFAULT_CONFIG, ConfigError, load_config, main
from hypam.specialfn import QuadratureError


def run(*args):
    return main([str(a) for a in args])


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as f:
        return json.load(f)


def jsonl_records(path, drop=("wall_time_s",)):
    out = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for k in drop:
                rec.pop(k, None)
            out.append(rec)
    return out


class TestLoadConfig:
    def test_defaults_are_copied(self):
        config = load_config(None, [])
        assert config == DEFAULT_CONFIG
        config["model"]["n"] = 5
        assert DEFAULT_CONFIG["model"]["n"] == 3

    def test_file_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"noise": {"alpha": 0.75}, "constants": {"gbar_C": 0.5}}))
        config = load_config(str(p), [])
        assert config["noise"]["alpha"] == 0.75
        assert config["noise"]["beta"] == 0.5  # untouched default
        assert config["constants"]["gbar_C"] == 0.5

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"nosie": {"alpha": 0.75}}))
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(str(p), [])

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"noise": {"alhpa": 0.75}}))
        with pytest.raises(ConfigError, match="unknown key noise.alhpa"):
            load_config(str(p), [])

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"noise": {"alpha": }}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(p), [])

    def test_overrides(self):
        config = load_config(None, ["noise.beta=2.5", "moment.r=inf", "constants.x=3"])
        assert config["noise"]["beta"] == 2.5
        assert config["moment"]["r"] == "inf"
        assert config["constants"]["x"] == 3.0

    def test_override_errors(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            load_config(None, ["noise.beta"])
        with pytest.raises(ConfigError, match="dotted"):
            load_config(None, ["beta=1"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, ["noise.gamma=1"])

    @pytest.mark.parametrize("key", ["model.n", "moment.p", "mc.n_paths", "mc.seed", "mc.workers"])
    def test_integer_key_rejects_non_integers(self, key):
        for raw in ("3.7", "true", '"3"'):
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                load_config(None, [f"{key}={raw}"])

    def test_integer_keys_accept_integral_numbers(self):
        config = load_config(None, ["mc.n_paths=8192.0", "mc.seed=1e4", "model.n=4"])
        assert (config["mc"]["n_paths"], config["mc"]["seed"], config["model"]["n"]) == (8192, 10000, 4)
        assert all(type(config["mc"][k]) is int for k in ("n_paths", "seed"))


class TestExitCodes:
    def test_bad_override_returns_2(self, tmp_path, capsys):
        assert run("bounds", "--out", tmp_path, "--set", "noise.gamma=1") == 2
        assert "unknown key" in capsys.readouterr().err

    def test_inadmissible_noise_returns_2(self, tmp_path, capsys):
        code = run("moment-mc", "--out", tmp_path, "--set", "noise.alpha=0.1")
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_empty_ensemble_returns_2(self, tmp_path, capsys):
        assert run("bm-sample", "--out", tmp_path, "--set", "mc.n_paths=0") == 2
        assert capsys.readouterr().err == "error: n_paths must be at least 1\n"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_returns_2(self, tmp_path, capsys, workers):
        out = tmp_path / "w"
        assert run("moment-mc", "--out", out, *FAST_MC, "--workers", workers) == 2
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not out.exists()

    def test_non_integer_key_returns_2(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert run("bounds", "--out", out, "--set", "model.n=3.7") == 2
        assert capsys.readouterr().err == "error: model.n must be an integer, got 3.7\n"
        assert not out.exists()

    def test_missing_config_file_returns_2(self, tmp_path):
        assert run("bounds", "--out", tmp_path, "--config", tmp_path / "nope.json") == 2

    def test_numerical_failure_returns_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("quadrature failed on [0, 1]:\n  no convergence")

        monkeypatch.setattr("hypam.cli.theta", fail)
        assert run("bounds", "--out", tmp_path) == 3
        err = capsys.readouterr().err
        assert err == "error: quadrature failed on [0, 1]: no convergence\n"

    def test_version_subprocess(self):
        out = subprocess.run(
            [sys.executable, "-m", "hypam", "--version"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.startswith("hypam ")


class TestKernelTable:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "a"
        assert run("kernel-table", "--out", out) == 0
        for name in ("g_alpha.csv", "g_alpha_lower.csv", "heat_kernel.csv", "manifest.json"):
            assert (out / name).exists()
        man = read_manifest(out)
        assert man["subcommand"] == "kernel-table"
        assert {e["path"] for e in man["outputs"]} == {
            "g_alpha.csv",
            "g_alpha_lower.csv",
            "heat_kernel.csv",
        }
        for e in man["outputs"]:
            digest = hashlib.sha256((out / e["path"]).read_bytes()).hexdigest()
            assert e["sha256"] == digest
        # calibration lands in the recorded ledger
        assert man["constant_ledger"]["gbar_C"]["provenance"] == "calibrated"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("kernel-table", "--out", a) == 0
        assert run("kernel-table", "--out", b) == 0
        for name in ("g_alpha.csv", "g_alpha_lower.csv", "heat_kernel.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "j"
        assert run("kernel-table", "--out", out, "--format", "jsonl") == 0
        recs = jsonl_records(out / "g_alpha.jsonl")
        assert recs and set(recs[0]) == {"d", "value", "mode", "alpha", "n", "K"}
        assert all(r["value"] > 0 for r in recs)

    def test_table_is_decreasing_and_dominates_lower(self, tmp_path):
        out = tmp_path / "t"
        assert run("kernel-table", "--out", out) == 0
        with open(out / "g_alpha.csv", newline="") as f:
            vals = [float(row["value"]) for row in csv.DictReader(f)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        with open(out / "g_alpha_lower.csv", newline="") as f:
            lows = [float(row["value"]) for row in csv.DictReader(f)]
        assert len(lows) == len(vals)
        assert all(lo <= v * (1.0 + 1e-9) for lo, v in zip(lows, vals))


FAST_MC = (
    "--set", "mc.n_paths=1024",
    "--set", "mc.t_end=0.2",
    "--set", "mc.dt=0.02",
)


class TestMomentMc:
    def test_records_and_manifest(self, tmp_path):
        out = tmp_path / "m"
        assert run("moment-mc", "--out", out, *FAST_MC) == 0
        recs = jsonl_records(out / "estimates.jsonl", drop=())
        assert [r["kind"] for r in recs] == ["moment", "chaos_k1"]
        assert all("wall_time_s" in r for r in recs)
        assert recs[0]["n_paths"] == 1024
        assert recs[0]["bias"] == "LOWER"
        man = read_manifest(out)
        e = man["outputs"][0]
        assert e["path"] == "estimates.jsonl"
        got = hashlib.sha256((out / "estimates.jsonl").read_bytes()).hexdigest()
        assert e["sha256"] == got

    def test_rerun_identical_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("moment-mc", "--out", a, *FAST_MC) == 0
        assert run("moment-mc", "--out", b, *FAST_MC) == 0
        assert jsonl_records(a / "estimates.jsonl") == jsonl_records(b / "estimates.jsonl")

    def test_worker_count_does_not_change_numbers(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert run("moment-mc", "--out", a, *FAST_MC, "--workers", 1) == 0
        assert run("moment-mc", "--out", b, *FAST_MC, "--workers", 4) == 0
        ra = jsonl_records(a / "estimates.jsonl")
        rb = jsonl_records(b / "estimates.jsonl")
        for x, y in zip(ra, rb):
            x["config"]["mc"]["workers"] = y["config"]["mc"]["workers"] = None
        assert ra == rb

    @pytest.mark.parametrize("p", [2, 3])
    def test_one_ensemble_per_run(self, tmp_path, monkeypatch, p):
        calls = []
        run_blocks = fkmc._run_blocks

        def counted(*args):
            calls.append(args)
            return run_blocks(*args)

        monkeypatch.setattr(fkmc, "_run_blocks", counted)
        assert run("moment-mc", "--out", tmp_path / "m", *FAST_MC, "--set", f"moment.p={p}") == 0
        assert len(calls) == 1

    def test_chaos_record_is_the_chaos_estimate_at_p2(self, tmp_path):
        out = tmp_path / "m"
        assert run("moment-mc", "--out", out, *FAST_MC) == 0
        rec = jsonl_records(out / "estimates.jsonl")[1]
        assert rec["kind"] == "chaos_k1"
        spec = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)
        est = chaos_k1_estimate(spec, t=0.2, dt=0.02, n_paths=1024, seed=12345)
        got = (rec["mean"], rec["stderr"], rec["log_mean"], rec["bias"], rec["n_paths"])
        assert got == (est.mean, est.stderr, est.log_mean, est.bias, est.n_paths)

    def test_p3_records_do_not_depend_on_workers(self, tmp_path):
        argv = (*FAST_MC, "--set", "moment.p=3", "--set", "mc.n_paths=2085")  # 2 blocks + 37
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert run("moment-mc", "--out", a, *argv, "--workers", 1) == 0
        assert run("moment-mc", "--out", b, *argv, "--workers", 2) == 0
        ra = jsonl_records(a / "estimates.jsonl")
        rb = jsonl_records(b / "estimates.jsonl")
        assert [r["kind"] for r in ra] == ["moment", "chaos_k1"]
        for x, y in zip(ra, rb):
            x["config"]["mc"]["workers"] = y["config"]["mc"]["workers"] = None
        assert ra == rb

    def test_seed_flag_changes_numbers(self, tmp_path):
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert run("moment-mc", "--out", a, *FAST_MC, "--seed", 1) == 0
        assert run("moment-mc", "--out", b, *FAST_MC, "--seed", 2) == 0
        ma = jsonl_records(a / "estimates.jsonl")[0]["mean"]
        mb = jsonl_records(b / "estimates.jsonl")[0]["mean"]
        assert ma != mb


class TestBmSample:
    def test_outputs(self, tmp_path):
        out = tmp_path / "bm"
        assert (
            run(
                "bm-sample", "--out", out,
                "--set", "mc.n_paths=256", "--set", "mc.t_end=0.5",
            )
            == 0
        )
        with open(out / "path_0.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "time", "coord_0", "coord_1", "coord_2", "coord_3"]
        with open(out / "radial_stats.csv", newline="") as f:
            stats = list(csv.DictReader(f))
        assert len(stats) == 10
        assert float(stats[-1]["t"]) == pytest.approx(0.5)
        assert all(float(r["mean_distance"]) > 0 for r in stats)


class TestBounds:
    def test_outputs(self, tmp_path):
        out = tmp_path / "b"
        assert run("bounds", "--out", out) == 0
        with open(out / "bounds.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows
        with open(out / "fprofile.csv", newline="") as f:
            prof = list(csv.DictReader(f))
        vals = [float(r["f_value"]) for r in prof]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "bj"
        assert run("bounds", "--out", out, "--format", "jsonl") == 0
        assert (out / "bounds.jsonl").exists()
        assert (out / "fprofile.jsonl").exists()

    def test_zero_beta(self, tmp_path):
        # beta = 0 is a valid noise strength: theta is 0, so the exponent is -p b
        out = tmp_path / "b0"
        argv = ("--set", "noise.beta=0", "--set", "moment.p=3", "--set", "moment.r=2")
        assert run("bounds", "--out", out, *argv) == 0
        with open(out / "bounds.csv", newline="") as f:
            rows = [r for r in csv.DictReader(f) if float(r["beta"]) == 0.0]
        assert len(rows) == 1
        assert float(rows[0]["theta"]) == 0.0
        assert float(rows[0]["upper_exponent"]) == -3.0  # b = (n-1)^2 K / (2 max(2, r)) = 1


class TestSlopeCheck:
    def test_beta_axis_passes(self, tmp_path):
        out = tmp_path / "s"
        assert run("slope-check", "--out", out, "--axis", "beta") == 0
        with open(out / "slope_report.json") as f:
            rep = json.load(f)
        assert rep["case"] == "C"
        assert rep["passed"] is True
        assert abs(rep["fitted_slope"] - 2.0) <= 0.1

    def test_p_axis_passes_at_large_coupling(self, tmp_path):
        out = tmp_path / "sp"
        assert run("slope-check", "--out", out, "--axis", "p", "--set", "noise.beta=300") == 0
        with open(out / "slope_report.json") as f:
            rep = json.load(f)
        assert rep["passed"] is True
        assert rep["ratio_spread"] <= 0.1

    def test_p_axis_names_the_coupling_it_needs(self, tmp_path, capsys):
        # the default beta = 0.5 is below beta_critical at the grid's smallest order
        out = tmp_path / "sp"
        assert run("slope-check", "--out", out, "--axis", "p") == 2
        err = capsys.readouterr().err
        assert "raise beta above beta_critical = 5.898 at p = 4" in err
        assert not out.exists()
        assert run("slope-check", "--out", out, "--axis", "p", "--set", "noise.beta=5.9") != 2


class TestIntermittency:
    def test_series(self, tmp_path):
        out = tmp_path / "i"
        assert (
            run(
                "intermittency", "--out", out, "--q", 2,
                "--set", "moment.p=4", "--set", "mc.n_paths=2048",
                "--set", "mc.t_end=0.4", "--set", "mc.dt=0.02",
            )
            == 0
        )
        with open(out / "intermittency.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert all(float(r["ratio"]) >= 1.0 - 3.0 * float(r["stderr"]) for r in rows)


class TestPhaseDiagram:
    def test_grids(self, tmp_path):
        out = tmp_path / "p"
        assert run("phase-diagram", "--out", out) == 0
        with open(out / "beta_critical.csv", newline="") as f:
            bc = [(int(r["p"]), float(r["beta_c"])) for r in csv.DictReader(f)]
        assert [p for p, _ in bc] == list(range(2, 9))
        vals = [b for _, b in bc]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        with open(out / "phase.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 13 * 7
        # the two pipelines must never certify contradictory signs:
        # a positive lower bound forces a positive upper bound
        for r in rows:
            if r["lower_positive"] == "1":
                assert r["upper_positive"] == "1", r


class TestValidate:
    def test_quick_passes(self, tmp_path, capsys):
        assert run("validate", "--out", tmp_path / "v", "--quick") == 0
        out = capsys.readouterr().out
        assert "gamma-additivity" in out
        assert "PASS" in out and "FAIL" not in out


class TestOutputProtocol:
    def test_failed_runs_write_nothing(self, tmp_path, monkeypatch):
        d = tmp_path / "d"
        assert run("bm-sample", "--out", d, "--set", "mc.n_paths=0") == 2
        assert not d.exists()

        def fail(*args, **kwargs):
            raise QuadratureError("no convergence")

        monkeypatch.setattr("hypam.cli.theta", fail)
        assert run("bounds", "--out", d) == 3
        assert not d.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel-table",),
            ("bm-sample",),
            ("moment-mc",),
            ("bounds",),
            ("phase-diagram",),
            ("slope-check",),
            ("intermittency",),
            ("validate", "--quick"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_lists_every_file(self, tmp_path, argv):
        out = tmp_path / "o"
        small = ("--set", "mc.n_paths=256", "--set", "mc.t_end=0.1")
        assert run(*argv, "--out", out, *small) == 0
        man = read_manifest(out)
        assert man["subcommand"] == argv[0]
        listed = [e["path"] for e in man["outputs"]]
        assert listed == sorted(listed)
        assert {p.name for p in out.iterdir()} == {"manifest.json", *listed}
        for e in man["outputs"]:
            assert e["sha256"] == hashlib.sha256((out / e["path"]).read_bytes()).hexdigest()

    def test_lower_table_uses_bracket_mode_word(self, tmp_path):
        out = tmp_path / "k"
        assert run("kernel-table", "--out", out) == 0
        with open(out / "g_alpha_lower.csv", newline="") as f:
            assert {row["mode"] for row in csv.DictReader(f)} == {"lower"}


class TestUnwritableOutput:
    def test_existing_file_returns_4_before_computing(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("the run computed before checking --out")

        monkeypatch.setattr("hypam.cli.theta", fail)
        f = tmp_path / "f"
        f.write_text("keep")
        assert run("bounds", "--out", f) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a directory" in err
        assert f.read_text() == "keep"

    def test_failed_write_returns_4(self, tmp_path, capsys):
        # the parent of --out is a file, so creating the directory fails
        f = tmp_path / "f"
        f.write_text("keep")
        assert run("bounds", "--out", f / "sub") == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f.read_text() == "keep"
