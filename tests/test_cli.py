"""Command-line interface: config handling, outputs, manifests, reproducibility."""

import argparse
import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hypam.cli
import hypam.renewal
from hypam import (
    BoundConfig,
    FkConfig,
    NoiseSpec,
    RadialProfile,
    f_profile,
    first_chaos_mean,
    fkmc,
    moment_and_chaos,
    theta,
)
from hypam.cli import (
    _COMMANDS,
    DEFAULT_CONFIG,
    ConfigError,
    _shared_parser,
    build_parser,
    load_config,
    main,
)
from hypam.specialfn import QuadratureError

# an integer literal no double holds: float() of it overflows
HUGE = "1" + "0" * 400
# one int() itself refuses: it passes the 4300-digit limit
LONG = "1" + "0" * 5000


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

    def test_every_key_has_a_kind(self):
        keys = {f"{section}.{key}" for section, values in DEFAULT_CONFIG.items() for key in values}
        assert set(hypam.cli._KINDS) == keys

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

    @pytest.mark.parametrize("K", ["0", "-1"])
    def test_bm_sample_nonpositive_curvature_returns_2(self, tmp_path, capsys, K):
        out = tmp_path / "o"
        assert run("bm-sample", "--out", out, "--set", f"model.K={K}") == 2
        assert capsys.readouterr().err == "error: curvature scale K must be positive\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", ["upper", "nope"])
    def test_kernel_mode_other_than_exact_or_lower_returns_2(self, tmp_path, capsys, mode):
        out = tmp_path / "m"
        assert run("moment-mc", "--out", out, *FAST_MC, "--set", f"kernel.mode={mode}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'exact' or 'lower'" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["moment-mc", "intermittency"])
    def test_exact_kernel_off_n3_names_its_keys(self, tmp_path, capsys, subcommand):
        # kernel.mode defaults to 'exact', which only n = 3 has
        out = tmp_path / "o"
        argv = (subcommand, "--out", out, *FAST_MC, "--set", "moment.p=3", "--set", "model.n=4")
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "error: kernel.mode = 'exact' needs model.n = 3, got model.n = 4; "
            "pass --set kernel.mode=lower\n"
        )
        assert not out.exists()
        assert run(*argv, "--set", "kernel.mode=lower") == 0

    @pytest.mark.parametrize("subcommand", ["moment-mc", "intermittency"])
    def test_alpha_too_large_for_the_exact_table_returns_2(self, tmp_path, capsys, subcommand):
        # the order-2 alpha kernel holds kve(2 alpha - 3/2, rho), which overflows
        # at the table's floor rho = 1e-3 from alpha = 34 on
        out = tmp_path / "o"
        argv = (subcommand, "--out", out, *FAST_MC, "--set", "moment.p=3", "--set", "noise.alpha=40")
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "error: noise.alpha = 40 is too large for the exact kernel table: G_(2 alpha) "
            "overflows at its floor distance 0.001; lower noise.alpha or raise kernel.delta_floor\n"
        )
        assert not out.exists()
        assert run(*argv, "--set", "kernel.delta_floor=0.01") == 0

    @pytest.mark.parametrize("value", ["1e999", "-1", "0"])
    def test_constant_not_positive_and_finite_returns_2(self, tmp_path, capsys, value):
        out = tmp_path / "p"
        assert run("phase-diagram", "--out", out, "--set", f"constants.gbar_C={value}") == 2
        assert capsys.readouterr().err == "error: ledger constants must be positive and finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["model.K", "constants.chaos_C", "moment.r", "model.n"])
    def test_integer_too_large_for_a_double_returns_2(self, tmp_path, capsys, key):
        out = tmp_path / "b"
        assert run("bounds", "--out", out, "--set", f"{key}={HUGE}") == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must fit in a double, got an integer of 401 digits\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("model", "K"), ("constants", "chaos_C")])
    def test_integer_too_large_for_a_double_in_a_file_returns_2(
        self, tmp_path, capsys, section, key
    ):
        path, out = tmp_path / "config.json", tmp_path / "b"
        path.write_text(f'{{"{section}": {{"{key}": {HUGE}}}}}')
        assert run("bounds", "--out", out, "--config", path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {section}.{key} must fit in a double, got an integer of 401 digits\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["model.K", "constants.chaos_C"])
    def test_integer_past_the_digit_limit_returns_2(self, tmp_path, capsys, key):
        out = tmp_path / "b"
        assert run("bounds", "--out", out, "--set", f"{key}={LONG}") == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must fit in a double, got an integer of 5001 digits\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("model", "K"), ("constants", "chaos_C")])
    def test_integer_past_the_digit_limit_in_a_file_returns_2(self, tmp_path, capsys, section, key):
        path, out = tmp_path / "config.json", tmp_path / "b"
        path.write_text(f'{{"{section}": {{"{key}": -{LONG}}}}}')
        assert run("bounds", "--out", out, "--config", path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {section}.{key} must fit in a double, got an integer of 5001 digits\n"
        assert not out.exists()

    # every key is checked at load, including keys the subcommand never reads
    @pytest.mark.parametrize("subcommand", ["bounds", "kernel-table", "bm-sample"])
    @pytest.mark.parametrize(
        "item, message",
        [
            ("kernel.mode=nope", "kernel.mode must be 'exact' or 'lower', got 'nope'"),
            ("u0.kind=xyz", "u0.kind must be 'constant' or 'bump', got 'xyz'"),
            ("moment.r=abc", "moment.r must be a number or 'inf', got 'abc'"),
        ],
        ids=["kernel.mode", "u0.kind", "moment.r"],
    )
    def test_every_key_is_checked_whatever_the_subcommand(
        self, tmp_path, capsys, subcommand, item, message
    ):
        out = tmp_path / "o"
        assert run(subcommand, "--out", out, "--set", item) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, key", [("--seed", "mc.seed"), ("--workers", "mc.workers")])
    def test_seed_and_workers_take_the_same_checks(self, tmp_path, capsys, flag, key):
        out = tmp_path / "o"
        assert run("bm-sample", "--out", out, flag, HUGE) == 2
        assert capsys.readouterr().err == f"error: {key} must fit in a double, got an integer of 401 digits\n"
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bounds", "--bogus"], "unrecognized arguments: --bogus"),
            (["bounds", "--workers", "x"], "argument --workers: invalid int value: 'x'"),
            ([], "the following arguments are required: subcommand"),
            (["nope"], "argument subcommand: invalid choice: 'nope'"),
            (["slope-check", "--axis", "q"], "argument --axis: invalid choice: 'q'"),
            (["intermittency", "--q"], "argument --q: expected one argument"),
        ],
        ids=["unknown-option", "bad-int", "no-subcommand", "bad-subcommand", "bad-choice", "no-value"],
    )
    def test_usage_error_is_one_line_and_returns_2(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where the default hypam-<subcommand> would go
        out = tmp_path / "o"
        if argv:
            argv = [*argv[:1], "--out", str(out), *argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("alpha", [80, 200])
    def test_alpha_past_the_exact_overflow_returns_2(self, tmp_path, capsys, alpha):
        # kve(alpha - 3/2, rho) overflows at the table's smallest distances from
        # alpha = 67 on; at 200 it is not finite on most of the grid
        out = tmp_path / "k"
        assert run("kernel-table", "--out", out, "--set", f"noise.alpha={alpha}") == 2
        assert capsys.readouterr().err == (
            f"error: the kernel table at noise.alpha = {alpha}, model.K = 1.0 "
            "overflows at distance 0.001\n"
        )
        assert not out.exists()

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
        assert all("wall_time_s" not in r for r in recs)
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
        ones = RadialProfile.constant(1.0)
        cfg = FkConfig(spec, p=2, t_end=0.2, dt=0.02, n_paths=1024, seed=12345, u0=ones)
        est = moment_and_chaos(cfg)[1]
        got = (rec["mean"], rec["stderr"], rec["log_mean"], rec["bias"], rec["n_paths"])
        assert got == (est.mean, est.stderr, est.log_mean, est.bias, est.n_paths)

    def test_chaos_record_carries_the_exact_mean(self, tmp_path):
        out = tmp_path / "m"
        assert run("moment-mc", "--out", out, *FAST_MC) == 0
        rec = jsonl_records(out / "estimates.jsonl")[1]
        exact = first_chaos_mean(NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0), 0.2)
        assert rec["exact_mean"] == exact
        assert rec["exact_z"] == (rec["mean"] - exact) / rec["stderr"]
        # one path has no stderr, so no z
        assert run("moment-mc", "--out", out, *FAST_MC, "--set", "mc.n_paths=1") == 0
        rec = jsonl_records(out / "estimates.jsonl")[1]
        assert rec["stderr"] == 0.0 and rec["exact_z"] is None

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

    def test_tiny_coupling_row(self, tmp_path):
        # LOG regime at beta = 1e-100: theta = 2.0e-195 inverts F_2 at 1/beta^2
        out = tmp_path / "tiny"
        argv = ("--set", "noise.alpha=0.75", "--set", "noise.beta=1e-100")
        assert run("bounds", "--out", out, *argv) == 0
        with open(out / "bounds.csv", newline="") as f:
            rows = [r for r in csv.DictReader(f) if float(r["beta"]) == 1e-100]
        assert len(rows) == 1
        th = float(rows[0]["theta"])
        assert th == pytest.approx(2.0047e-195, rel=1e-4)
        cfg = BoundConfig(NoiseSpec(alpha=0.75, beta=1e-100, n=3, K=1.0))
        assert abs(f_profile(cfg.regime, th, cfg) * 1e-200 - 1.0) <= 1e-8

    def test_one_theta_call(self, tmp_path, monkeypatch):
        # the theta column and the upper exponent's theta(sqrt(p-1) beta)
        # come from one call, counted wherever it is looked up
        calls = []

        def counted(beta, cfg):
            calls.append(beta)
            return theta(beta, cfg)

        monkeypatch.setattr(hypam.cli, "theta", counted)
        monkeypatch.setattr(hypam.renewal, "theta", counted)
        assert run("bounds", "--out", tmp_path / "b", "--set", "moment.p=3") == 0
        assert len(calls) == 1


class TestSlopeCheck:
    def test_beta_axis_passes(self, tmp_path):
        out = tmp_path / "s"
        assert run("slope-check", "--out", out, "--axis", "beta") == 0
        with open(out / "slope_report.json") as f:
            rep = json.load(f)
        assert rep["case"] == "C"
        assert rep["passed"] is True
        assert abs(rep["fitted_slope"] - 2.0) <= 0.1

    @pytest.mark.parametrize(
        "argv, miss",
        [
            # n = 4, alpha = 1.5 is case C, and the fit over beta in [1e2, 1e4] misses 2
            (("--set", "model.n=4", "--set", "noise.alpha=1.5"),
             "fitted slope 2.124 is outside the claimed 2 +/- 0.1"),
            # near beta_critical the exponent/(p(p-1)) ratios have not settled
            (("--axis", "p", "--set", "noise.beta=10"), "ratio spread 2.048 is above the claimed 0.1"),
        ],
        ids=["beta", "p"],
    )
    def test_failed_check_prints_one_line(self, tmp_path, capsys, argv, miss):
        out = tmp_path / "s"
        assert run("slope-check", "--out", out, *argv) == 1
        err = capsys.readouterr().err
        assert err == f"slope-check failed: {miss} (case C); see slope_report.json\n"
        with open(out / "slope_report.json") as f:
            assert json.load(f)["passed"] is False

    def test_beta_axis_below_critical_names_the_order_it_needs(self, tmp_path, capsys):
        # at n = 5, alpha = 1.25 and p = 2 the lower exponent is negative at beta = 100
        out = tmp_path / "s"
        argv = ("slope-check", "--out", out, "--set", "model.n=5", "--set", "noise.alpha=1.25")
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "error: exponent not positive on the whole grid; raise p to p_critical = 4 at beta = 100\n"
        )
        assert not out.exists()
        assert run(*argv, "--set", "moment.p=4") == 0

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


LOWER_KERNEL = "the lower-bound kernel overflows on the radius grid at K = 1e-200, alpha = 1"
# n = 4 at a smooth noise: the lower table has no calibrated constant to catch it
SMOOTH_N4 = ("--set", "model.n=4", "--set", "noise.alpha=2.5")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, code, message",
    [
        # the lower kernel lacks its K^(n/2) scaling: at small K it overflows
        (("phase-diagram", "--set", "model.K=1e-200"), 3, LOWER_KERNEL),
        (("slope-check", "--set", "model.K=1e-200"), 3, LOWER_KERNEL),
        (("slope-check", "--set", "model.K=1e-150"), 3,
         "the lower exponent overflows on the radius grid at K = 1e-150, alpha = 1"),
        (("slope-check", "--set", "model.K=1e308"), 3,
         "the Dirichlet eigenvalue bound overflows on the radius grid at K = 1e+308, alpha = 1"),
        # and its calibrated constant grows as K^(3/2)
        (("kernel-table", "--set", "model.K=1e300"), 2,
         "noise.alpha = 1.0, model.K = 1e+300: the lower-bound constant at alpha = 1.0, "
         "K = 1e+300 overflows: its log is 1034.41"),
        (("kernel-table", "--set", "model.K=1e200", "--set", "noise.alpha=30"), 2,
         "noise.alpha = 30, model.K = 1e+200: the lower-bound constant at alpha = 30.0, "
         "K = 1e+200 overflows: its log is 753.201"),
        (("kernel-table", "--set", "model.K=1e-300"), 2,
         "noise.alpha = 1.0, model.K = 1e-300: the lower-bound constant at alpha = 1.0, "
         "K = 1e-300 underflows: its log is -1037.92"),
        (("kernel-table", *SMOOTH_N4, "--set", "model.K=1e-200"), 2,
         "the lower-bound table at noise.alpha = 2.5, model.K = 1e-200 overflows at distance 1e+97"),
        (("kernel-table", *SMOOTH_N4, "--set", "model.K=1e308"), 2,
         "the heat-kernel table at model.K = 1e+308, t = 5.0 overflows at distance 1e-157"),
    ],
    ids=[
        "phase-small", "slope-small", "slope-exponent", "slope-large",
        "table-large", "table-large-alpha", "table-small", "table-lower", "table-heat",
    ],
)
def test_extreme_curvature_fails_in_one_line(tmp_path, capsys, argv, code, message):
    out = tmp_path / "o"
    assert run(argv[0], "--out", out, *argv[1:]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# the ten (n, alpha) of the bound_scans benchmark workload
BOUND_SCAN_CONFIGS = [
    (3, 0.6), (3, 0.75), (3, 1.0), (3, 1.5), (4, 0.8),
    (4, 1.0), (4, 1.5), (5, 1.0), (5, 1.25), (5, 2.0),
]


class TestDefaultRuns:
    @pytest.mark.parametrize("n, alpha", BOUND_SCAN_CONFIGS)
    def test_every_run_writes_or_says_why(self, tmp_path, capsys, n, alpha):
        # exit 0 writes non-empty files; exit 1 writes them and says what
        # failed in one line; exit 2 writes nothing and names a key or the fix
        for sub in ("kernel-table", "bm-sample", "moment-mc", "bounds", "phase-diagram",
                    "slope-check", "intermittency"):
            out = tmp_path / sub
            code = run(sub, "--out", out, "--set", f"model.n={n}", "--set", f"noise.alpha={alpha}")
            err = capsys.readouterr().err
            where = f"{sub} at n = {n}, alpha = {alpha}: exit {code}, stderr {err!r}"
            if code in (0, 1):
                outputs = read_manifest(out)["outputs"]
                assert outputs, where
                assert all((out / o["path"]).stat().st_size > 0 for o in outputs), where
                assert err.count("\n") == code and not err.startswith("error: "), where
            else:
                assert code == 2, where
                assert err.startswith("error: ") and err.count("\n") == 1, where
                assert any(key in err for key in hypam.cli._KINDS) or "raise" in err, where
                assert not out.exists(), where


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


    def test_default_orders_return_2(self, tmp_path, capsys):
        # the default --q 2 needs a moment order above 2; moment.p defaults to 2
        out = tmp_path / "i"
        assert run("intermittency", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--set moment.p=3" in err
        assert not out.exists()


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
        assert "heat-kernel-mass" in out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("key", ["model.n=7", "noise.alpha=0.2"])
    def test_keys_it_never_reads_are_not_checked(self, tmp_path, capsys, key):
        # validate runs fixed n = 3, alpha = 1 checks, so a model it does not
        # use cannot fail the integrability condition
        assert run("validate", "--out", tmp_path / "v", "--quick", "--set", key) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.split()[1] == "PASS" for line in lines), lines

    def test_full_run_passes_every_check(self, tmp_path, capsys):
        assert run("validate", "--out", tmp_path / "v") == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in lines]
        assert {"one-step-msd", "fk-chaos-exact"} <= set(names)
        assert all(line.split()[1] == "PASS" for line in lines), lines


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
            ("intermittency", "--set", "moment.p=3"),
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


class TestParser:
    # `hypam --help` and every `hypam <subcommand> --help` at 80 columns, as
    # printed when each subcommand declared the shared options itself
    HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())

    @pytest.mark.parametrize("argv", list(HELP))
    def test_help_text(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(argv.split())
        assert stop.value.code == 0
        assert capsys.readouterr().out == self.HELP[argv]

    def test_every_subcommand_has_a_help_text(self):
        assert set(self.HELP) == {"--help"} | {f"{name} --help" for name in _COMMANDS}

    def test_set_lists_do_not_leak_between_calls(self, tmp_path):
        # the shared --set default is one list object, which append copies
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("bounds", "--out", a, "--set", "noise.beta=2", "--set", "moment.r=2") == 0
        assert run("bounds", "--out", b, "--set", "moment.p=3") == 0
        assert run("bounds", "--out", tmp_path / "c") == 0
        first, second, third = (read_manifest(d)["config"] for d in (a, b, tmp_path / "c"))
        assert (first["noise"]["beta"], first["moment"]) == (2, {"p": 2, "r": 2})
        assert (second["noise"]["beta"], second["moment"]) == (0.5, {"p": 3, "r": "inf"})
        assert third == DEFAULT_CONFIG
        parser = build_parser()
        assert parser.parse_args(["bounds", "--set", "x=1"]).set == ["x=1"]
        assert parser.parse_args(["bounds"]).set == []

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        inits = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            inits.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser()
        per_tree = len(inits)
        assert per_tree > 1  # the top parser, the shared options, one per subcommand
        inits.clear()
        _shared_parser.cache_clear()
        for k in range(3):
            assert run("bounds", "--out", tmp_path / str(k)) == 0
        assert len(inits) == per_tree

    def test_options_never_carry_over(self, tmp_path, monkeypatch):
        seen = []

        def record(args, config, ledger):
            seen.append((vars(args).copy(), config))
            return 0, {}

        for name in ("slope-check", "intermittency"):
            monkeypatch.setitem(_COMMANDS, name, (record, _COMMANDS[name][1]))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"noise": {"beta": 3.0}}))
        full = ["--workers", "3", "--seed", "7", "--format", "jsonl", "--config", cfg, "--set", "model.n=4"]
        out = tmp_path / "o"
        for name, key, value, default in (("slope-check", "axis", "p", "beta"), ("intermittency", "q", 3, 2)):
            seen.clear()
            assert run(name, "--out", out, *full, f"--{key}", value) == 0
            assert run(name, "--out", out) == 0
            (used, used_config), (later, later_config) = seen
            assert used["workers"] == 3 and used["seed"] == 7 and used["format"] == "jsonl"
            assert used["config"] == str(cfg) and used["set"] == ["model.n=4"] and used[key] == value
            assert used_config["mc"]["seed"] == 7 and used_config["noise"]["beta"] == 3.0
            assert later["workers"] is None and later["seed"] is None and later["config"] is None
            assert later["format"] == "csv" and later["set"] == [] and later[key] == default
            assert later_config == DEFAULT_CONFIG

    def test_help_after_a_parse_at_another_width(self, tmp_path, capsys, monkeypatch):
        # the shared parser is built at 40 columns; help is still formatted at 80
        _shared_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "40")
        assert run("bm-sample", "--out", tmp_path / "o", "--set", "mc.n_paths=0") == 2
        with pytest.raises(SystemExit):
            main(["bounds", "--help"])
        assert capsys.readouterr().out != self.HELP["bounds --help"]
        monkeypatch.setenv("COLUMNS", "80")
        for argv, text in self.HELP.items():
            with pytest.raises(SystemExit) as stop:
                main(argv.split())
            assert stop.value.code == 0
            assert capsys.readouterr().out == text


class TestBracketFailure:
    @pytest.mark.parametrize("subcommand, beta", [("bounds", "0.607"), ("phase-diagram", "0.632")])
    def test_names_the_coupling(self, tmp_path, capsys, subcommand, beta):
        # alpha = 0.26 is valid in n = 3 (threshold 1/4), but theta passes the
        # bracket's top rung 2^199 from beta = 0.607 on; phase-diagram's first
        # such coupling is sqrt(p-1) beta = sqrt(4) * 0.316
        out = tmp_path / "o"
        assert run(subcommand, "--out", out, "--set", "noise.alpha=0.26") == 3
        err = capsys.readouterr().err
        assert err == f"error: growth rate above 8.0e+59 at beta = {beta}\n"
        assert not out.exists()
