"""Byte pin of every data file the table-writing subcommands emit.

The expected values are sha256 digests of each output file (the manifest
aside) in both table formats, taken before the table writer went from rows
to columns; the writer was rewritten to give the same bytes, and this test
catches any later silent drift in them.  The bytes also depend on numpy's and
scipy's elementary and special functions: they were taken with numpy 2.4 and
scipy 1.17 on x86-64."""

import hashlib

import pytest

from hypam.cli import main

# case -> the subcommand and its overrides
RUNS = {
    "kernel-table-n3": ["kernel-table", "model.n=3", "noise.alpha=1", "model.K=1"],
    "kernel-table-n4": ["kernel-table", "model.n=4", "noise.alpha=1.25", "model.K=0.5"],
    "bounds": ["bounds"],
    "phase-diagram": ["phase-diagram"],
    "slope-check": ["slope-check"],
    "bm-sample": ["bm-sample", "mc.n_paths=64", "mc.t_end=0.1"],
    "intermittency": ["intermittency", "moment.p=3", "mc.n_paths=1100", "mc.t_end=0.2"],
}

# (case, format) -> {file name: sha256}
DIGESTS = {
    ("kernel-table-n3", "csv"): {
        "g_alpha.csv": "cda31b27fdb25131fae4b2819ef3cf6720d90742468ed9a48efd892d21be836b",
        "g_alpha_lower.csv": "b9663b7d610a695f4110f0805d09806f4754852fc2e102bc5e68e6f37734d653",
        "heat_kernel.csv": "071f790116a50f5ca5bdc6af5dec0b6f8d47fe090bd31cf88f06e3ad667cd7ad",
    },
    ("kernel-table-n3", "jsonl"): {
        "g_alpha.jsonl": "6f85599b30bfc1496b83ecd62f0c7f2d7c0499cdb945bdfc6643775a6377faea",
        "g_alpha_lower.jsonl": "9168a19d27d60881f42bd53331d23e151721152faed99ce229c103178459d6e3",
        "heat_kernel.jsonl": "4584d13ab6eac9cadc2ff8ca01d4e3aac6e96358bc520f23352c3f6e0a925941",
    },
    ("kernel-table-n4", "csv"): {
        "g_alpha.csv": "c370242e075e5d94e8599364230085226635c5da4e4279873f5a031e5bc5ec35",
        "g_alpha_lower.csv": "f2c107d18c6cccf79eeaf0aa31be3f4fe282933113d7c7391ca77d55bddd1f2f",
        "heat_kernel.csv": "3529cf219953f2dd08965364d4a4c97a5cd964dc675f0648a34925bcd17f7c55",
    },
    ("kernel-table-n4", "jsonl"): {
        "g_alpha.jsonl": "c1515b96c780777aeaaa9e61f9bdd510ebcdfc1f0a14c9c3b05b22c5f8d64ded",
        "g_alpha_lower.jsonl": "8fd4cfcdac5fe5a93678820d4528422d536ef7db337dc39b858419319ab12b3e",
        "heat_kernel.jsonl": "6b8d2509669a0ed06a50fb8368b25430e17462c296b7032034d0f85ace7e4d99",
    },
    ("bounds", "csv"): {
        "bounds.csv": "ec3cf486cbb6e8543b2b31893c51140b8c22f8855c87e943657d86930ab4f1c5",
        "fprofile.csv": "d2ef902f2e3a6fdf2d6627d44abac4888350b321e20c71ace02a17adffcd2978",
    },
    ("bounds", "jsonl"): {
        "bounds.jsonl": "97131a0aac770ffea0b514bb13496bca847f00bc421c27c66a3f80cfa7bbe809",
        "fprofile.jsonl": "a47ddb8945914138c149c5ad33c882047cdad7aa93c5ebb39dc7616d72a1f7f1",
    },
    ("phase-diagram", "csv"): {
        "beta_critical.csv": "e8b9b45c015c393f7cda4cbca6ceb96415bf68360632316110e2b260f503b1c1",
        "p_critical.csv": "84c58d012a076c5928cdbc469c454b12f35f598462c4f9cb465174ed360f53b6",
        "phase.csv": "3feac7ea703aa7326a88730f9514c42bd7ca77c0d437bbf10bff8102d7e403a4",
    },
    ("phase-diagram", "jsonl"): {
        "beta_critical.jsonl": "4d14e40b6b19803480996814325b8e9df6c916933f009cdf9167b8378afd839b",
        "p_critical.jsonl": "a0e2b09686ecda8623a82fcd7a2a7190f55cc3b1fde6eb7d8244b47ad38c6c0d",
        "phase.jsonl": "9a330da65319b936c4ba2f8c238c50a350a220ce821c44a4f75d7849f3fd9316",
    },
    ("slope-check", "csv"): {
        "slope_check.csv": "60deb0eefd3b5b31c4142f7a12994564a61602a85c2beda321c70d203c307c84",
        "slope_report.json": "4c437c251b465a0cae6a4d351ae2845b2fc78a88b953da8b33df8b75ea6a0828",
    },
    ("slope-check", "jsonl"): {
        "slope_check.jsonl": "25ca906b5ac156f5c6790bc74c711582c493e0e27fd4aef33b7bc83dd75577b9",
        "slope_report.json": "4c437c251b465a0cae6a4d351ae2845b2fc78a88b953da8b33df8b75ea6a0828",
    },
    ("bm-sample", "csv"): {
        "path_0.csv": "4862aac8434607158e4e6e8ac721ccee8814b3a45d05892979d57a3d4a8e9754",
        "path_1.csv": "bb703132552a83f464d6431eb9d3c81603309bfbf0c1f7d88c4401b6bcfe1354",
        "path_2.csv": "aadc6d44e726070be2db0e7dfcbbdf0988e246034cf83b2eea4c874d9e1d08b1",
        "radial_stats.csv": "06129ef517ee4d0e6f8562f64162ba3b13f3b4014c6d8926661db81ad02da7c7",
    },
    ("bm-sample", "jsonl"): {
        "path_0.csv": "4862aac8434607158e4e6e8ac721ccee8814b3a45d05892979d57a3d4a8e9754",
        "path_1.csv": "bb703132552a83f464d6431eb9d3c81603309bfbf0c1f7d88c4401b6bcfe1354",
        "path_2.csv": "aadc6d44e726070be2db0e7dfcbbdf0988e246034cf83b2eea4c874d9e1d08b1",
        "radial_stats.jsonl": "1c8df7cac902724a69bfce4408ca64eaf4e57651cdac84f095e1cb76db936b4a",
    },
    ("intermittency", "csv"): {
        "intermittency.csv": "506d9bce6bab572f609f9849b306bb7826217f16a8d2957ff668000b4d508ff6",
    },
    ("intermittency", "jsonl"): {
        "intermittency.jsonl": "4a545ec587c8535c0614f1d83c078f0bc29ba4099cd474a2f293d1582e0311d0",
    },
}


def run_digests(tmp_path, case: str, fmt: str) -> dict[str, str]:
    subcommand, *overrides = RUNS[case]
    out = tmp_path / "out"
    argv = [subcommand, "--format", fmt, "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", list(RUNS))
def test_output_digests(tmp_path, case, fmt):
    assert run_digests(tmp_path, case, fmt) == DIGESTS[case, fmt]
