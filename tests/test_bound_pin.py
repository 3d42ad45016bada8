"""Bitwise regression pin of the bound solvers.

The expected values are float.hex strings and sha256 digests computed before
the growth-rate bracket became one ladder call and the bisection went to two
halvings per profile call, and the lower-bound digests before the radius zoom
evaluated each distinct bracket once; all were rewritten to give the same
bits, and this test catches any later silent drift in them.  The bits also depend on numpy's
and scipy's elementary and special functions (log, exp, erfcx, the incomplete
gamma): they were taken with numpy 2.4 and scipy 1.17 on x86-64."""

import hashlib
import math

import numpy as np
import pytest

from hypam import NoiseSpec, lower_lyapunov, q_sup
from hypam.cli import main
from hypam.renewal import BoundConfig, theta, upper_exponent


def cfg_for(alpha, r=math.inf, n=3, K=1.0, C_chaos=1.0):
    return BoundConfig(NoiseSpec(alpha=alpha, beta=1.0, n=n, K=K), r=r, C_chaos=C_chaos)


# the (alpha, regime) cases of test_renewal.PROFILE_CASES: POWER, LOG, FLAT in
# n = 3 and in n = 5 with K = 2
CASES = [
    cfg_for(0.5),
    cfg_for(0.75),
    cfg_for(1.0),
    cfg_for(1.0, n=5, K=2.0, C_chaos=1.5),
    cfg_for(1.25, n=5, K=2.0),
    cfg_for(2.0, n=5, K=2.0, r=2.0),
]
BETAS = [0.0, 0.01, 0.3, 1.0, 7.0, 150.0, 1e3]
THETA = [
    [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.62c5585000000p+1", "0x1.d76f6c6000000p+12", "0x1.7b3038d000000p+30",
        "0x1.6dbac1d000000p+41",
    ],
    [
        "0x0.0p+0", "0x1.7fc00ee000000p-9", "0x1.d955366000000p-3",
        "0x1.3b9422b000000p+3", "0x1.e9e44ca000000p+11", "0x1.6962ddf000000p+22",
        "0x1.8fa597e000000p+28",
    ],
    [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.19c2e73000000p-2", "0x1.87ffffe000000p+5", "0x1.5f8ffff000000p+14",
        "0x1.e847ffe000000p+19",
    ],
    [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.9308b62000000p+2", "0x1.092eacf000000p+14", "0x1.aa963fe000000p+31",
        "0x1.9b721a2000000p+42",
    ],
    [
        "0x0.0p+0", "0x1.7fbafda000000p-9", "0x1.d47e096000000p-3",
        "0x1.3e392ab000000p+3", "0x1.e9e44ca000000p+11", "0x1.6962ddf000000p+22",
        "0x1.8fa597e000000p+28",
    ],
    [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.923b162000000p-9", "0x1.87ffc56000000p+5", "0x1.5f8ffff000000p+14",
        "0x1.e847ffe000000p+19",
    ],
]

# upper_exponent at n = 3, alpha = 1, K = 1, r = 2: one row per p = 2..8
ORDERS = np.arange(2, 9)
COUPLINGS = [0.0, 0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0]
UPPER = [
    [
        "-0x1.0000000000000p+1", "-0x1.0000000000000p+1", "-0x1.0000000000000p+1",
        "-0x1.0000000000000p+1", "-0x1.0000000000000p+1", "-0x1.b98f463400000p+0",
        "0x1.a28738c000000p+0", "0x1.6fffd16000000p+4", "0x1.87ffffe000000p+6",
        "0x1.c0ffffe000000p+9", "0x1.386ffff000000p+13",
    ],
    [
        "-0x1.8000000000000p+1", "-0x1.8000000000000p+1", "-0x1.8000000000000p+1",
        "-0x1.8000000000000p+1", "-0x1.7110ee04c0000p+1", "-0x1.05b827c800000p+0",
        "0x1.1c3f68c800000p+3", "0x1.1fffffe800000p+6", "0x1.2900001800000p+8",
        "0x1.5120001800000p+11", "0x1.d4b3ffe800000p+14",
    ],
    [
        "-0x1.0000000000000p+2", "-0x1.0000000000000p+2", "-0x1.0000000000000p+2",
        "-0x1.0000000000000p+2", "-0x1.a7e6e82c00000p+1", "0x1.f1317d8000000p-1",
        "0x1.3f864be000000p+4", "0x1.23fffff000000p+7", "0x1.29fffff000000p+9",
        "0x1.513ffff000000p+12", "0x1.d4b7ffe000000p+15",
    ],
    [
        "-0x1.4000000000000p+2", "-0x1.4000000000000p+2", "-0x1.4000000000000p+2",
        "-0x1.4000000000000p+2", "-0x1.a1191a8e00000p+1", "0x1.0594837800000p+2",
        "0x1.17f29c4400000p+5", "0x1.e9ffffd800000p+7", "0x1.f17fffd800000p+9",
        "0x1.1917ffec00000p+13", "0x1.869affec00000p+16",
    ],
    [
        "-0x1.8000000000000p+2", "-0x1.8000000000000p+2", "-0x1.8000000000000p+2",
        "-0x1.8000000000000p+2", "-0x1.5d4a59e800000p+1", "0x1.07be457800000p+3",
        "0x1.affd511800000p+5", "0x1.7100001800000p+8", "0x1.7580001800000p+10",
        "0x1.a5b0001800000p+13", "0x1.24f4ffe800000p+17",
    ],
    [
        "-0x1.c000000000000p+2", "-0x1.c000000000000p+2", "-0x1.c000000000000p+2",
        "-0x1.be4c431604000p+2", "-0x1.bcdcd81000000p+0", "0x1.acaf9b6400000p+3",
        "0x1.33ffbf9400000p+6", "0x1.02fffff200000p+9", "0x1.059ffff200000p+11",
        "0x1.2733fff200000p+14", "0x1.9a247fe400000p+17",
    ],
    [
        "-0x1.0000000000000p+3", "-0x1.0000000000000p+3", "-0x1.0000000000000p+3",
        "-0x1.f702e31a80000p+2", "-0x1.373e6a0000000p-2", "0x1.388a426000000p+4",
        "0x1.9ffff46000000p+6", "0x1.59fffff000000p+9", "0x1.5cfffff000000p+11",
        "0x1.899fffe000000p+14", "0x1.116e001000000p+18",
    ],
]

# sha256 of one output file of `bounds` / `phase-diagram` at (n, alpha), all
# other keys at their defaults
DIGESTS = {
    ('bounds', 3, 0.6): "bc6cc06cdc4b641316b2299e4dc848b7701c4c0c88e2c615a68593f915d7869e",
    ('phase-diagram', 3, 0.6): "8de760df464cee94d27cfb3df5b69ae9d623c3ec3213ccc8c7a428ac6d55b41f",
    ('bounds', 5, 1.25): "50f2e60f02ee7397354fd60ea2e1c7f5b2ac75beb25c1c6630ed6c69e8cfaf90",
    ('phase-diagram', 5, 1.25): "11c4e770d846928669ca4556bdf100d8995799747b4cf1bb7c58a3cf055cf813",
}


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("k", range(len(CASES)))
def test_theta_bits(k):
    cfg = CASES[k]
    assert [float(theta(b, cfg)).hex() for b in BETAS] == THETA[k]
    assert hexes(theta(np.array(BETAS), cfg)) == THETA[k]


def test_upper_exponent_bits():
    values = upper_exponent(ORDERS[:, None], np.array(COUPLINGS), cfg_for(1.0, r=2.0))
    assert [hexes(row) for row in values] == UPPER


@pytest.mark.parametrize("subcommand, n, alpha", list(DIGESTS))
def test_output_digests(tmp_path, subcommand, n, alpha):
    out = tmp_path / "out"
    argv = [subcommand, "--set", f"model.n={n}", "--set", f"noise.alpha={alpha}", "--out", str(out)]
    assert main(argv) == 0
    name = "bounds.csv" if subcommand == "bounds" else "phase.csv"
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == DIGESTS[subcommand, n, alpha]


# sha256 of the space-joined float.hex strings of lower_lyapunov and of
# q_sup(...).r_star over the phase-diagram grid (beta-major, 13 couplings x
# p = 2..8), at the (n, alpha) of the benchmark's bound scans with K = 1
PHASE_BETAS, PHASE_PS = np.meshgrid(np.geomspace(0.1, 100.0, 13), np.arange(2, 9), indexing="ij")
LOWER = {
    (3, 0.6): ("7e4dc2a06d5e758b34e75aa4a4c9dc00a29f5ea5134fcc1364376535c009ad3f", "fd6d1bfdb83a9fb84b06cb291951a4be48806c34a93fc3dfccba6dd4b93c5497"),
    (3, 0.75): ("6a78dd0c71eaa5ee5bed669ba7401e0ea1a173babc18d7fdd4f4092938bb11c4", "695615ecad2a282d9cf4b377eee96e6ba753b4eed1e862a08e7dff0f65c3fc5a"),
    (3, 1.0): ("c67ffccb7bfd4e663ce7028940b88e9c1c2ed6e4504a67ab431c4d91b9f49747", "e59b5001d1c1dcd4f87e3b19e6f06b84c8cd557a2241680bf556f5665b928d0e"),
    (3, 1.5): ("7b60e71fbee7faa64e94f802428cf068b57e79c45a75ba1d0fbbc467a7c6f6de", "4400522997e21b88c876e22faa0855312679aa54372170cc9c2fc59ba361176e"),
    (4, 0.8): ("fd1427f605c9bdc38475c09d16ac01f0800cf527f22e1db146097a9e3d26cade", "904720b0e7ba6c6db8a6cbbdb5395e8e162048e37e24e982ea2bc7035562ebbc"),
    (4, 1.0): ("3360a5d7daa2af247515517c36f86a1483d0a35e252645ca686246e382a661d3", "638c02942639a214c443294e862b082e120823ed4eacd1132ef8fc056633851d"),
    (4, 1.5): ("5d3476ad71db8d3789f00b93db60738e8416e1ef9a3181301e983847cde1512b", "5b6fa71bf336013a49d496ce4ae41c721ef13fd56be1b7931de1fabe13de2f96"),
    (5, 1.0): ("2546ad99340f08446c32ebfd31e93ea84ea42f5919a8fb9fe13c43ca48b468f3", "f6f38ebf6b81b7729342bfbf51dc0efa715d451c32fa6769ee8b93be2426f4e5"),
    (5, 1.25): ("e9c2b56e94f5e09fbf1932ae8cc66cda747daedc42a4eddd81b4f55fbf96ac6c", "17e328f5f298a1d92cac2fbda144fcdbeddc29330113d103fcb594f633137ec7"),
    (5, 2.0): ("aef1f781e84d123f0583bc5c49e4c06c1eb12ecaaf72f42f5ef2b0ee3d0ed225", "4dd959f05d05cbff4a0c7f2ab365c34c659d1e36ed968bf8c3bbd055738f855d"),
}


def digest(values):
    return hashlib.sha256(" ".join(hexes(values)).encode()).hexdigest()


@pytest.mark.parametrize("n, alpha", list(LOWER))
def test_lower_bound_bits(n, alpha):
    spec = NoiseSpec(alpha=alpha, beta=1.0, n=n, K=1.0)
    lower = lower_lyapunov(PHASE_PS, PHASE_BETAS, spec)
    r_star = q_sup(PHASE_PS, PHASE_BETAS, spec).r_star
    assert (digest(lower), digest(r_star)) == LOWER[n, alpha]
