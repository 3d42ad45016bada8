"""Bitwise regression pin of the Monte Carlo routes.

The expected values are float.hex strings of results computed before the
path state moved to coordinate-major memory; the step, the pair distances
and the kernel lookup were rewritten to give the same bits, and this test
catches any later silent drift in them.  2 * BLOCK_SIZE + 37 paths make three
blocks, the last one ragged, and two workers split them into two groups.
The bits also depend on numpy's elementary functions (sinh, cosh, arccosh,
exp, log): they were taken with numpy 2.4 on x86-64."""

from dataclasses import replace

import pytest

from hypam import FkConfig, ModelPoint, NoiseSpec, RadialProfile, fkmc, intermittency_ratio
from hypam.hyperbolic import BLOCK_SIZE, radial_walk

N_PATHS = 2 * BLOCK_SIZE + 37
CFG = FkConfig(
    spec=NoiseSpec(alpha=1.0, beta=1.0, n=3, K=1.0),
    p=2,
    t_end=0.3,
    dt=0.01,
    n_paths=N_PATHS,
    seed=2024,
    u0=RadialProfile.bump(1.0, 1.5),
)

# (mean, stderr, log_mean) of the moment, then of the chaos coefficient
MOMENT_AND_CHAOS = {
    2: [
        "0x1.a2f9da558d362p-2", "0x1.636bbf2f98712p-7", "-0x1.c98d91292524bp-1",
        "0x1.d7875831b3690p-8", "0x1.d3cbf20daa16ep-15", "-0x1.3bcccc8df471fp+2",
    ],
    3: [
        "0x1.140ece37a6506p-2", "0x1.441504566a18cp-7", "-0x1.4f949d2770929p+0",
        "0x1.de50c18baaddap-8", "0x1.43bcece53e3d9p-15", "-0x1.3ae2a9ce28c73p+2",
    ],
}
# (ratio, stderr, log_ratio, log_stderr) at t = 0.1 and 0.3
INTERMITTENCY_3_2 = [
    ["0x1.0096a37fdf4eep+0", "0x1.05ebfcf153efdp-10", "0x1.2cee7e72d5458p-9", "0x1.055237deb6217p-10"],
    ["0x1.ffec186d0ecc1p-1", "0x1.3bd6ced507e06p-7", "-0x1.3e7f60017c000p-13", "0x1.3be316a1fc2b3p-7"],
]
# n = 4, K = 0.7: (sum of d, sum of d_max, max of d) at t = 0.1 and 0.3
RADIAL_WALK = [
    ["0x1.bc6793a73ec8ap+10", "0x1.e60bda1c25533p+10", "0x1.0a8e481b47e7bp+1"],
    ["0x1.9dd364b22bcc9p+11", "0x1.c77b936418f2cp+11", "0x1.1284822af67e8p+2"],
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_moment_and_chaos(p, workers):
    m, c = fkmc.moment_and_chaos(replace(CFG, p=p), workers=workers)
    got = [x.hex() for x in (m.mean, m.stderr, m.log_mean, c.mean, c.stderr, c.log_mean)]
    assert got == MOMENT_AND_CHAOS[p]


@pytest.mark.parametrize("workers", [1, 2])
def test_intermittency_ratio(workers):
    points = intermittency_ratio(3, 2, [0.1, 0.3], CFG, workers=workers)
    got = [[x.hex() for x in (r.ratio, r.stderr, r.log_ratio, r.log_stderr)] for r in points]
    assert got == INTERMITTENCY_3_2


@pytest.mark.parametrize("workers", [1, 2])
def test_radial_walk(workers):
    _, d, d_max = radial_walk(ModelPoint.basepoint(4, 0.7), [0.1, 0.3], 0.01, N_PATHS, 2024, workers)
    got = [[float(x).hex() for x in (d[c].sum(), d_max[c].sum(), d[c].max())] for c in range(2)]
    assert got == RADIAL_WALK
