"""The one return rule of the numeric layers (``specialfn._float_or_array``):
every function that takes a scalar or an array gives a Python float for a
scalar, whether it comes as a float, a numpy scalar or a 0-d array, with the
bits of the array call's element."""

import numpy as np
import pytest

from hypam.fkmc import dirichlet_eigenvalue_upper
from hypam.hyperbolic import (
    HeatKernelMode,
    RadialProfile,
    distance_coords,
    heat_kernel_log_values,
    minkowski_inner,
    sheet_violation,
)
from hypam.kernels import (
    KernelGrid,
    NoiseSpec,
    g_alpha_log_values,
    g_alpha_lower,
    g_alpha_lower_log,
)
from hypam.renewal import BoundConfig, f_profile, theta
from hypam.specialfn import dm_h_log, gamma_lower, log_gamma_upper

XS = np.geomspace(0.01, 20.0, 301)
SPEC3 = NoiseSpec(alpha=1.0, beta=0.5, n=3, K=1.0)
SPEC4 = NoiseSpec(alpha=1.25, beta=0.5, n=4, K=0.5)


def point(x):
    """The point at distance x from the base point of the K = 1 hyperboloid in
    R^4; an array of x gives one row per point."""
    zero = np.zeros_like(np.asarray(x, dtype=float))
    return np.stack([np.cosh(x), np.sinh(x), zero, zero], axis=-1)


GRID = KernelGrid(SPEC3, delta_floor=1e-3, d_max=32.0)
BOUNDS = BoundConfig(SPEC3)

# name -> (function of x, how far a scalar call may lie from the array call's
# element: 0 is bit for bit, and a log value's absolute tolerance is the
# relative one of the value)
CASES = {
    "gamma_lower": (lambda x: gamma_lower(1.5, x), 0.0),
    "log_gamma_upper": (lambda x: log_gamma_upper(0.5, 40.0 * x), 0.0),
    "dm_h_log": (lambda x: dm_h_log(x, 0.5 * x, 4), 0.0),
    "minkowski_inner": (lambda x: minkowski_inner(point(x), point(0.5 * x)), 0.0),
    "sheet_violation": (lambda x: sheet_violation(point(x), 1.0), 0.0),
    "distance_coords": (lambda x: distance_coords(point(x), point(0.3 * x), 1.0), 0.0),
    "heat_kernel_log_values exact": (
        lambda x: heat_kernel_log_values(1.0, x, 3, 1.0, HeatKernelMode.exact_n3()),
        0.0,
    ),
    "heat_kernel_log_values dm_upper": (
        lambda x: heat_kernel_log_values(1.0, x, 4, 0.5, HeatKernelMode.dm_upper()),
        0.0,
    ),
    "RadialProfile.value": (lambda x: RadialProfile.bump(1.0, 2.0).value(x), 0.0),
    "g_alpha_log_values exact": (
        lambda x: g_alpha_log_values(SPEC3, x, HeatKernelMode.exact_n3()),
        0.0,
    ),
    # the comparison modes refine every distance of a call to the level its
    # slowest distance needs, so a lone distance may differ in the last bits
    "g_alpha_log_values dm_upper": (
        lambda x: g_alpha_log_values(SPEC4, x, HeatKernelMode.dm_upper()),
        1e-14,
    ),
    "g_alpha_lower_log": (lambda x: g_alpha_lower_log(SPEC3, x), 0.0),
    "g_alpha_lower": (lambda x: g_alpha_lower(SPEC3, x), 0.0),
    "KernelGrid": (GRID, 0.0),
    "dirichlet_eigenvalue_upper": (lambda x: dirichlet_eigenvalue_upper(x, 3, 1.0), 0.0),
    "f_profile": (lambda x: f_profile(BOUNDS.regime, x, BOUNDS), 0.0),
    "theta": (lambda x: theta(x, BOUNDS), 0.0),
}


@pytest.mark.parametrize("name", CASES)
def test_a_scalar_gives_a_float_with_the_array_bits(name):
    f, tol = CASES[name]
    values = f(XS)
    assert isinstance(values, np.ndarray) and values.shape == XS.shape
    for x, v in zip(XS.tolist(), values.tolist()):
        for scalar in (x, np.float64(x), np.array(x)):
            y = f(scalar)
            assert type(y) is float, (name, type(scalar), type(y))
            if tol == 0.0:
                assert y.hex() == v.hex(), (name, x, type(scalar))
            else:
                assert abs(y - v) <= tol, (name, x, type(scalar))
