"""The numpy PCHIP coefficients and the Brent root finder against the scipy
routines they port: equal bits, equal errors, and each branch of Brent's
loop reached on the same evaluation points as scipy."""

import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import jv

from hypam import ConstantLedger, KernelGrid, NoiseSpec, calibrate_lower_constant, kernels
from hypam.fkmc import _brentq, _flat_ball_eigenvalue
from hypam.kernels import _pchip_coefficients


def same_bits(a, b):
    """Equal shapes and equal bit patterns, so signed zeros count too."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPchipCoefficients:
    @pytest.mark.parametrize("source", ["exact", "lower"])
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("K", [0.5, 2.0])
    def test_kernel_tables(self, source, alpha, K):
        spec = NoiseSpec(alpha=alpha, beta=0.0, n=3, K=K)
        ledger = ConstantLedger()
        if source == "lower":
            calibrate_lower_constant(spec, ledger)
        floor, d_max = 1e-3 / math.sqrt(K), 12.0 / math.sqrt(K)
        nodes = np.geomspace(floor, d_max, 400)
        if source == "exact":
            logv = kernels._log_g_exact_n3(spec, nodes)
        else:
            logv = np.asarray(kernels.g_alpha_lower_log(spec, nodes, ledger))
        expected = PchipInterpolator(nodes, logv, extrapolate=False).c
        assert same_bits(_pchip_coefficients(nodes, logv), expected)
        grid = KernelGrid(spec, source, delta_floor=floor, d_max=d_max, ledger=ledger)
        assert same_bits(grid._coef, expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12),
        levels=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0]), min_size=13),
        noise=st.lists(st.floats(-100.0, 100.0), min_size=13),
        use_noise=st.booleans(),
    )
    # a subnormal last slope, whose reciprocal overflows
    @example(steps=[1.0] * 12, levels=[0.0] * 13, noise=[0.0] * 12 + [1e-313], use_noise=True)
    def test_random_tables(self, steps, levels, noise, use_noise):
        """Small levels give flat runs, exact zero slopes and sign changes;
        one step gives the two-node line, two steps the three-node case."""
        x = np.cumsum([0.1, *steps])
        y = np.array((noise if use_noise else levels)[: len(x)])
        with np.errstate(over="ignore"):  # scipy warns where the port must not
            expected = PchipInterpolator(x, y).c
        assert same_bits(_pchip_coefficients(x, y), expected)

    def test_two_nodes_are_the_line(self):
        c = _pchip_coefficients(np.array([1.0, 3.0]), np.array([2.0, -1.0]))
        assert same_bits(c, [[0.0], [0.0], [-1.5], [2.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, bad):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, bad, 0.5, 0.25])
        with pytest.raises(ValueError):
            PchipInterpolator(x, y)
        with pytest.raises(ValueError, match="finite"):
            _pchip_coefficients(x, y)
        with pytest.raises(ValueError, match="finite"):
            _pchip_coefficients(np.array([0.0, 1.0, bad, 3.0]), np.ones(4))


class TestKernelGridNodeCount:
    SPEC = NoiseSpec(alpha=1.0, beta=0.0, n=3, K=1.0)

    def test_coincident_nodes_raise(self):
        """A range one ulp wide rounds nodes together, which scipy refused too."""
        with pytest.raises(ValueError, match="strictly increasing"):
            KernelGrid(self.SPEC, delta_floor=1.0, d_max=np.nextafter(1.0, 2.0))


def bessel_bracket(n):
    """The bracket _flat_ball_eigenvalue hands the root finder."""
    nu = n / 2.0 - 1.0
    x = max(nu, 0.5)
    while jv(nu, x + 0.5) > 0.0:
        x += 0.5
    return nu, x, x + 0.5


def lines_run(func, *args):
    """Source lines of _brentq executed by func(*args), stripped."""
    code = _brentq.__code__
    source, first = inspect.getsourcelines(_brentq)
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(source[frame.f_lineno - first].strip())
        return tracer

    sys.settrace(tracer)
    try:
        func(*args)
    except (ValueError, RuntimeError):
        pass
    finally:
        sys.settrace(None)
    return seen


# the statements that mark each kind of step of Brent's loop
BRANCHES = {
    "return xpre": "left end",
    "return xcur": "converged",
    "stry = -fcur * (xcur - xpre) / (fcur - fpre)": "secant",
    "stry = -fcur * (fblk * dblk - fpre * dpre) / den": "inverse quadratic",
    "spre, scur = scur, stry": "short step",
    "spre = scur = sbis": "bisection",
}
EPS4 = 4 * np.finfo(float).eps


def run_both(f, a, b, xtol, rtol):
    """(outcome, evaluation points) of the port and of scipy's brentq."""
    out = []
    for solve in (_brentq, lambda g, a, b, xtol, rtol: brentq(g, a, b, xtol=xtol, rtol=rtol)):
        xs = []

        def g(x):
            xs.append(float(x).hex())
            return f(x)

        try:
            outcome = float(solve(g, a, b, xtol, rtol)).hex()
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc).__name__
        out.append((outcome, xs))
    return out


class TestBrentq:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_bessel_brackets(self, n):
        nu, a, b = bessel_bracket(n)
        root = _brentq(lambda s: jv(nu, s), a, b, 1e-13, 1e-15)
        assert root.hex() == brentq(lambda s: jv(nu, s), a, b, xtol=1e-13, rtol=1e-15).hex()
        assert _flat_ball_eigenvalue(n) == root**2

    def test_flat_ball_eigenvalue_n3_is_pi_squared(self):
        assert _flat_ball_eigenvalue(3) == pytest.approx(math.pi**2, rel=1e-14)

    @pytest.mark.parametrize(
        "f, a, b, xtol, branches",
        [
            (lambda x: x - 0.3, 0.3, 1.0, 1e-12, {"left end"}),
            (lambda x: x - 1.0, 0.3, 1.0, 1e-12, {"converged"}),  # right end, before the loop
            (lambda x: 2.0 * x - 0.7, 0.0, 1.0, 1e-12, {"secant", "short step", "converged"}),
            (
                lambda x: math.exp(x) - 2.0,
                0.0,
                3.0,
                1e-14,
                {"secant", "inverse quadratic", "short step", "converged"},
            ),
            (
                lambda x: (x - 0.3) ** 3,
                0.0,
                1.0,
                1e-10,
                {"secant", "inverse quadratic", "short step", "bisection", "converged"},
            ),
            (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0, 1e-12, {"bisection", "converged"}),
        ],
    )
    def test_branches_match_scipy(self, f, a, b, xtol, branches):
        ours, theirs = run_both(f, a, b, xtol, EPS4)
        assert ours == theirs
        reached = {BRANCHES[line] for line in lines_run(_brentq, f, a, b, xtol, EPS4) if line in BRANCHES}
        assert reached == branches

    def test_no_sign_change_raises_value_error(self):
        ours, theirs = run_both(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, EPS4)
        assert ours[0] == theirs[0] == "ValueError"

    def test_non_convergence_raises_runtime_error(self):
        """Bisection from a width of 2e300 down to 1e-300 needs about 2000 halvings."""
        step = lambda x: -1.0 if x < math.pi * 1e-300 else 1.0
        ours, theirs = run_both(step, -1e300, 1e300, 1e-300, EPS4)
        assert ours == theirs
        assert ours[0] == "RuntimeError" and len(ours[1]) == 102
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(step, -1e300, 1e300, 1e-300, EPS4)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        root=st.floats(-0.9, 0.9),
        power=st.sampled_from([1, 3, 5]),
        scale=st.floats(1e-3, 1e3),
        shift=st.floats(-0.5, 0.5),
    )
    def test_random_functions(self, root, power, scale, shift):
        f = lambda x: scale * ((x - root) ** power + shift * (x - root))
        ours, theirs = run_both(f, -1.0, 1.0, 1e-13, 1e-15)
        assert ours == theirs

