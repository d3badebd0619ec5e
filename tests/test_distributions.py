"""Distribution kernels against closed forms and high-precision oracles."""

import dataclasses
import importlib
import math
import pkgutil

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import erfc, log_ndtr

import cemfit
from cemfit.distributions import (
    Family,
    Laplace,
    Normal,
    ParamSet,
    Rayleigh,
    make_params,
    mills_ratio,
    norm_ppf,
    norm_sf,
)
from cemfit.exceptions import ParameterError

U_GRID = [1e-9, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-4, 1 - 1e-9]

PARAM_GRID = {
    Family.NORMAL: [(0.0, 1.0), (1.7, 0.004), (-3.0, 25.0), (50.0, 0.09)],
    Family.LAPLACE: [(0.0, 1.0), (49.8, 4.7), (-2.5, 0.3)],
    Family.RAYLEIGH: [(1.0,), (6.1341,), (0.02,), (250.0,)],
}


def all_params():
    out = []
    for family, grid in PARAM_GRID.items():
        out.extend(make_params(family, values) for values in grid)
    return out


def scipy_ref(params):
    """scipy.stats' frozen distribution for ``params``: an independent oracle."""
    if isinstance(params, Normal):
        return stats.norm(params.mu, math.sqrt(params.sigma2))
    if isinstance(params, Laplace):
        return stats.laplace(params.mu, params.sigma)
    return stats.rayleigh(scale=params.beta)


def mp_norm_sf(x):
    return float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2)


class TestStandardNormalKernels:
    # the moderate range must be near machine precision; past |z| ~ 20 the
    # erfc kernel itself carries a few units in the 13th digit
    def test_cdf_matches_arbitrary_precision(self):
        with mpmath.workdps(50):
            zs = np.concatenate([np.linspace(-8, 8, 161), [0.0]])
            expected = [float(mpmath.ncdf(mpmath.mpf(z))) for z in zs]
            assert_allclose(norm_sf(-zs), expected, rtol=2e-14, atol=0)
            deep = np.linspace(-37, 37, 149)
            expected = [float(mpmath.ncdf(mpmath.mpf(z))) for z in deep]
            assert_allclose(norm_sf(-deep), expected, rtol=5e-13, atol=0)

    def test_survival_matches_arbitrary_precision(self):
        with mpmath.workdps(50):
            zs = np.concatenate([np.linspace(-8, 8, 161), [10.0]])
            expected = [mp_norm_sf(z) for z in zs]
            assert_allclose(norm_sf(zs), expected, rtol=2e-14, atol=0)
            deep = np.linspace(-37, 37, 149)
            expected = [mp_norm_sf(z) for z in deep]
            assert_allclose(norm_sf(deep), expected, rtol=5e-13, atol=0)

    def test_far_tail_survival_value(self):
        # deep tail must stay accurate: the E-step divides by this quantity
        assert norm_sf(10.0) == pytest.approx(7.6199e-24, abs=1e-26)
        assert norm_sf(10.0) == pytest.approx(mp_norm_sf(10.0), rel=1e-13)

    def test_log_survival_matches_arbitrary_precision(self):
        with mpmath.workdps(50):
            zs = np.concatenate([np.linspace(-30, 30, 121), [50.0, 100.0, 300.0]])
            expected = [float(mpmath.log(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2))
                        for z in zs]
        # atol floor: left of -5 the value is a tiny negative number whose
        # relative accuracy does not matter to any likelihood sum
        assert_allclose(Normal(0.0, 1.0).log_survival(zs), expected, rtol=5e-13, atol=1e-15)

    def test_cdf_and_log_survival_are_the_scipy_kernels_bitwise(self):
        # the sampler's cdf is norm_sf(-z), the erfc form 0.5 * erfc(-z / sqrt 2),
        # and the normal log-survival at N(0, 1) is log_ndtr(-z)
        zs = np.concatenate([np.linspace(-40, 40, 321), [0.0, -0.0, 1e-300, -1e-300]])
        assert (norm_sf(-zs).view(np.uint64)
                == (0.5 * erfc(-zs / math.sqrt(2.0))).view(np.uint64)).all()
        assert (Normal(0.0, 1.0).log_survival(zs).view(np.uint64)
                == log_ndtr(-zs).view(np.uint64)).all()

    def test_quantile_against_bisection(self):
        # independent root-find of cdf(x) = norm_sf(-x) = u, bisected to 1e-12
        for u in [0.025, 0.31, 0.5, 0.77, 0.975, 1e-6, 1 - 1e-6]:
            lo, hi = -40.0, 40.0
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if norm_sf(-mid) < u:
                    lo = mid
                else:
                    hi = mid
            assert norm_ppf(u) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_quantile_097five(self):
        assert norm_ppf(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_quantile_round_trip(self):
        us = np.array(U_GRID)
        assert_allclose(norm_sf(-norm_ppf(us)), us, rtol=3e-14, atol=0)
        extremes = np.array([1e-300, 1e-100, 1 - 1e-16])
        assert_allclose(norm_sf(-norm_ppf(extremes)), extremes, rtol=5e-13, atol=0)

    def test_quantile_symmetry_is_exact(self):
        # for u >= 0.5 the complement 1-u is exact in floating point, so the
        # reflection must hold bit-for-bit
        for u in [0.5000001, 0.75, 0.9, 0.9995, 1 - 1e-12]:
            assert norm_ppf(u) == -norm_ppf(1.0 - u)
        assert norm_ppf(0.5) == 0.0


class TestMillsRatio:
    def test_matches_arbitrary_precision(self):
        with mpmath.workdps(50):
            grid = np.concatenate([np.linspace(-38, 38, 191), [100.0, 400.0]])
            expected = [float(mpmath.npdf(mpmath.mpf(a))
                              / (mpmath.erfc(mpmath.mpf(a) / mpmath.sqrt(2)) / 2))
                        for a in grid]
        assert_allclose(mills_ratio(grid), expected, rtol=2e-13)

    def test_monotone_increasing(self):
        # below -37 the ratio underflows toward 0 and neighbors collide
        grid = np.linspace(-37, 200, 4001)
        values = mills_ratio(grid)
        assert np.all(np.diff(values) > 0)

    def test_tail_bounds(self):
        # classical envelope: a < h(a) < a + 1/a for a > 0
        for a in [1.0, 8.0, 9.0, 40.0, 300.0]:
            h = mills_ratio(a)
            assert a < h < a + 1.0 / a


class TestFamilyPointValues:
    # the density is exp(logpdf), the survival exp(log_survival) and the cdf
    # -expm1(log_survival)
    def test_logpdf_at_reference_points(self):
        assert math.exp(Normal(0, 1).logpdf(0.0)) == pytest.approx(0.3989422804, abs=1e-10)
        assert math.exp(Laplace(0, 1).logpdf(0.0)) == pytest.approx(0.5, abs=0)
        assert math.exp(Rayleigh(1).logpdf(1.0)) == pytest.approx(0.6065306597, abs=1e-10)

    def test_log_survival_gives_cdf_at_reference_points(self):
        assert -math.expm1(Normal(0, 1).log_survival(0.0)) == pytest.approx(0.5, abs=0)
        assert -math.expm1(Laplace(0, 1).log_survival(-1.0)) == pytest.approx(0.1839397206,
                                                                              abs=1e-10)
        assert -math.expm1(Rayleigh(2).log_survival(2.0)) == pytest.approx(0.3934693403,
                                                                           abs=1e-10)

    def test_log_survival_at_reference_points(self):
        assert math.exp(Normal(0, 1).log_survival(10.0)) == pytest.approx(7.6199e-24, abs=1e-26)
        assert Rayleigh(1).log_survival(0.0) == 0.0
        assert math.exp(Laplace(0, 1).log_survival(3.0)) == pytest.approx(0.0248935342, abs=1e-10)

    def test_quantile_at_reference_points(self):
        assert Laplace(5, 2).quantile(0.5) == 5.0
        assert Rayleigh(1).quantile(1 - math.exp(-0.5)) == pytest.approx(1.0, abs=1e-12)
        assert Normal(0, 1).quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_laplace_kink_density_is_two_sided_value(self):
        assert Laplace(3.0, 0.5).logpdf(3.0) == 0.0  # log(1/(2*0.5))

    def test_rayleigh_left_of_support(self):
        r = Rayleigh(2.0)
        assert r.logpdf(-1.0) == -math.inf and r.logpdf(0.0) == -math.inf
        assert r.log_survival(-1.0) == 0.0


class TestAgainstScipy:
    """scipy.stats is an independent implementation of the same families."""

    def test_normal(self):
        p = Normal(1.7, 0.004)
        ref = stats.norm(1.7, math.sqrt(0.004))
        xs = np.linspace(1.4, 2.0, 25)
        assert_allclose(np.exp(p.logpdf(xs)), ref.pdf(xs), rtol=1e-12)
        assert_allclose(-np.expm1(p.log_survival(xs)), ref.cdf(xs), rtol=1e-12)
        assert_allclose(np.exp(p.log_survival(xs)), ref.sf(xs), rtol=1e-12)
        assert_allclose(p.log_survival(xs), ref.logsf(xs), rtol=1e-12, atol=1e-15)

    def test_laplace(self):
        p = Laplace(49.8, 4.7)
        ref = stats.laplace(49.8, 4.7)
        xs = np.linspace(30, 70, 25)
        assert_allclose(np.exp(p.logpdf(xs)), ref.pdf(xs), rtol=1e-12)
        assert_allclose(-np.expm1(p.log_survival(xs)), ref.cdf(xs), rtol=1e-12)
        assert_allclose(np.exp(p.log_survival(xs)), ref.sf(xs), rtol=1e-12)
        assert_allclose(p.logpdf(xs), ref.logpdf(xs), rtol=1e-12)

    def test_rayleigh(self):
        p = Rayleigh(6.1341)
        ref = stats.rayleigh(scale=6.1341)
        xs = np.linspace(0.5, 25, 25)
        assert_allclose(np.exp(p.logpdf(xs)), ref.pdf(xs), rtol=1e-12)
        assert_allclose(-np.expm1(p.log_survival(xs)), ref.cdf(xs), rtol=1e-12)
        assert_allclose(p.log_survival(xs), ref.logsf(xs), rtol=1e-12)
        assert_allclose(p.quantile(np.array(U_GRID)), ref.ppf(U_GRID), rtol=1e-10)


class TestSharedInvariants:
    @pytest.mark.parametrize("params", all_params(), ids=str)
    def test_quantile_round_trip(self, params):
        ref = scipy_ref(params)
        for u in U_GRID:
            assert abs(ref.cdf(params.quantile(u)) - u) <= 1e-9

    @pytest.mark.parametrize("params", all_params(), ids=str)
    def test_density_is_minus_survival_derivative(self, params):
        # central difference; step below 1e-6 of the scale loses accuracy
        if isinstance(params, Rayleigh):
            scale, xs = params.beta, params.beta * np.array([0.4, 1.0, 1.7, 2.5])
        elif isinstance(params, Laplace):
            scale = params.sigma
            xs = params.mu + scale * np.array([-2.5, -1.1, 0.7, 2.2])  # off the kink
        else:
            scale = math.sqrt(params.sigma2)
            xs = params.mu + scale * np.array([-2.5, -1.1, 0.0, 0.7, 2.2])
        h = 1e-6 * scale
        below, above = np.exp(params.log_survival(xs - h)), np.exp(params.log_survival(xs + h))
        approx = (below - above) / (2 * h)
        assert_allclose(approx, np.exp(params.logpdf(xs)), rtol=1e-5)

    @pytest.mark.parametrize("params", all_params(), ids=str)
    def test_log_survival_finite_and_falling_in_far_tail(self, params):
        if isinstance(params, Rayleigh):
            loc, scale = 0.0, params.beta
        elif isinstance(params, Laplace):
            loc, scale = params.mu, params.sigma
        else:
            loc, scale = params.mu, math.sqrt(params.sigma2)
        xs = loc + scale * np.linspace(5, 12, 15)
        values = np.atleast_1d(params.log_survival(xs))
        assert np.all(np.exp(values) > 0)
        assert np.all(np.diff(values) < 0)

    @pytest.mark.parametrize(
        "values", PARAM_GRID[Family.NORMAL] + PARAM_GRID[Family.LAPLACE],
        ids=str)
    def test_location_symmetry(self, values):
        ts = np.array([0.0, 0.3, 1.0, 2.7, 4.9])
        for p in (Normal(*values), Laplace(*values)):
            mu = p.mu
            # cdf(mu - t) = survival(mu + t)
            cdf = -np.expm1(p.log_survival(mu - ts))
            assert np.all(np.abs(cdf - np.exp(p.log_survival(mu + ts))) <= 1e-15)

    @pytest.mark.parametrize("params", all_params(), ids=str)
    def test_density_integrates_to_one(self, params):
        from scipy.integrate import quad
        if isinstance(params, Rayleigh):
            lo, hi = 0.0, 40 * params.beta
        elif isinstance(params, Laplace):
            lo, hi = params.mu - 60 * params.sigma, params.mu + 60 * params.sigma
        else:
            s = math.sqrt(params.sigma2)
            lo, hi = params.mu - 20 * s, params.mu + 20 * s
        total, _ = quad(lambda x: math.exp(params.logpdf(x)), lo, hi,
                        points=[getattr(params, "mu", 0.0)], limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("params", all_params(), ids=str)
    def test_logpdf_matches_scipy(self, params):
        if isinstance(params, Rayleigh):
            xs = params.beta * np.array([0.3, 1.0, 2.4])
        else:
            xs = getattr(params, "mu") + np.array([-1.3, 0.2, 1.9])
        assert_allclose(params.logpdf(xs), scipy_ref(params).logpdf(xs), rtol=1e-13)


class TestConstruction:
    def test_make_params_uses_natural_parameters(self):
        p = make_params(Family.NORMAL, (1.7, 0.004))
        assert (p.mu, p.sigma2) == (1.7, 0.004)
        assert make_params(Family.LAPLACE, (0.0, 2.0)) == Laplace(0.0, 2.0)
        assert make_params(Family.RAYLEIGH, (5.0,)) == Rayleigh(5.0)

    def test_reported_scale_is_standard_deviation(self):
        p = Normal(1.7422, 0.0791**2)
        assert p.reported() == pytest.approx((1.7422, 0.0791))
        assert p.sigma == pytest.approx(0.0791)
        assert p.param_names == ("mu", "sigma")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            Normal(0.0, 0.0)
        with pytest.raises(ParameterError):
            Normal(0.0, -1.0)
        with pytest.raises(ParameterError):
            Laplace(0.0, 0.0)
        with pytest.raises(ParameterError):
            Rayleigh(-2.0)
        with pytest.raises(ParameterError):
            make_params(Family.NORMAL, (0.0,))

    @pytest.mark.parametrize("family", list(Family))
    def test_each_field_is_checked_and_named(self, family):
        # every natural parameter must be finite and the last, the scale, positive
        good = PARAM_GRID[family][0]
        names = [f.name for f in dataclasses.fields(type(make_params(family, good)))]
        assert names[-1] in ("sigma2", "sigma", "beta")
        for i, name in enumerate(names):
            for bad in (math.nan, math.inf, -math.inf):
                values = list(good)
                values[i] = bad
                with pytest.raises(ParameterError, match=f"^{name} must be finite"):
                    make_params(family, values)
        for bad in (0.0, -0.0, -1.5):
            with pytest.raises(ParameterError, match=f"^{names[-1]} must be positive"):
                make_params(family, [*good[:-1], bad])

    @pytest.mark.parametrize("params", all_params(), ids=repr)
    def test_every_parameter_set_is_a_param_set(self, params):
        assert isinstance(params, ParamSet)
        assert type(params).__mro__[1] is ParamSet

    def test_family_values(self):
        assert Family("normal") is Family.NORMAL
        assert Family("laplace") is Family.LAPLACE
        assert Family("rayleigh") is Family.RAYLEIGH


def test_every_public_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(cemfit.__path__)]
    for module in [cemfit] + [importlib.import_module(f"cemfit.{name}") for name in names
                              if name != "__main__"]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReportedCoordinates:
    @pytest.mark.parametrize("params", all_params(), ids=repr)
    def test_from_reported_inverts_reported(self, params):
        back = type(params).from_reported(*params.reported())
        if isinstance(params, Normal):
            assert back.mu == params.mu
            assert abs(back.sigma2 - params.sigma2) <= 2 * math.ulp(params.sigma2)
        else:
            assert back == params

    @pytest.mark.parametrize("params", all_params(), ids=repr)
    def test_scale_is_last_and_positive(self, params):
        assert params.reported()[-1] > 0.0

    @pytest.mark.parametrize("family", list(Family))
    def test_make_params_rejects_wrong_arity(self, family):
        arity = len(PARAM_GRID[family][0])
        for n in {0, arity - 1, arity + 1}:
            with pytest.raises(ParameterError):
                make_params(family, (1.0,) * n)
