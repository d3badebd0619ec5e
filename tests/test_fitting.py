"""Fit configuration, trace container, and trace CSV round trips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cemfit
from cemfit.censoring import CensoredSample, observed_loglik
from cemfit.datasets import dataset_path
from cemfit.direct import loglik_gradient_norm
from cemfit.distributions import Family, Laplace, Normal, Rayleigh, make_params
from cemfit.exceptions import DataError, ParameterError
from cemfit.fitting import (
    DEFAULT_SEED,
    Algorithm,
    FitConfig,
    FitTrace,
    TraceRow,
    default_start,
    read_trace_csv,
)


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig(Family.NORMAL, Algorithm.EM)
        assert cfg.k == 50_000
        assert cfg.tol == 1e-8
        assert cfg.seed == DEFAULT_SEED == 0
        assert cfg.start is None

    def test_resolved_max_iter_defaults_per_algorithm(self):
        assert FitConfig(Family.NORMAL, Algorithm.EM).resolved_max_iter() == 500
        assert FitConfig(Family.NORMAL, Algorithm.MCEM).resolved_max_iter() == 15
        assert FitConfig(Family.RAYLEIGH, Algorithm.MCEM,
                         max_iter=7).resolved_max_iter() == 7

    def test_em_only_valid_for_normal(self):
        with pytest.raises(ParameterError):
            FitConfig(Family.LAPLACE, Algorithm.EM)
        with pytest.raises(ParameterError):
            FitConfig(Family.RAYLEIGH, Algorithm.EM)

    def test_start_family_must_match(self):
        with pytest.raises(ParameterError):
            FitConfig(Family.NORMAL, Algorithm.EM, start=Rayleigh(1.0))
        cfg = FitConfig(Family.NORMAL, Algorithm.EM, start=Normal(0.0, 1.0))
        assert cfg.start == Normal(0.0, 1.0)

    @pytest.mark.parametrize("start", [(1.0, 2.0), [0.0, 1.0], 1.0, "1,2"], ids=repr)
    def test_start_must_be_a_parameter_set(self, start):
        with pytest.raises(ParameterError, match="start must be a parameter set"):
            FitConfig(Family.NORMAL, Algorithm.EM, start=start)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            FitConfig(Family.NORMAL, Algorithm.MCEM, k=0)
        for tol in (0.0, -1e-8, math.inf, math.nan):
            with pytest.raises(ParameterError):
                FitConfig(Family.NORMAL, Algorithm.EM, tol=tol)
        with pytest.raises(ParameterError):
            FitConfig(Family.NORMAL, Algorithm.EM, max_iter=0)
        with pytest.raises(ParameterError):
            FitConfig(Family.NORMAL, Algorithm.EM, seed=-1)
        # counts are never truncated: a float, even an integral one, is refused
        for bad in ({"k": 10.9}, {"max_iter": 2.7}, {"seed": 3.9}, {"k": 10.0},
                    {"max_iter": "3"}, {"seed": np.float64(1.0)}):
            with pytest.raises(ParameterError):
                FitConfig(Family.NORMAL, Algorithm.MCEM, **bad)

    def test_numpy_integers_become_python_ints(self):
        cfg = FitConfig(Family.NORMAL, Algorithm.MCEM, k=np.int64(7),
                        max_iter=np.int32(2), seed=np.uint64(2**64 - 1))
        assert (cfg.k, cfg.max_iter, cfg.seed) == (7, 2, 2**64 - 1)
        assert all(type(v) is int for v in (cfg.k, cfg.max_iter, cfg.seed))


class TestTrace:
    def _toy_trace(self):
        rows = [
            TraceRow(0, Normal(0.0, 1.0), -12.5),
            TraceRow(1, Normal(1.8467, 0.2968**2), -3.25),
            TraceRow(2, Normal(1.8058, 0.1931**2), -1.125),
        ]
        return FitTrace(rows=rows, converged=True)

    def test_final_and_iterations(self):
        trace = self._toy_trace()
        assert trace.final == Normal(1.8058, 0.1931**2)
        assert trace.iterations == 2
        assert trace.loglik == -1.125
        assert trace.logliks() == [-12.5, -3.25, -1.125]
        assert trace.gradient_norm is None

    def test_reported_converts_scale(self):
        row = TraceRow(1, Normal(1.8467, 0.2968**2), -3.25)
        assert row.reported() == pytest.approx((1.0, 1.8467, 0.2968, -3.25))
        assert TraceRow(2, Rayleigh(5.0), 0.5).reported() == (2.0, 5.0, 0.5)
        assert TraceRow(0, Laplace(2.0, 3.0), 0.0).reported() == (0.0, 2.0, 3.0, 0.0)

    def test_header_names_follow_family(self):
        assert self._toy_trace().header() == ["s", "mu", "sigma", "loglik"]
        ray = FitTrace(rows=[TraceRow(0, Rayleigh(1.0), 0.0)])
        assert ray.header() == ["s", "beta", "loglik"]

    def test_csv_round_trip_is_exact(self, tmp_path):
        trace = self._toy_trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        rows = read_trace_csv(path)
        assert len(rows) == 3
        for row, parsed in zip(trace.rows, rows):
            assert parsed == row.reported()  # bit-exact via 17 digits

    def test_empty_csv_names_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(DataError, match="trace.csv: empty file"):
            read_trace_csv(path)

    def test_non_numeric_cell_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s,mu,sigma,loglik\n0,1.0,2.0,-3.5\n1,1.1,oops,-3.4\n")
        with pytest.raises(DataError, match=r"trace\.csv, line 3: cannot parse trace "
                                            r"value 'oops'"):
            read_trace_csv(path)

    def test_bad_cell_line_counts_file_lines_not_records(self, tmp_path):
        # a quoted cell spanning two lines and a blank line shift the bad
        # record to file line 5, though it is only the fourth record
        path = tmp_path / "trace.csv"
        path.write_text('s,mu,sigma,loglik\n0,"1.0\n",2.0,-3.5\n\n1,1.1,oops,-3.4\n')
        with pytest.raises(DataError, match=r"trace\.csv, line 5: cannot parse trace "):
            read_trace_csv(path)

    def test_byte_that_is_not_utf8_names_the_line_and_offset(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"s,mu,sigma,loglik\n0,1.0,2.0,-3.5\n1,1.1\xe9,2.0,-3.4\n")
        with pytest.raises(DataError, match=r"trace\.csv, line 3: byte 0xe9 at offset 38 "
                                            r"is not UTF-8$"):
            read_trace_csv(path)

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("s,mu,sigma,loglik\n0,1.0,2.0,-3.5\n   \n\n1,1.1,2.5,-3.4\n")
        assert read_trace_csv(path) == [(0.0, 1.0, 2.0, -3.5), (1.0, 1.1, 2.5, -3.4)]

    def test_csv_header_and_shape(self):
        text = self._toy_trace().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "s,mu,sigma,loglik"
        assert len(lines) == 4
        assert lines[1].startswith("0,")


class TestDefaultStart:
    def test_normal_moments_of_observed(self):
        w = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        s = CensoredSample(w, [1, 1, 1, 1, 0])
        start = default_start(s, Family.NORMAL)
        y = w[:4]
        assert start.mu == pytest.approx(y.mean())
        assert start.sigma2 == pytest.approx(y.var())

    def test_laplace_median_and_mad(self):
        w = np.array([1.0, 5.0, 9.0, 20.0])
        s = CensoredSample(w, [1, 1, 1, 0])
        start = default_start(s, Family.LAPLACE)
        assert start.mu == pytest.approx(5.0)
        assert start.sigma == pytest.approx(np.abs(w[:3] - 5.0).mean())

    def test_rayleigh_root_mean_square(self):
        w = np.array([3.0, 4.0])
        s = CensoredSample(w, [1, 1])
        start = default_start(s, Family.RAYLEIGH)
        assert start.beta == pytest.approx(math.sqrt((9.0 + 16.0) / 4.0))

    def test_degenerate_observed_falls_back(self):
        s = CensoredSample([2.0, 2.0, 5.0], [1, 1, 0])
        start = default_start(s, Family.NORMAL)
        assert start.sigma2 > 0.0

    def test_equal_laplace_observations_fall_back_to_unit_scale(self):
        s = CensoredSample([2.0, 2.0, 5.0], [1, 1, 0])
        assert default_start(s, Family.LAPLACE) == Laplace(0.0, 1.0)

    def test_rayleigh_moment_start_of_no_observations_is_unit(self):
        assert Rayleigh.moment_start(np.array([])) == Rayleigh(1.0)


ROUTES = [(family, algorithm) for family in Family for algorithm in Algorithm
          if algorithm is not Algorithm.EM or family is Family.NORMAL]


class TestOneResultType:
    @pytest.mark.parametrize(("family", "algorithm"), ROUTES, ids=lambda v: v.value)
    def test_every_route_returns_a_fit_trace(self, family, algorithm):
        sample = cemfit.read_censored_csv(dataset_path(f"{family.value}_type2"))
        trace = cemfit.fit(sample, FitConfig(family, algorithm, k=20, max_iter=3))
        assert type(trace) is FitTrace
        assert trace.loglik == trace.rows[-1].loglik == observed_loglik(sample, trace.final)
        assert trace.iterations == trace.rows[-1].s
        if algorithm is Algorithm.DIRECT:
            assert len(trace.rows) == 1
            assert trace.gradient_norm == loglik_gradient_norm(sample, trace.final)
        else:
            assert trace.gradient_norm is None

    def test_package_exports_one_result_type(self):
        assert len(cemfit.__all__) == 24
        assert "OptimizerReport" not in cemfit.__all__
        assert not hasattr(cemfit, "OptimizerReport")

    def test_every_exported_error_is_a_data_or_a_parameter_error(self):
        errors = [name for name in cemfit.__all__ if name.endswith("Error")]
        assert errors == ["DataError", "ParameterError"]
        for name in errors:
            assert issubclass(getattr(cemfit, name), (DataError, ParameterError))


# (family, route, start, k, max_iter): starts whose observed log-likelihood on
# the bundled sample is -inf or overflows, each once a traceback or a
# misleading message
NO_LOGLIK_STARTS = [
    ("normal", "em", (1e308, 1e308), None, None),
    ("normal", "direct", (1e308, 1e308), None, None),
    ("normal", "mcem", (1e308, 1e308), 10, 2),
    ("normal", "direct", (1e200, 1.0), None, None),
    ("laplace", "mcem", (1e308, 1e308), 1, 2),
    ("rayleigh", "mcem", (1e-308,), 10, 2),
    ("normal", "em", (1e200, 1.0), None, None),
    ("normal", "direct", (1e155, 1e-300), None, None),
]


class TestStartWithNoFiniteLoglik:
    @pytest.mark.parametrize("family, route, start, k, max_iter", NO_LOGLIK_STARTS)
    def test_is_refused_naming_the_start(self, family, route, start, k, max_iter):
        family = Family(family)
        sample = cemfit.read_censored_csv(dataset_path(f"{family.value}_type2"))
        params = make_params(family, start)
        config = FitConfig(family, Algorithm(route), start=params,
                           **({"k": k, "max_iter": max_iter} if k else {}))
        with pytest.raises(ParameterError, match=rf"^start {re.escape(repr(params))} has no "
                                                 r"finite log-likelihood on this sample$"):
            cemfit.fit(sample, config)


# every (family, route) pair a fit accepts
ROUTES = [(Family.NORMAL, Algorithm.EM)] + [
    (family, route) for family in Family for route in (Algorithm.MCEM, Algorithm.DIRECT)]


@st.composite
def wild_samples(draw):
    """2 to 30 values, log-uniform over 10**+-200, Cauchy magnitudes or integer
    ties; each censored with chance 2/5, and at least one exact."""
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(["log-uniform", "cauchy", "ties"]))
    if kind == "log-uniform":
        w = [10.0 ** e for e in draw(st.lists(st.floats(-200.0, 200.0), min_size=n, max_size=n))]
    elif kind == "cauchy":
        u = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=n, max_size=n))
        w = [abs(math.tan(math.pi * (v - 0.5))) for v in u]
    else:
        w = [float(v) for v in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
    delta = draw(st.lists(st.sampled_from([1, 1, 1, 0, 0]), min_size=n, max_size=n))
    delta[draw(st.integers(0, n - 1))] = 1
    return CensoredSample(w, delta)


class TestCrashFreedom:
    """No sample makes a fit from its default start crash: each ends at
    finite values or is refused as a ``DataError`` or a ``ParameterError``."""

    @settings(max_examples=100, deadline=None)
    @given(wild_samples())
    def test_every_route_ends_finite_or_refuses(self, sample):
        for family, route in ROUTES:
            try:
                trace = cemfit.fit(sample, FitConfig(family, route, k=20, max_iter=20))
            except (DataError, ParameterError):
                continue
            for row in trace.rows:
                assert all(map(math.isfinite, (*row.params.reported(), row.loglik))), \
                    (family, route, row)
