"""Fit configuration, trace container, and trace CSV round trips."""

import math

import numpy as np
import pytest

from cemfit.censoring import CensoredSample
from cemfit.distributions import Family, Laplace, Normal, Rayleigh
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
        assert trace.logliks() == [-12.5, -3.25, -1.125]

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
