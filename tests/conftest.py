"""Checks that hold in every test."""

import pytest

import cemfit.direct


@pytest.fixture(autouse=True)
def laplace_scale_is_exact(monkeypatch):
    """Every Laplace direct fit ends on the exact scale at its location: the
    dimensionless scale score sigma * dl/dsigma / n is at most 1e-12."""
    real = cemfit.direct._fit_laplace

    def checked(sample):
        out = real(sample)
        argmax = out[0]
        score = argmax.reported_score(sample)[1] * argmax.sigma / sample.n
        assert abs(score) <= 1e-12, f"scale score {score:.3e} at {argmax}"
        return out

    monkeypatch.setattr(cemfit.direct, "_fit_laplace", checked)
