import numpy as np
import pytest

from etcsim.errors import ConfigurationError, DecayMarginError, DimensionError, DomainError
from etcsim.linalg import sym_eig_extremes
from etcsim.plant import build_plant


def reference_plant(**kw):
    args = dict(A=[[1.0, -2.0], [1.0, 4.0]], B=[[0.0], [1.0]], K=[[2.0, -8.0]],
                Q=np.eye(2), a=1.2, beta_fraction=0.8)
    args.update(kw)
    return build_plant(**args)


class TestBuild:
    def test_reference_build_succeeds_with_positive_margin(self):
        plant = reference_plant()
        assert plant.constants.guarded_decay_gap > 0.0

    def test_closed_loop_eigenvalues(self):
        plant = reference_plant()
        eig = np.sort(np.linalg.eigvals(plant.Abar).real)
        assert np.max(np.abs(eig - np.array([-2.0, -1.0]))) <= 1e-9

    def test_margin_boundary_rejected(self):
        # beta at the certified rate leaves no room once inflated by a > 1.
        with pytest.raises(DecayMarginError):
            reference_plant(beta_fraction=1.0)

    def test_diagonal_closed_form(self):
        # Abar = -I gives P = I/2; every constant follows by hand.
        plant = build_plant(A=np.eye(2), B=np.eye(2), K=-2.0 * np.eye(2),
                            Q=np.eye(2), a=1.5, beta=0.5)
        assert np.allclose(plant.P, 0.5 * np.eye(2), atol=1e-12)
        c = plant.constants
        assert c.decay_gap == pytest.approx(2.0 - 0.5, abs=1e-12)
        assert c.guarded_decay_gap == pytest.approx(2.0 - 0.75, abs=1e-12)
        assert c.growth_rate == pytest.approx(1.0 + 0.25, abs=1e-9)
        assert c.growth_rate_inf == pytest.approx(1.0 + 0.25, abs=1e-12)
        # ||P B K||_2 = 1, lam_min(P) = 1/2, n = 2.
        assert c.error_scale == pytest.approx(1.25 * np.sqrt(0.5) / (2 * np.sqrt(2)),
                                              abs=1e-12)

    def test_requires_exactly_one_beta_form(self):
        with pytest.raises(ConfigurationError):
            reference_plant(beta=0.3, beta_fraction=0.8)
        with pytest.raises(ConfigurationError):
            reference_plant(beta_fraction=None)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionError):
            build_plant(A=np.eye(2), B=[[1.0]], K=[[1.0, 0.0]], Q=np.eye(2),
                        a=1.2, beta=0.1)

    def test_rejects_small_margin_factor(self):
        with pytest.raises(ConfigurationError):
            reference_plant(a=1.0)

    def test_constants_deterministic(self):
        assert reference_plant().constants == reference_plant().constants


class TestPerformance:
    def test_lyapunov_value_at_origin(self):
        assert reference_plant().lyapunov_value([0.0, 0.0]) == 0.0

    def test_desired_performance_at_start(self):
        plant = reference_plant().with_vd0(3.0)
        assert plant.desired_performance(0.0) == 3.0

    def test_desired_performance_decreasing(self):
        plant = reference_plant().with_vd0(3.0)
        ts = np.linspace(0.0, 5.0, 50)
        vals = [plant.desired_performance(t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_array_calls_match_scalar_formulas(self, rng):
        plant = reference_plant().with_vd0(3.0)
        xs = rng.normal(size=(7, 2))
        ts = np.linspace(0.0, 5.0, 7)
        assert np.allclose(plant.lyapunov_value(xs), [x @ plant.P @ x for x in xs],
                           rtol=1e-14, atol=0)
        assert np.allclose(plant.desired_performance(ts), 3.0 * np.exp(-plant.beta * ts),
                           rtol=1e-15, atol=0)
        with pytest.raises(DomainError):
            plant.desired_performance(np.array([0.0, -1e-3]))

    def test_reference_initial_level(self):
        # vd0 = 1.2 * V((6, -4)) with the exact certificate: V = 403/3.
        plant = reference_plant()
        v0 = plant.lyapunov_value([6.0, -4.0])
        assert v0 == pytest.approx(403.0 / 3.0, rel=1e-9)
        assert 1.2 * v0 == pytest.approx(161.2, rel=1e-9)

    def test_certificate_extremes(self):
        lo, hi = sym_eig_extremes(reference_plant().P)
        assert lo == pytest.approx(0.1778, abs=1e-3)
        assert hi == pytest.approx(2.6556, abs=1e-3)
