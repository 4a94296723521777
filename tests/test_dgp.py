"""Tests for the synthetic benchmark data generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr.dgp import (COPULA_DIM, X_SUM_READINGS, DgpSpec, generate,
                       m_case, make_covariates, mspe, rmse_m, sample_copula,
                       sample_t3, sigma1_case, t3_cdf, t3_quantile,
                       true_m, true_quantile, true_theta)
from dplqr.errors import ConfigError, DataError
from dplqr.rng import make_rng

T3_PDF_AT_0 = 2.0 / (np.pi * np.sqrt(3.0))


class TestSampleCopula:
    def test_range_and_marginals(self):
        draws = sample_copula(50_000, 3, 0.5, make_rng(0))
        assert draws.shape == (50_000, 3)
        assert draws.min() > 0.0 and draws.max() < 2.0
        # each marginal is uniform on [0, 2]: mean 1, variance 1/3
        assert_allclose(draws.mean(axis=0), 1.0, atol=0.02)
        assert_allclose(draws.var(axis=0), 1.0 / 3.0, atol=0.01)

    def test_dependence_through_normal_scores(self):
        # correlation of the latent normals is rho; mapping back through
        # the inverse transform recovers it approximately
        ndtri = pytest.importorskip("scipy.special").ndtri
        draws = sample_copula(50_000, 2, 0.5, make_rng(1))
        w = ndtri(draws / 2.0)
        got = np.corrcoef(w[:, 0], w[:, 1])[0, 1]
        assert abs(got - 0.5) < 0.02

    def test_rho_zero_independent(self):
        draws = sample_copula(50_000, 2, 0.0, make_rng(2))
        got = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(got) < 0.02

    def test_rho_range_validated(self):
        with pytest.raises(ConfigError):
            sample_copula(100, 3, 1.0, make_rng(0))
        with pytest.raises(ConfigError):
            sample_copula(100, 3, -0.6, make_rng(0))

    def test_dim_validated(self):
        with pytest.raises(ConfigError, match="^dim must be >= 1, got 0$"):
            sample_copula(100, 0, 0.5, make_rng(7509))

    def test_deterministic(self):
        a = sample_copula(20, 12, 0.5, make_rng(3))
        b = sample_copula(20, 12, 0.5, make_rng(3))
        assert_allclose(a, b, rtol=0)


class TestSampleT3:
    def test_symmetry_and_tail(self):
        draws = sample_t3(200_000, make_rng(4))
        assert abs(float(np.median(draws))) < 0.01
        # P(|T| > 2.3534) = 0.10 for 3 degrees of freedom
        tail = float(np.mean(np.abs(draws) > 2.3534))
        assert abs(tail - 0.10) < 0.01

    def test_heavy_tails_vs_normal(self):
        draws = sample_t3(200_000, make_rng(5))
        # sample kurtosis is unbounded in theory; it should at least be
        # well above the normal value of 3
        k = float(np.mean(draws ** 4) / np.mean(draws ** 2) ** 2)
        assert k > 6.0


class TestMakeCovariates:
    def test_threshold_and_passthrough(self):
        draws = np.ones((3, COPULA_DIM))
        draws[0, 10], draws[1, 10], draws[2, 10] = 0.4, 1.0, 1.6
        draws[:, 11] = (0.3, 1.2, 1.9)
        x, z = make_covariates(draws)
        assert_allclose(x[:, 0], [0.0, 0.0, 1.0])  # strict > 1 threshold
        assert_allclose(x[:, 1], [0.3, 1.2, 1.9])
        assert z.shape == (3, 10)
        assert_allclose(z, 1.0)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            make_covariates(np.ones((5, 11)))


class TestMeanFunctions:
    def test_case1_at_ones(self):
        assert_allclose(m_case(1, np.ones(10)), 9.5)

    def test_case1_linear(self):
        z = np.zeros(10)
        z[3] = 2.0
        assert_allclose(m_case(1, z), 1.9)

    def test_case3_at_ones(self):
        # terms at z = ones: 1, 2, sin(1), 1, 2, 1 -> 0.51 * (7 + sin 1)
        want = 0.51 * (7.0 + np.sin(1.0))
        assert_allclose(m_case(3, np.ones(10)), want, rtol=1e-12)
        assert_allclose(m_case(3, np.ones(10)), 3.9991502022520273,
                        rtol=1e-12)

    def test_case2_finite_on_domain(self):
        draws = sample_copula(1000, COPULA_DIM, 0.5, make_rng(6))
        _, z = make_covariates(draws)
        vals = m_case(2, z)
        assert np.all(np.isfinite(vals))

    def test_vectorized_matches_scalar(self):
        rng = make_rng(7)
        draws = sample_copula(20, COPULA_DIM, 0.5, rng)
        _, z = make_covariates(draws)
        for case in (1, 2, 3):
            batch = m_case(case, z)
            single = [m_case(case, row) for row in z]
            assert_allclose(batch, single, rtol=1e-12)

    def test_case_range(self):
        with pytest.raises(ConfigError):
            m_case(4, np.ones(10))

    def test_z_width_checked(self):
        with pytest.raises(DataError, match=(
                r"^z must have 10 coordinates, got \(3, 9\)$")):
            m_case(1, np.ones((3, 9)))


class TestScaleFunctions:
    def test_case4_hand_value(self):
        # x = (1, 1), z = ones: (1 + 1 + 10) / 5 = 2.4
        got = sigma1_case(4, np.array([1.0, 1.0]), np.ones(10))
        assert_allclose(got, 2.4)

    def test_case5_hand_value(self):
        # x = (0, 0.6), z = 0.2*ones: (0.6 + 0) / 3.6
        got = sigma1_case(5, np.array([0.0, 0.6]), np.full(10, 0.2))
        assert_allclose(got, 0.6 / 3.6, rtol=1e-12)

    def test_case6_hand_value(self):
        # x = (0, 0), z with sum(z - 1) -> -inf limit is 0; at z = ones
        # the normal CDF term is Phi(0) = 1/2, so sigma1 = 1.5
        got = sigma1_case(6, np.array([0.0, 0.0]), np.ones(10))
        assert_allclose(got, 1.5)

    def test_alternative_x_reading(self):
        x = np.array([1.0, 0.3])
        z = np.ones(10)
        default = sigma1_case(4, x, z, sigma_x_terms="x1+x2")
        doubled = sigma1_case(4, x, z, sigma_x_terms="2x1")
        assert_allclose(default, (1.3 + 10.0) / 5.0)
        assert_allclose(doubled, (2.0 + 10.0) / 5.0)

    def test_positive_over_domain(self):
        draws = sample_copula(100_000, COPULA_DIM, 0.5, make_rng(8))
        x, z = make_covariates(draws)
        for case in (4, 5, 6):
            vals = sigma1_case(case, x, z)
            assert np.all(vals > 0.0), f"case {case}"

    def test_case_range(self):
        with pytest.raises(ConfigError):
            sigma1_case(1, np.zeros(2), np.ones(10))

    def test_x_width_checked(self):
        with pytest.raises(DataError, match=(
                r"^x must have 2 coordinates, got \(3, 3\)$")):
            sigma1_case(4, np.zeros((3, 3)), np.ones((3, 10)))

    def test_unknown_x_reading(self):
        with pytest.raises(ConfigError,
                           match="^unknown sigma_x_terms 'x1'$"):
            sigma1_case(4, np.zeros(2), np.ones(10), sigma_x_terms="x1")


class TestT3Distribution:
    def test_cdf_at_zero(self):
        assert t3_cdf(0.0) == 0.5

    def test_cdf_monotone_and_bounded(self):
        t = np.linspace(-30, 30, 401)
        vals = t3_cdf(t)
        assert np.all(np.diff(vals) > 0)
        assert vals[0] > 0.0 and vals[-1] < 1.0

    def test_quantile_median_exact(self):
        assert t3_quantile(0.5) == 0.0

    def test_quantile_antisymmetric(self):
        for tau in (0.1, 0.25, 0.4):
            assert_allclose(t3_quantile(tau), -t3_quantile(1.0 - tau),
                            rtol=0, atol=1e-12)

    def test_quantile_inverts_cdf(self):
        for tau in (0.05, 0.2, 0.5, 0.8, 0.95):
            assert_allclose(t3_cdf(t3_quantile(tau)), tau, atol=1e-9)

    def test_known_tail_value(self):
        # P(T > 2.3534) = 0.05 for 3 degrees of freedom, so the 0.95
        # quantile is 2.3534 to the published 4 decimals
        assert_allclose(t3_quantile(0.95), 2.3534, atol=5e-5)

    def test_frozen_value(self):
        assert_allclose(t3_quantile(0.8), 0.9784723123593722, rtol=1e-9)


class TestTrueQuantities:
    def test_theta_constant_scale_cases(self):
        for case in (1, 2, 3):
            spec = DgpSpec(case=case, n=100, tau=0.8)
            assert_allclose(true_theta(spec), [1.0, -1.0])

    def test_theta_heteroscedastic_shift(self):
        t = t3_quantile(0.8)
        spec = DgpSpec(case=4, n=100, tau=0.8)
        assert_allclose(true_theta(spec), [1.0 + t / 5.0, -1.0 + t / 5.0])
        spec6 = DgpSpec(case=6, n=100, tau=0.8)
        assert_allclose(true_theta(spec6), [1.0 + t / 3.0, -1.0 + t / 3.0])

    def test_theta_alternative_reading(self):
        t = t3_quantile(0.8)
        spec = DgpSpec(case=4, n=100, tau=0.8, sigma_x_terms="2x1")
        assert_allclose(true_theta(spec), [1.0 + 2.0 * t / 5.0, -1.0])

    def test_true_m_median_is_base_m(self):
        z = np.ones((1, 10))
        for case in (1, 2, 3):
            spec = DgpSpec(case=case, n=100, tau=0.5)
            assert_allclose(true_m(spec, z), m_case(case, z))

    def test_true_quantile_case4_hand_value(self):
        spec = DgpSpec(case=4, n=100, tau=0.8)
        got = true_quantile(spec, np.array([1.0, 1.0]), np.ones(10))
        want = 9.5 + t3_quantile(0.8) * 2.4  # theta sums to 0 at (1, 1)
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, 11.848333549662494, rtol=1e-9)

    def test_decomposition_consistency(self):
        # true_quantile must equal x @ true_theta + true_m for every case
        # because sigma1 is additive in its x and z parts
        rng = make_rng(9)
        draws = sample_copula(50, COPULA_DIM, 0.5, rng)
        x, z = make_covariates(draws)
        for case in (1, 2, 3, 4, 5, 6):
            for tau in (0.2, 0.5, 0.8):
                spec = DgpSpec(case=case, n=100, tau=tau)
                direct = np.array([true_quantile(spec, xi, zi)
                                   for xi, zi in zip(x, z)])
                decomposed = x @ true_theta(spec) + true_m(spec, z)
                assert_allclose(direct, decomposed, rtol=1e-10,
                                err_msg=f"case {case} tau {tau}")


class TestOneEquation:
    """generate and the true_* functions match the scenario equation
    written out, byte for byte."""

    @pytest.mark.parametrize("reading", X_SUM_READINGS)
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6])
    def test_generate_is_the_written_out_equation(self, case, reading):
        spec = DgpSpec(case=case, n=300, sigma_x_terms=reading)
        data = generate(spec, make_rng(4511))
        rng = make_rng(4511)  # replayed: copula draws, then the noise
        x, z = make_covariates(sample_copula(300, COPULA_DIM, 0.5, rng))
        eps = sample_t3(300, rng)
        lin = x @ np.array([1.0, -1.0])
        if case <= 3:
            y = lin + m_case(case, z) + eps
        else:
            y = (lin + m_case(case - 3, z)
                 + eps * sigma1_case(case, x, z, reading))
        assert data.x.tobytes() == x.tobytes()
        assert data.z.tobytes() == z.tobytes()
        assert data.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("reading", X_SUM_READINGS)
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5, 6])
    def test_truth_is_the_written_out_equation(self, case, reading):
        x, z = make_covariates(
            sample_copula(200, COPULA_DIM, 0.5, make_rng(4512)))
        lin = x @ np.array([1.0, -1.0])
        for tau in (0.2, 0.5, 0.8):
            spec = DgpSpec(case=case, n=100, tau=tau, sigma_x_terms=reading)
            t = t3_quantile(tau)
            if case <= 3:
                m = m_case(case, z) + t
                quantile = lin + m_case(case, z) + t
            else:
                m = m_case(case - 3, z) + t * sigma1_case(
                    case, np.zeros((200, 2)), z, reading)
                quantile = lin + m_case(case - 3, z) + t * sigma1_case(
                    case, x, z, reading)
            assert true_m(spec, z).tobytes() == m.tobytes()
            assert true_quantile(spec, x, z).tobytes() == quantile.tobytes()


class TestGenerate:
    def test_shapes(self):
        data = generate(DgpSpec(case=1, n=500), make_rng(10))
        assert data.n == 500 and data.p == 2 and data.q == 10

    def test_deterministic(self):
        a = generate(DgpSpec(case=3, n=100), make_rng(11))
        b = generate(DgpSpec(case=3, n=100), make_rng(11))
        assert_allclose(a.y, b.y, rtol=0)
        assert_allclose(a.x, b.x, rtol=0)

    def test_case1_response_structure(self):
        # subtracting the known signal leaves pure t3 noise
        data = generate(DgpSpec(case=1, n=100_000), make_rng(12))
        eps = data.y - data.x @ np.array([1.0, -1.0]) - m_case(1, data.z)
        assert abs(float(np.median(eps))) < 0.02
        assert abs(float(np.mean(np.abs(eps) > 2.3534)) - 0.10) < 0.01

    def test_case4_noise_recovery(self):
        # scaling back by sigma1 recovers standardized t3 noise
        data = generate(DgpSpec(case=4, n=100_000), make_rng(13))
        raw = data.y - data.x @ np.array([1.0, -1.0]) - m_case(1, data.z)
        eps = raw / sigma1_case(4, data.x, data.z)
        assert abs(float(np.median(eps))) < 0.02
        assert abs(float(np.mean(np.abs(eps) > 2.3534)) - 0.10) < 0.01

    def test_heavy_tail_of_case1_response(self):
        data = generate(DgpSpec(case=1, n=100_000), make_rng(14))
        eps = data.y - data.x @ np.array([1.0, -1.0]) - m_case(1, data.z)
        k = float(np.mean(eps ** 4) / np.mean(eps ** 2) ** 2)
        assert k > 6.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            DgpSpec(case=7, n=100)
        with pytest.raises(ConfigError):
            DgpSpec(case=1, n=10)
        with pytest.raises(ConfigError):
            DgpSpec(case=1, n=100, tau=0.0)

    @pytest.mark.parametrize("bad", [dict(tau="x"), dict(n=100.5),
                                     dict(case=2.0), dict(case=True)],
                             ids=["text-tau", "fractional-n",
                                  "fractional-case", "bool-case"])
    def test_spec_needs_numbers(self, bad):
        with pytest.raises(ConfigError):
            DgpSpec(**dict(dict(case=1, n=100), **bad))


class TestErrorMetrics:
    def test_rmse_perfect(self):
        assert rmse_m(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_rmse_hand_value(self):
        # (0,0) vs (1,-1): sum sq error 2 over sum sq truth 2
        assert rmse_m(np.zeros(2), np.array([1.0, -1.0])) == 1.0

    def test_rmse_zero_truth_rejected(self):
        with pytest.raises(DataError):
            rmse_m(np.ones(3), np.zeros(3))

    def test_mspe_hand_values(self):
        assert mspe(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert mspe(np.array([2.0, 3.0]), np.array([1.0, 2.0])) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mspe(np.ones(3), np.ones(4))
        with pytest.raises(DataError):
            rmse_m(np.ones(3), np.ones(4))

    def test_empty_vectors(self):
        with pytest.raises(DataError, match="^rmse_m of empty vectors$"):
            rmse_m(np.zeros(0), np.zeros(0))
        with pytest.raises(DataError, match="^mspe of empty vectors$"):
            mspe(np.zeros(0), np.zeros(0))
