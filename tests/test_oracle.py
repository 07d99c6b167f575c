"""Finite-space identity checks: closed forms vs Monte Carlo and hand algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aetta import oracle


def mc_band(estimate, n):
    return 3.0 * math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / n) + 1e-6


class TestClosedForms:
    def test_one_hot_predictions_make_no_errors(self):
        h = np.eye(3)
        space = oracle.calibrated_space(np.full(3, 1 / 3), h)
        assert oracle.exact_expected_err(space) == 0.0
        assert oracle.exact_expected_pdd(space) == 0.0

    def test_uniform_predictions_err_is_symmetric(self):
        k = 4
        h = np.full((5, k), 1.0 / k)
        space = oracle.calibrated_space(np.full(5, 0.2), h)
        assert_allclose(oracle.exact_expected_err(space), 1.0 - 1.0 / k, rtol=1e-15)
        assert_allclose(oracle.exact_expected_pdd(space), 1.0 - 1.0 / k, rtol=1e-15)

    def test_single_point_hand_value(self):
        """h = (0.7, 0.3) calibrated: both sides equal 2 * 0.7 * 0.3."""
        space = oracle.calibrated_space(np.array([1.0]), np.array([[0.7, 0.3]]))
        assert_allclose(oracle.exact_expected_err(space), 0.42, rtol=1e-15)
        assert_allclose(oracle.exact_expected_pdd(space), 0.42, rtol=1e-15)

    def test_err_matches_monte_carlo(self):
        rng = np.random.default_rng(17)
        space = oracle.random_calibrated_space(7, 4, rng)
        exact = oracle.exact_expected_err(space)
        mc = oracle.sampled_err(space, n_draws=1_000_000, seed=11)
        assert abs(exact - mc) <= mc_band(exact, 1_000_000)

    def test_pdd_matches_monte_carlo(self):
        rng = np.random.default_rng(23)
        space = oracle.random_calibrated_space(6, 5, rng)
        exact = oracle.exact_expected_pdd(space)
        mc = oracle.sampled_pdd(space, n_dropout=5, n_draws=1_000_000, seed=29)
        assert abs(exact - mc) <= mc_band(exact, 1_000_000)

    def test_sampled_pdd_is_draw_count_insensitive(self):
        rng = np.random.default_rng(31)
        space = oracle.random_calibrated_space(5, 3, rng)
        exact = oracle.exact_expected_pdd(space)
        for n in (1, 5, 10, 15):
            mc = oracle.sampled_pdd(space, n_dropout=n, n_draws=200_000, seed=37 + n)
            assert abs(exact - mc) <= mc_band(exact, 200_000 * min(n, 3))

    def test_draw_validation(self):
        space = oracle.mis_calibrated_fixture()
        with pytest.raises(oracle.OracleError):
            oracle.sampled_pdd(space, n_dropout=1, n_draws=0, seed=0)


class TestCalibratedIdentity:
    def test_random_spaces_satisfy_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            space = oracle.random_calibrated_space(int(rng.integers(1, 21)), int(rng.integers(2, 11)), rng)
            assert oracle.verify_theorem1(space) <= 1e-12

    def test_negative_control_breaks_equality(self):
        space = oracle.mis_calibrated_fixture()
        assert_allclose(oracle.exact_expected_err(space), 0.58, rtol=1e-15)
        assert_allclose(oracle.exact_expected_pdd(space), 0.42, rtol=1e-15)
        assert oracle.verify_theorem1(space) >= 1e-3

    @given(st.integers(0, 2**31 - 1), st.integers(1, 20), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_equality_property(self, seed, m, k):
        space = oracle.random_calibrated_space(m, k, np.random.default_rng(seed))
        assert oracle.verify_theorem1(space) <= 1e-12


class TestRobustIdentity:
    def test_hand_construction_half_q(self):
        """q0=0.5, b=1.5 forces a=0.5 and C=0.25; the identity holds exactly."""
        c = oracle.make_robust_construction(
            point_probs=np.array([0.4, 0.6]),
            other_probs=np.array([[1.0], [1.0]]),
            q0=0.5,
            b=1.5,
        )
        assert_allclose(c.a, 0.5, rtol=1e-15)
        assert_allclose(oracle.correction_constant(c), 0.25, rtol=1e-15)
        assert oracle.verify_theorem2(c) <= 1e-12

    def test_b_one_degenerates_to_plain_identity(self):
        rng = np.random.default_rng(5)
        c = oracle.make_robust_construction(
            point_probs=rng.dirichlet(np.ones(4)),
            other_probs=rng.dirichlet(np.ones(3), size=4),
            q0=0.3,
            b=1.0,
        )
        assert c.a == 1.0
        assert oracle.correction_constant(c) == 0.0
        assert c.space.is_calibrated
        assert oracle.verify_theorem2(c) <= 1e-12
        assert oracle.verify_theorem1(c.space) <= 1e-12

    def test_sweep_residuals(self):
        rows = oracle.theorem2_sweep(n_constructions=120, seed=3)
        assert len(rows) >= 100
        assert max(r for _, _, r in rows) <= 1e-10

    def test_infeasible_weights_rejected(self):
        p = np.array([1.0])
        others = np.array([[1.0]])
        with pytest.raises(oracle.OracleError):
            oracle.make_robust_construction(p, others, q0=0.2, b=2.0)  # a would be negative
        with pytest.raises(oracle.OracleError):
            oracle.make_robust_construction(p, others, q0=0.5, b=0.5)  # b below 1
        with pytest.raises(oracle.OracleError):
            oracle.make_robust_construction(p, others, q0=1.0, b=1.0)  # q0 on boundary

    def test_label_rows_normalise_by_construction(self):
        rng = np.random.default_rng(9)
        c = oracle.make_robust_construction(
            point_probs=rng.dirichlet(np.ones(5)),
            other_probs=rng.dirichlet(np.ones(4), size=5),
            q0=0.6,
            b=1.8,
            dominant_class=2,
        )
        assert_allclose(c.space.label_model.sum(axis=1), 1.0, atol=1e-12)
        assert_allclose(c.space.htilde[:, 2], 0.6, rtol=1e-15)

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.05, 0.95),
        st.floats(0.0, 1.0),
        st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_property_over_feasible_pairs(self, seed, q0, b_frac, k):
        rng = np.random.default_rng(seed)
        b = 1.0 + b_frac * (1.0 / (1.0 - q0) - 1.0)
        c = oracle.make_robust_construction(
            point_probs=rng.dirichlet(np.ones(3)),
            other_probs=rng.dirichlet(np.ones(k - 1), size=3),
            q0=q0,
            b=b,
        )
        assert oracle.verify_theorem2(c) <= 1e-10


class TestSpaceValidation:
    def test_rows_must_normalise(self):
        with pytest.raises(oracle.OracleError):
            oracle.FiniteHypothesisSpace(
                point_probs=np.array([0.5, 0.6]),
                htilde=np.full((2, 2), 0.5),
                label_model=np.full((2, 2), 0.5),
            )

    def test_shapes_must_match(self):
        with pytest.raises(oracle.OracleError):
            oracle.FiniteHypothesisSpace(
                point_probs=np.array([1.0]),
                htilde=np.array([[0.5, 0.5]]),
                label_model=np.array([[0.5, 0.3, 0.2]]),
            )

    def test_negative_entries_rejected(self):
        with pytest.raises(oracle.OracleError):
            oracle.FiniteHypothesisSpace(
                point_probs=np.array([1.0]),
                htilde=np.array([[1.5, -0.5]]),
                label_model=np.array([[0.5, 0.5]]),
            )
