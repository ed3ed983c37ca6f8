import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay import (
    LyapunovMatrix,
    NotAdmissible,
    build_weighted_p,
    certificate_from_p,
    eigendecompose,
    lyapunov_residual,
)
from hypodecay import lyapunov
from hypodecay.lyapunov import RESIDUAL_RTOL


class TestLyapunovMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            LyapunovMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            LyapunovMatrix(np.diag([1.0, -2.0]))

    def test_kappa_of_diagonal(self):
        assert LyapunovMatrix(np.diag([1.0, 4.0])).kappa == pytest.approx(4.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_kappa_scale_invariant_and_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        p = a @ a.conj().T + 0.1 * np.eye(3)
        lm = LyapunovMatrix(p)
        assert lm.kappa >= 1.0
        assert LyapunovMatrix(7.0 * p).kappa == pytest.approx(lm.kappa, rel=1e-12)


class TestBuildWeightedP:
    def test_equal_weights_is_projector_sum(self, mat_triangular, triangular_w):
        data = eigendecompose(mat_triangular)
        p = build_weighted_p(data, np.ones(3))
        expected = triangular_w @ triangular_w.conj().T
        assert np.allclose(p.matrix, expected, atol=1e-12)

    def test_weights_recorded(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        p = build_weighted_p(data, [2.0, 3.0])
        assert np.allclose(p.weights, [2.0, 3.0])

    def test_rejects_bad_weights(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        for bad in ([1.0], [1.0, -1.0], [1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                build_weighted_p(data, bad)

    def test_admissible_at_spectral_gap(self, mat_complex_pair):
        # weighted eigenprojector sums satisfy the spectral-gap inequality
        data = eigendecompose(mat_complex_pair)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = build_weighted_p(data, rng.uniform(0.1, 10.0, size=2))
            assert lyapunov_residual(mat_complex_pair, p, 0.5) >= -1e-12


class TestLyapunovResidual:
    def test_identity_at_critical_rate(self):
        assert lyapunov_residual(np.eye(2), np.eye(2), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_sign_flips_past_critical_rate(self):
        c = np.diag([1.0, 2.0])
        p = np.eye(2)
        assert lyapunov_residual(c, p, 0.99) > 0.0
        assert lyapunov_residual(c, p, 1.01) < 0.0

    def test_matches_direct_eigenvalue(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3))
        p = a @ a.T + 0.5 * np.eye(3)
        direct = np.linalg.eigvalsh(
            c.conj().T @ p + p @ c - 1.6 * p)[0]
        assert lyapunov_residual(c, p, 0.8) == pytest.approx(direct, rel=1e-10)


class TestCertificateFromP:
    # the diagonal 3x3 system admits a one-parameter family of certificates
    # at rate 1: diag block (b2, b3) with off-diagonal beta, admissible
    # exactly when 8 b2 b3 - 9 beta^2 >= 0

    @staticmethod
    def _p(b1, b2, b3, beta):
        return np.array([[b1, 0.0, 0.0],
                         [0.0, b2, beta],
                         [0.0, beta, b3]])

    def test_admissible_member(self):
        c = np.diag([1.0, 2.0, 3.0])
        beta = np.sqrt(8 * 2.0 * 3.0 / 9) * 0.99
        cert = certificate_from_p(c, self._p(1.0, 2.0, 3.0, beta), 1.0)
        assert cert.rate == 1.0
        assert cert.constant == pytest.approx(np.sqrt(cert.kappa))
        assert cert.residual >= -1e-12

    def test_boundary_member(self):
        c = np.diag([1.0, 2.0, 3.0])
        beta = np.sqrt(8 * 2.0 * 3.0 / 9)
        cert = certificate_from_p(c, self._p(1.0, 2.0, 3.0, beta), 1.0)
        assert abs(cert.residual) < 1e-12

    def test_violating_member_rejected(self):
        c = np.diag([1.0, 2.0, 3.0])
        beta = np.sqrt(2.0 * 3.0 * (8 / 9 + 0.05))
        with pytest.raises(NotAdmissible) as exc:
            certificate_from_p(c, self._p(1.0, 2.0, 3.0, beta), 1.0)
        assert exc.value.residual < 0.0

    def test_identity_certificate_for_coercive(self):
        cert = certificate_from_p(np.diag([1.0, 2.0]), np.eye(2), 1.0)
        assert cert.kappa == pytest.approx(1.0)
        assert cert.constant == pytest.approx(1.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rate(self, mat_complex_pair, rate):
        with pytest.raises(ValueError, match="rate must be finite"):
            certificate_from_p(mat_complex_pair, np.eye(2), rate)

    def test_overflowing_residual_is_not_admissible(self, mat_complex_pair):
        # 2 rate P overflows: the residual is NaN, which certifies nothing
        assert np.isnan(lyapunov_residual(mat_complex_pair, np.eye(2), 1e308))
        with pytest.raises(NotAdmissible):
            certificate_from_p(mat_complex_pair, np.eye(2), 1e308)


class TestResidualSlack:
    """certificate_from_p reads |C| only for a residual below zero, and
    accepts down to -RESIDUAL_RTOL |C| |P|. For C = diag(1, 2) and P = I the
    residual is 2 - 2 rate exactly and |C| |P| = 2, so the slack ends at
    rate 1 + RESIDUAL_RTOL."""

    C = np.diag([1.0, 2.0])

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)
        monkeypatch.setattr(lyapunov.np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("inside, admissible", [(1e-4, True), (-1e-4, False)])
    def test_slack_edge(self, inside, admissible, svd_calls):
        rate = 1.0 + RESIDUAL_RTOL * (1.0 - inside)
        res = lyapunov_residual(self.C, np.eye(2), rate)
        assert res == 2.0 - 2.0 * rate
        if admissible:
            assert certificate_from_p(self.C, np.eye(2), rate).residual == res
        else:
            with pytest.raises(NotAdmissible, match=r"\* \|C\| \|P\| = -2\.000e-10"):
                certificate_from_p(self.C, np.eye(2), rate)
        assert len(svd_calls) == 1

    def test_nonnegative_residual_reads_no_norm(self, svd_calls):
        assert certificate_from_p(self.C, np.eye(2), 1.0).residual == 0.0
        assert svd_calls == []

    def test_nan_residual_is_rejected(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "lyapunov_residual", lambda C, P, rate: float("nan"))
        with pytest.raises(NotAdmissible) as exc:
            certificate_from_p(self.C, np.eye(2), 0.5)
        assert np.isnan(exc.value.residual)
