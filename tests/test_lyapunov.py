import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay import (
    Defective2D,
    LyapunovMatrix,
    NotAdmissible,
    build_weighted_p,
    canonical_2d_form,
    certificate_from_p,
    classify_and_sharp_constant,
    classify_stability,
    eigendecompose,
    envelope_curves,
    family_envelope,
    lower_bound_constant,
    lyapunov_residual,
    minimize_kappa_2d,
    upper_bound_constant,
)
from hypodecay import lyapunov
from hypodecay.lyapunov import (
    RESIDUAL_RTOL,
    _hermitian_part,
    _hermitian_part_2x2,
    _residual,
    _residual_2x2,
)
from hypodecay.spectral import _norm_2x2

_EPS = np.finfo(float).eps


class TestLyapunovMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            LyapunovMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            LyapunovMatrix(np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_hermitian_verdict_is_scale_free(self, n, k):
        # |P - P*| is measured against the largest entry of P alone: 2^k P
        # gets the verdict and the kappa of P, on the 2x2 and the numpy route.
        # An absolute floor accepted 2^-600 [[1, 0.1], [0, 1]] as Hermitian
        s = 2.0 ** k
        c = np.diag(np.arange(1.0, n + 1.0))
        skew, herm = np.eye(n), np.eye(n)
        skew[0, 1] = herm[0, 1] = herm[1, 0] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            certificate_from_p(c, s * skew, 0.5)
        assert certificate_from_p(c, s * herm, 0.5).kappa \
            == certificate_from_p(c, herm, 0.5).kappa

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
    rate 1 + RESIDUAL_RTOL. A 2x2 reads |C| from the closed-form
    _norm_2x2, a larger C from svd."""

    C = np.diag([1.0, 2.0])

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        """The arguments of every |C|_2 read, by _norm_2x2 and by svd."""
        calls = {"norm_2x2": [], "svd": []}

        def counting(f, log):
            def counted(*args, **kwargs):
                log.append(args)
                return f(*args, **kwargs)
            return counted
        monkeypatch.setattr(lyapunov, "_norm_2x2", counting(lyapunov._norm_2x2, calls["norm_2x2"]))
        monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, calls["svd"]))
        return calls

    @pytest.mark.parametrize("inside, admissible", [(1e-4, True), (-1e-4, False)])
    def test_slack_edge(self, inside, admissible, norm_calls):
        rate = 1.0 + RESIDUAL_RTOL * (1.0 - inside)
        res = lyapunov_residual(self.C, np.eye(2), rate)
        assert res == 2.0 - 2.0 * rate
        if admissible:
            assert certificate_from_p(self.C, np.eye(2), rate).residual == res
        else:
            with pytest.raises(NotAdmissible, match=r"\* \|C\| \|P\| = -2\.000e-10"):
                certificate_from_p(self.C, np.eye(2), rate)
        assert len(norm_calls["norm_2x2"]) == 1
        assert norm_calls["svd"] == []

    def test_slack_edge_3x3_reads_svd(self, norm_calls):
        # C = diag(1, 2, 3), P = I: the residual is 2 - 2 rate, |C| |P| = 3
        c = np.diag([1.0, 2.0, 3.0])
        rate = 1.0 + RESIDUAL_RTOL * (1.0 - 1e-4)
        assert certificate_from_p(c, np.eye(3), rate).residual == 2.0 - 2.0 * rate
        assert len(norm_calls["svd"]) == 1
        assert norm_calls["norm_2x2"] == []

    def test_nonnegative_residual_reads_no_norm(self, norm_calls):
        assert certificate_from_p(self.C, np.eye(2), 1.0).residual == 0.0
        assert norm_calls == {"norm_2x2": [], "svd": []}

    @pytest.mark.parametrize("k", [0, -600, -1000])
    def test_verdict_is_scale_free(self, k):
        # 2^k C at rate 2^k r: the residual -6e-10 2^k stays below the slack
        # -2e-10 2^k at every scale, with no absolute floor to let it pass
        # once |C| |P| is subnormal; a residual of zero passes at every scale
        s = 2.0 ** k
        with pytest.raises(NotAdmissible, match="not admissible"):
            certificate_from_p(s * self.C, np.eye(2), s * (1.0 + 3e-10))
        assert certificate_from_p(s * self.C, np.eye(2), s).residual == 0.0

    def test_nan_residual_is_rejected(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "lyapunov_residual", lambda C, P, rate: float("nan"))
        with pytest.raises(NotAdmissible) as exc:
            certificate_from_p(self.C, np.eye(2), 0.5)
        assert np.isnan(exc.value.residual)


def _mp(A):
    return [[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(A)]


def _mp_hermitian_extremes(x, y, off):
    """Eigenvalues of [[x, off], [conj(off), y]] at the working precision."""
    mid, half = (x + y) / 2, mpmath.sqrt(((x - y) / 2) ** 2 + abs(off) ** 2)
    return mid - half, mid + half


def _mp_norm(C) -> float:
    """|C|_2 to 50 digits, from the top eigenvalue of C*C."""
    with mpmath.workdps(50):
        (a, b), (c, d) = _mp(C)
        gram = _mp_hermitian_extremes(abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2,
                                      mpmath.conj(a) * b + mpmath.conj(c) * d)
        return float(mpmath.sqrt(gram[1]))


def _mp_extremes(P) -> tuple[float, float]:
    """The extreme eigenvalues of (P + P*)/2 to 50 digits."""
    with mpmath.workdps(50):
        (a, b), (c, d) = _mp(P)
        return tuple(map(float, _mp_hermitian_extremes(a.real, d.real, (b + mpmath.conj(c)) / 2)))


def _mp_residual(C, P, rate) -> float:
    """lambda_min of the Hermitian part of C*P + PC - 2 rate P, to 50 digits."""
    with mpmath.workdps(50):
        c, p, r = _mp(C), _mp(P), mpmath.mpf(rate)
        s = [[sum(mpmath.conj(c[k][i]) * p[k][j] + p[i][k] * c[k][j] for k in range(2))
              - 2 * r * p[i][j] for j in range(2)] for i in range(2)]
        return float(_mp_hermitian_extremes(s[0][0].real, s[1][1].real,
                                            (s[0][1] + mpmath.conj(s[1][0])) / 2)[0])


def _seeded_draws(seed, count=20):
    """(C, P, rate) with complex Gaussian C, a positive definite P of
    condition up to about 1e3, and a rate of either sign."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        yield c, a @ a.conj().T + 1e-3 * np.eye(2), float(rng.normal())


def _jordan_like(b, count=5):
    """(C, P, mu) for C = Q [[1, b], [0, 2]] Q* with Q unitary, P its
    equal-weight projector sum and mu = 1 its gap, where the residual is 0."""
    rng = np.random.default_rng(int(b))
    for _ in range(count):
        q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        c = q @ np.array([[1.0, b], [0.0, 2.0]]) @ q.conj().T
        yield c, build_weighted_p(eigendecompose(c), [1.0, 1.0]).matrix, 1.0


_SCALES = [1e-300, 1e-150, 1.0, 1e150, 1e300]

#: error bounds against the 50-digit reference, in units of eps times the
#: natural scale: |C|_2 for the norm, |P|_2 for the extremes of P and
#: (|C|_2 + |rate|) |P|_2 for the residual; each held by both routes (measured
#: at most 0.9, 0.9 and 1.5 eps on the closed forms, 3.1, 3.6 and 5.5 eps on
#: numpy, over 500 seeded draws at these scales)
_NORM_ULPS, _EXTREME_ULPS, _RESIDUAL_ULPS = 4, 8, 16


class TestTwoByTwoRoute:
    """The scalar route of a 2x2 against the numpy route, which any larger
    matrix takes, and both against a 50-digit mpmath reference."""

    @staticmethod
    def _cases():
        for scale in _SCALES:
            for c, p, rate in _seeded_draws(int(np.log10(scale)) + 400):
                yield c * scale, p, rate * scale
        for b in (1.0, 10.0, 100.0, 1e3, 1e4):
            yield from _jordan_like(b)

    def test_norm_agrees_with_svd_and_mpmath(self):
        for c, _, _ in self._cases():
            ref = _mp_norm(c)
            for value in (_norm_2x2(c), float(np.linalg.svd(c, compute_uv=False)[0])):
                assert abs(value - ref) <= _NORM_ULPS * _EPS * ref

    def test_extremes_agree_with_eigvalsh_and_mpmath(self):
        for _, p, _ in self._cases():
            for scale in _SCALES:
                ps = p * scale
                closed, reference = _hermitian_part_2x2(ps), _hermitian_part(ps)
                assert np.array_equal(closed[0], reference[0])
                lo, hi = _mp_extremes(ps)
                for _, low, high in (closed, reference):
                    assert abs(low - lo) <= _EXTREME_ULPS * _EPS * hi
                    assert abs(high - hi) <= _EXTREME_ULPS * _EPS * hi

    def test_lyapunov_matrix_takes_the_closed_form(self):
        for _, p, _ in self._cases():
            lm = LyapunovMatrix(p)
            _, lo, hi = _hermitian_part_2x2(lm.matrix)
            assert (lm.lambda_min, lm.lambda_max, lm.kappa) == (lo, hi, hi / lo)

    def test_residual_agrees_with_eigvalsh_and_mpmath(self):
        for c, p, rate in self._cases():
            unit = _EPS * (_mp_norm(c) + abs(rate)) * _mp_extremes(p)[1]
            ref = _mp_residual(c, p, rate)
            assert lyapunov_residual(c, p, rate) == _residual_2x2(c, p, rate)
            for value in (_residual_2x2(c, p, rate), _residual(c, p, rate)):
                assert abs(value - ref) <= _RESIDUAL_ULPS * unit

    def test_residual_reads_the_hermitian_part_of_p(self):
        # C*P + PC has the Hermitian part C*H + HC, H = (P + P*)/2, so a
        # non-Hermitian P gives the residual of H on both routes
        for c, p, rate in _seeded_draws(9):
            skewed = p + np.array([[0.5j, 0.25 + 1j], [-0.25 + 1j, -2j]])
            unit = _EPS * (_mp_norm(c) + abs(rate)) * _mp_extremes(p)[1]
            ref = _mp_residual(c, skewed, rate)
            for value in (_residual_2x2(c, skewed, rate), _residual(c, skewed, rate)):
                assert abs(value - ref) <= _RESIDUAL_ULPS * unit

    def test_weighted_p_agrees_with_matmul(self):
        rng = np.random.default_rng(4)
        for c, _, _ in _seeded_draws(5):
            data = eigendecompose(c)
            b = rng.uniform(0.1, 10.0, size=2)
            W = data.left_vectors
            reference = (W * b) @ W.conj().T
            closed = build_weighted_p(data, b).matrix
            assert np.abs(closed - reference).max() <= 4 * _EPS * b.max()

    def test_overflow_is_nan_on_both_routes(self):
        c, p = np.array([[1e300, 1e300], [0.0, 1.0]]), np.diag([1e10, 1.0])
        assert np.isnan(_residual_2x2(c, p, 0.0)) and np.isnan(_residual(c, p, 0.0))

    def test_certify_2x2_makes_no_lapack_call(self, monkeypatch, mat_complex_pair):
        # the full closed-form sequence on separated 2x2s, including one whose
        # residual at the gap rounds below zero (so |C|_2 is read); and the
        # Jordan test of canonical_2d_form, which reads |C|_2, on the record of
        # I + 100N, which is clustered and so comes from the eig route
        def refused(*args, **kwargs):
            raise AssertionError("LAPACK called")

        below = [[1.0, 3.0], [-1.0, 2.0]]
        assert lyapunov_residual(below, build_weighted_p(eigendecompose(below), [1.0, 1.0]),
                                 eigendecompose(below).spectral_gap) < 0.0
        jordan = eigendecompose([[49.0, 64.0], [-36.0, -47.0]])
        for name in ("eig", "eigh", "eigvalsh", "svd", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        times = np.linspace(0.0, 10.0, 50)
        for c in (mat_complex_pair, below, [[1.0, 1e4], [0.0, 2.0]]):
            data = eigendecompose(c)
            report = classify_stability(data)
            form = canonical_2d_form(data)
            classify_and_sharp_constant(form)
            opt = minimize_kappa_2d(form)
            cert = certificate_from_p(c, build_weighted_p(data, opt.weights), report.mu)
            # kappa of P and (1 + alpha)/(1 - alpha) both lose about
            # eps/(1 - alpha) relative, 4e-8 at b = 1e4
            assert cert.kappa == pytest.approx(opt.kappa, rel=1e-6)
            envelope_curves(form, times)
            family_envelope(form, times)
            upper_bound_constant(form, report.mu)
            lower_bound_constant(form, report.nu)
        with pytest.raises(Defective2D, match=r"32 eps \|C\|_2"):
            canonical_2d_form(jordan)
