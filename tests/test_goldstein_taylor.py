import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay import (
    GT_CONSTANT,
    GT_RATE,
    CutoffTooLarge,
    LyapunovCertificate,
    NotNormalized,
    TorusField,
    ZeroMode,
    decompose,
    deviation_norm,
    eigendecompose,
    evolve,
    mode_certificate,
    mode_matrix,
    reconstruct,
    rk4_oracle,
    verify_gt_bound,
)
from hypodecay import goldstein_taylor
from hypodecay.goldstein_taylor import _propagate, _propagated_norm_sq


class TestTorusField:
    def test_constructors_are_mass_normalized(self):
        for field in (TorusField.steady(64), TorusField.harmonic(3, 64),
                      TorusField.random_field(5, 64), TorusField.sharp(64)):
            assert field.mass == pytest.approx(2 * np.pi, rel=1e-13)

    def test_steady_has_no_deviation(self):
        assert deviation_norm(TorusField.steady(32)) == 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TorusField(np.ones(7), np.ones(7))
        with pytest.raises(ValueError):
            TorusField(np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            TorusField(np.ones(8), np.ones(10))
        with pytest.raises(ValueError, match="non-finite"):
            TorusField(np.full(8, np.nan), np.ones(8))

    @pytest.mark.parametrize("make", [TorusField.steady, TorusField.sharp,
                                      lambda n: TorusField.harmonic(3, n),
                                      lambda n: TorusField.random_field(2, n)])
    @pytest.mark.parametrize("n", [0, -2, 3, 6])
    def test_constructors_check_grid_before_dividing(self, make, n):
        with pytest.raises(ValueError, match="grid size"):
            make(n)

    def test_harmonic_index_validation(self):
        with pytest.raises(ValueError):
            TorusField.harmonic(0, 32)
        with pytest.raises(ValueError):
            TorusField.harmonic(16, 32)

    def test_random_field_deterministic(self):
        a = TorusField.random_field(42, 128)
        b = TorusField.random_field(42, 128)
        assert np.array_equal(a.f_plus, b.f_plus)
        assert np.array_equal(a.f_minus, b.f_minus)

    def test_sharp_lowest_mode_coefficients(self):
        field = TorusField.sharp(64, amplitude=0.25)
        ks, u = decompose(field, 1)
        (m,) = u[ks == 1]
        assert np.allclose(m, 0.25 * np.array([-1j, 1.0]), atol=1e-14)


class TestModes:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_decompose_reconstruct_round_trip(self, seed):
        field = TorusField.random_field(seed, 64, n_modes=31)
        back = reconstruct(*decompose(field, 31), 64)
        assert np.allclose(back.f_plus, field.f_plus, atol=1e-12)
        assert np.allclose(back.f_minus, field.f_minus, atol=1e-12)

    def test_cutoff_guard(self):
        field = TorusField.steady(32)
        with pytest.raises(CutoffTooLarge):
            decompose(field, 16)
        with pytest.raises(ValueError, match="non-negative"):
            decompose(field, -1)
        with pytest.raises(CutoffTooLarge, match="mode 16"):
            reconstruct([0, 16], np.ones((2, 2)), 32)
        decompose(field, 15)

    def test_parseval_identity(self):
        # grid quadrature of the squared deviation equals pi * sum of
        # squared mode deviations, with the conserved component removed
        for seed in range(5):
            field = TorusField.random_field(seed, 128, n_modes=63)
            total = 0.0
            for k, u in zip(*decompose(field, 63)):
                d = u.copy()
                if k == 0:
                    d[0] = 0.0
                total += float(np.abs(d[0]) ** 2 + np.abs(d[1]) ** 2)
            assert deviation_norm(field) == pytest.approx(
                np.sqrt(np.pi * total), rel=1e-12)


class TestModeCertificates:
    def test_kappa_closed_form(self):
        for k in list(range(1, 6)) + [-3, 17]:
            cert = mode_certificate(k)
            expect = (2 * abs(k) + 1) / (2 * abs(k) - 1)
            assert cert.kappa == pytest.approx(expect, rel=1e-13)
            assert cert.constant == pytest.approx(np.sqrt(expect), rel=1e-13)
            assert cert.rate == GT_RATE

    def test_residual_is_zero(self):
        for k in (1, 2, 8):
            assert abs(mode_certificate(k).residual) < 1e-13

    def test_is_a_lyapunov_certificate(self):
        cert = mode_certificate(3)
        assert isinstance(cert, LyapunovCertificate)
        assert cert.weights is None
        assert np.array_equal(cert.matrix, [[1.0, -1j / 6], [1j / 6, 1.0]])

    def test_conserved_mode_rejected(self):
        with pytest.raises(ZeroMode):
            mode_certificate(0)

    def test_mode_matrix_spectrum(self):
        lam = eigendecompose(mode_matrix(2)).eigenvalues
        om = np.sqrt(4 - 0.25)
        assert np.allclose(sorted(lam, key=lambda z: z.imag),
                           [0.5 - 1j * om, 0.5 + 1j * om], atol=1e-14)


class TestEvolve:
    def test_mass_conserved(self):
        field = TorusField.random_field(1, 128)
        for t in (0.1, 1.0, 7.3):
            assert evolve(field, t, 63).mass == pytest.approx(field.mass, rel=1e-12)

    def test_time_zero_is_identity(self):
        field = TorusField.random_field(2, 64, n_modes=31)
        out = evolve(field, 0.0, 31)
        assert np.allclose(out.f_plus, field.f_plus, atol=1e-12)

    def test_semigroup(self):
        field = TorusField.random_field(3, 64, n_modes=20)
        a = evolve(evolve(field, 0.7, 25), 1.3, 25)
        b = evolve(field, 2.0, 25)
        assert np.allclose(a.f_plus, b.f_plus, atol=1e-12)
        assert np.allclose(a.f_minus, b.f_minus, atol=1e-12)

    def test_matches_rk4_per_mode(self):
        field = TorusField.sharp(64)
        modes = dict(zip(*decompose(field, 2)))
        ts = np.linspace(0.0, 3.0, 7)
        for k in (1, 2):
            exact_modes = [
                dict(zip(*decompose(evolve(field, t, 2), 2)))[k]
                for t in ts]
            numeric = rk4_oracle(mode_matrix(k), modes[k], ts, dt=1e-4)
            assert np.allclose(np.array(exact_modes), numeric, atol=1e-10)

    def test_exact_period_ratio(self):
        # over one full oscillation period the deviation contracts by
        # exactly e^{-T/2}: the closed form has no secular drift
        field = TorusField.harmonic(1, 128)
        om = np.sqrt(1 - 0.25)
        period = 2 * np.pi / om
        d1 = deviation_norm(evolve(field, 1.0, 63))
        d2 = deviation_norm(evolve(field, 1.0 + period, 63))
        assert d2 / d1 == pytest.approx(np.exp(-period / 2), rel=1e-11)


class TestDeviationForm:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 127), st.booleans(),
           st.lists(st.floats(0.0, 200.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_parseval_sum_of_propagated_modes(self, seed, cutoff, q_only, times):
        ks, u = decompose(TorusField.random_field(seed, 256, n_modes=127), cutoff)
        d = np.zeros_like(u)
        d[ks == 0, 1] = u[ks == 0, 1]
        if not q_only:
            d[ks != 0] = u[ks != 0]
        ts = np.array(times)
        parseval = (np.abs(_propagate(ks, d, ts)) ** 2).sum(axis=(1, 2))
        assert np.allclose(_propagated_norm_sq(ks, d, ts), parseval, rtol=1e-14, atol=0.0)


class TestVerifyGTBound:
    def test_sharp_attains_constant(self):
        field = TorusField.sharp(256)
        t0 = np.pi / np.sqrt(3.0)
        ts = np.sort(np.concatenate([np.linspace(0, 20, 400), [t0]]))
        rep = verify_gt_bound(field, ts, 64)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(GT_CONSTANT, rel=1e-12)
        assert rep.t_at_max == pytest.approx(t0, abs=1e-12)

    def test_steady_is_flat_zero(self):
        rep = verify_gt_bound(TorusField.steady(64), np.linspace(0, 5, 10), 31)
        assert rep.passed and rep.max_ratio == 0.0
        assert np.all(rep.ratios == 0.0)

    def test_harmonic_stays_strictly_below(self):
        rep = verify_gt_bound(TorusField.harmonic(2, 128),
                              np.linspace(0, 20, 500), 63)
        assert rep.passed
        assert rep.max_ratio < GT_CONSTANT * 0.9

    def test_ratio_definition(self):
        # ratios reproduce deviation_norm(evolve(..)) / (e^{-t/2} dev0)
        field = TorusField.random_field(9, 128, n_modes=40)
        ts = np.array([0.0, 0.9, 2.4])
        rep = verify_gt_bound(field, ts, 63)
        dev0 = deviation_norm(field)
        for t, r in zip(ts, rep.ratios):
            direct = deviation_norm(evolve(field, float(t), 63)) \
                / (np.exp(-GT_RATE * t) * dev0)
            assert r == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("field", [TorusField.sharp(256), TorusField.random_field(7, 256)],
                             ids=["sharp", "random-7"])
    def test_long_horizon_ratio_is_finite(self, field):
        # e^{-t/2} underflows before t = 1500: the ratio is formed with the
        # common e^{-t} divided out, and matches the quotient where that is finite
        ts = np.linspace(0.0, 1500.0, 400)
        rep = verify_gt_bound(field, ts, 64)
        assert rep.passed and np.isfinite(rep.ratios).all()
        early = ts < 100.0
        quotient = rep.deviations[early] / (np.exp(-GT_RATE * ts[early]) * rep.initial_deviation)
        assert np.allclose(rep.ratios[early], quotient, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("field", [TorusField.sharp(256), TorusField.steady(256)],
                             ids=["sharp", "steady"])
    def test_phase_beyond_the_float_range_is_refused(self, field):
        # at cutoff 64, 2 t omega_64 leaves the float range past t = 1.4e306,
        # where the ratios (and steady's deviations) would turn NaN
        for t_end in (1.5e306, 1e307, 1e308):
            with pytest.raises(ValueError, match="phase 2 t omega_k of mode 64"):
                verify_gt_bound(field, [0.0, t_end], 64)
        rep = verify_gt_bound(field, np.linspace(0.0, 1e306, 3), 64)
        assert rep.passed and np.isfinite(rep.ratios).all() and np.isfinite(rep.deviations).all()

    def test_verdict_slack_is_gt_tol(self, monkeypatch):
        # with sqrt(3) moved just below the attained ratio, a relative 1e-11
        # overshoot passes and 1e-8 fails: GT_TOL lies between them
        ts = np.linspace(0, 20, 401)
        top = verify_gt_bound(TorusField.sharp(256), ts, 8).max_ratio
        monkeypatch.setattr(goldstein_taylor, "GT_CONSTANT", top / (1 + 1e-11))
        assert verify_gt_bound(TorusField.sharp(256), ts, 8).passed
        monkeypatch.setattr(goldstein_taylor, "GT_CONSTANT", top / (1 + 1e-8))
        assert not verify_gt_bound(TorusField.sharp(256), ts, 8).passed

    @pytest.mark.parametrize("field, top", [(TorusField.harmonic(65, 256), 65),
                                            (TorusField.random_field(7, 256), 64)],
                             ids=["harmonic-65", "random-7"])
    def test_refuses_energy_above_the_cutoff(self, field, top):
        # random-7 keeps all but 1.2e-4 of its squared deviation at cutoff 63:
        # a threshold of 1e-3 instead of GT_TOL would pass it
        ts = np.linspace(0.0, 5.0, 11)
        with pytest.raises(ValueError, match=f"above the cutoff {top - 1}"):
            verify_gt_bound(field, ts, top - 1)
        assert verify_gt_bound(field, ts, top).passed

    def test_requires_normalized_mass(self):
        field = TorusField(np.full(32, 0.6), np.full(32, 0.6))
        with pytest.raises(NotNormalized):
            verify_gt_bound(field, [0.0, 1.0], 10)

    def test_rejects_negative_times(self):
        # and non-finite ones, which would otherwise give a NaN verdict or a
        # RuntimeWarning from cos
        for times in ([-1.0, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                verify_gt_bound(TorusField.sharp(64), times, 8)
