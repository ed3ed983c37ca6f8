import numpy as np
import pytest

from hypodecay import (
    RateOutOfRange,
    canonical_2d_form,
    eigendecompose,
    envelope_curves,
    exact_solution,
    family_envelope,
    lower_bound_constant,
    upper_bound_constant,
)


class TestUpperBoundConstant:
    def test_endpoint_at_spectral_gap(self, form_complex_pair):
        fb = upper_bound_constant(form_complex_pair, 0.5)
        assert fb.constant == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert fb.direction == "upper"
        assert fb.kappa == pytest.approx(3.0, abs=1e-11)

    def test_endpoint_at_symmetric_rate(self, form_complex_pair):
        fb = upper_bound_constant(form_complex_pair, 0.0)
        assert fb.constant == pytest.approx(1.0, abs=1e-7)

    def test_monotone_in_rate(self, form_real_distinct):
        form = form_real_distinct
        rates = np.linspace(form.mu_s, form.mu, 32)
        consts = [upper_bound_constant(form, r).constant for r in rates]
        assert all(a <= b + 1e-12 for a, b in zip(consts, consts[1:]))
        assert consts[0] == pytest.approx(1.0, abs=1e-6)
        assert consts[-1] == pytest.approx(2.0, abs=1e-9)

    def test_out_of_range(self, form_complex_pair):
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form_complex_pair, 0.6)
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form_complex_pair, -0.05)


class TestTimeRescaling:
    @pytest.mark.parametrize("s", [1e-16, 1e-12, 1.0, 1e6])
    def test_range_scales_with_c(self, s, mat_complex_pair):
        form = canonical_2d_form(eigendecompose(s * mat_complex_pair))
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form, 200.0 * form.mu)
        assert upper_bound_constant(form, form.mu).constant == pytest.approx(
            np.sqrt(3.0), rel=1e-9)
        assert lower_bound_constant(form, form.nu).constant > 0.0


class TestLowerBoundConstant:
    def test_endpoints(self, form_complex_pair):
        assert lower_bound_constant(form_complex_pair, 0.5).constant == \
            pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
        assert lower_bound_constant(form_complex_pair, 1.0).constant == \
            pytest.approx(1.0, abs=1e-7)

    def test_endpoints_real_spectrum(self, form_real_distinct):
        assert lower_bound_constant(form_real_distinct, 17 / 20).constant == \
            pytest.approx(0.5, abs=1e-9)
        assert lower_bound_constant(form_real_distinct, 19 / 20).constant == \
            pytest.approx(1.0, abs=1e-6)

    def test_out_of_range(self, form_real_distinct):
        with pytest.raises(RateOutOfRange):
            lower_bound_constant(form_real_distinct, 0.5)


class TestBoundsHold:
    @pytest.mark.parametrize("fixture", ["mat_complex_pair", "mat_real_distinct"])
    def test_trajectories_respect_family(self, fixture, request):
        from hypodecay import canonical_2d_form

        c = request.getfixturevalue(fixture)
        data = eigendecompose(c)
        form = canonical_2d_form(data)
        ts = np.linspace(0.0, 10.0, 200)
        rng = np.random.default_rng(6)
        ups = [upper_bound_constant(form, r)
               for r in np.linspace(form.mu_s, form.mu, 8)]
        los = [lower_bound_constant(form, r)
               for r in np.linspace(form.nu, form.nu_s, 8)]
        for _ in range(10):
            f0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            f0 /= np.linalg.norm(f0)
            norms = np.linalg.norm(exact_solution(data, f0, ts), axis=1)
            for fb in ups:
                env = fb.constant * np.exp(-fb.rate * ts)
                assert np.all(norms <= env * (1 + 1e-9))
            for fb in los:
                env = fb.constant * np.exp(-fb.rate * ts)
                assert np.all(norms >= env * (1 - 1e-9))


@pytest.fixture
def form_far_below_zero():
    """alpha 0.9, eigenvalues 1 and 1.01 + 200i: mu_s is about -205."""
    alpha = 0.9
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1 - alpha ** 2)]], dtype=complex)
    return canonical_2d_form(eigendecompose(v @ np.diag([1.0, 1.01 + 200j]) @ np.linalg.inv(v)))


class TestFamilyEnvelope:
    def test_brackets_exact_envelopes(self, form_complex_pair):
        ts = np.linspace(0.0, 10.0, 101)
        fam = family_envelope(form_complex_pair, ts, n_rates=32)
        env = envelope_curves(form_complex_pair, ts)
        assert np.all(fam.upper ** 2 >= env.h_plus * (1 - 1e-11))
        assert np.all(fam.lower ** 2 <= env.h_minus * (1 + 1e-11))

    def test_tighter_than_single_member_somewhere(self, form_complex_pair):
        ts = np.linspace(0.0, 10.0, 101)
        fam = family_envelope(form_complex_pair, ts, n_rates=32)
        single = fam.upper_constants[-1] * np.exp(-fam.upper_rates[-1] * ts)
        assert np.any(fam.upper < single * (1 - 1e-6))

    def test_shapes(self, form_real_distinct):
        ts = np.linspace(0.0, 5.0, 11)
        fam = family_envelope(form_real_distinct, ts, n_rates=16)
        assert fam.upper.shape == ts.shape == fam.lower.shape
        assert len(fam.upper_rates) == 16 == len(fam.lower_constants)

    @pytest.mark.parametrize("fixture", ["form_complex_pair", "form_real_distinct",
                                         "form_far_below_zero"])
    def test_members_match_single_rate_calls(self, fixture, request):
        # the envelope and the per-rate functions evaluate one family, bit for bit
        form = request.getfixturevalue(fixture)
        fam = family_envelope(form, np.linspace(0.0, 10.0, 11))
        assert [upper_bound_constant(form, r).constant for r in fam.upper_rates] \
            == fam.upper_constants.tolist()
        assert [lower_bound_constant(form, r).constant for r in fam.lower_rates] \
            == fam.lower_constants.tolist()

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_warning_far_below_zero_mu_s(self, form_far_below_zero):
        # e^{-r t} overflows for the most negative rates, while the r = mu
        # member keeps the minimum finite
        form = form_far_below_zero
        assert form.mu_s < -200
        ts = np.linspace(0.0, 10.0, 400)
        fam = family_envelope(form, ts)
        at_mu = upper_bound_constant(form, form.mu).constant * np.exp(-form.mu * ts)
        assert np.all(np.isfinite(fam.upper))
        assert np.all(fam.upper <= at_mu * (1 + 1e-12))
