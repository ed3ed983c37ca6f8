import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hypodecay import (
    DecayCase,
    canonical_2d_form,
    classify_and_sharp_constant,
    eigendecompose,
    envelope_curves,
    exact_solution,
    sup_m_plus,
)
from hypodecay import RateOutOfRange, sharp2d
from hypodecay.sharp2d import ALPHA_FLOOR, _m_plus_minus
from .conftest import make_2x2_with_overlap
from .sweep import (_grid_extrema, _gram_coefficients, sector_constant,
                    trajectory_envelope_oracle, trajectory_sup_oracle)


def _form(c):
    return canonical_2d_form(eigendecompose(c))


class TestClassification:
    def test_identity_matrix(self):
        res = classify_and_sharp_constant(_form(np.eye(2)))
        assert res.case is DecayCase.EQUAL_EIGENVALUES
        assert res.c_sharp == 1.0
        assert res.bracket == (1.0, 1.0)
        assert res.attained == "finite" and res.attained_time == 0.0

    def test_equal_real_parts(self, form_complex_pair):
        res = classify_and_sharp_constant(form_complex_pair)
        assert res.case is DecayCase.EQUAL_REAL_PARTS
        assert res.c_sharp == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert res.attained == "finite"
        assert res.attained_time == pytest.approx(np.pi / np.sqrt(3.0), rel=1e-12)
        assert form_complex_pair.kappa_min == pytest.approx(3.0, rel=1e-12)

    def test_equal_imaginary_parts(self, form_real_distinct):
        res = classify_and_sharp_constant(form_real_distinct)
        assert res.case is DecayCase.EQUAL_IMAGINARY_PARTS
        assert res.c_sharp == pytest.approx(1.25, rel=1e-12)
        assert res.attained == "asymptotic" and res.attained_time is None

    def test_coinciding_imaginary_parts_bend_the_envelope(self):
        # delta = 1e-10 is within the tolerance, yet not 0: the delta = 0 limit
        # 1/sqrt(1 - alpha^2) = 1.25 lies below the sup that the phase reaches
        v = np.array([[1.0, 0.6], [0.0, 0.8]])
        c = v @ np.diag([1.0, 1.0 + 3e-10 + 1e-10j]) @ np.linalg.inv(v)
        form = _form(c)
        res = classify_and_sharp_constant(form)
        assert res.case is DecayCase.EQUAL_IMAGINARY_PARTS
        assert form.delta != 0.0
        sup = sup_m_plus(form.alpha, abs(form.gamma), form.delta)
        assert res.c_sharp >= np.sqrt(sup.value)
        shifted = c - form.mu * np.eye(2)
        sampled = max(np.linalg.norm(expm(-t * shifted), 2)
                      for t in np.linspace(1e10, 3e10, 201))
        assert sampled > 1.2504
        assert res.c_sharp >= sampled * (1.0 - 1e-12)

    def test_near_tie_of_equal_eigenvalues_is_not_scalar(self):
        # eigenvalues 1 and 1 + 5e-11i lie within the coincidence tolerance
        # but 2.3e5 ulps apart, far above rounding: C is not scalar, and
        # |e^{-(C - mu)t}| reaches 2 at t = pi/5e-11
        v = np.array([[1.0, 0.6], [0.0, 0.8]])
        c = v @ np.diag([1.0, 1.0 + 5e-11j]) @ np.linalg.inv(v)
        res = classify_and_sharp_constant(_form(c))
        assert res.case is DecayCase.EQUAL_EIGENVALUES
        assert res.c_sharp == pytest.approx(2.0, rel=1e-11)
        sampled = max(np.linalg.norm(expm(-t * (c - np.eye(2))), 2)
                      for t in np.pi / 5e-11 * np.linspace(0.999, 1.001, 21))
        assert sampled > 1.99
        assert res.c_sharp >= sampled * (1.0 - 1e-12)

    def test_normal_matrix_all_constants_one(self):
        res = classify_and_sharp_constant(_form(np.diag([1.0, 2.0 + 1.0j])))
        assert res.c_sharp == 1.0
        assert res.bracket == (1.0, 1.0)

    def test_fully_distinct_bracket(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            c, _, _ = make_2x2_with_overlap(rng)
            form = _form(c)
            if form.gamma < 1e-9 or abs(form.delta) < 1e-9:
                continue
            res = classify_and_sharp_constant(form)
            assert res.case is DecayCase.FULLY_DISTINCT
            lo, hi = res.bracket
            assert lo <= res.c_sharp * (1 + 1e-12)
            assert res.c_sharp <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_time_rescaling_invariance(self, scale, mat_complex_pair,
                                       mat_real_distinct):
        # C -> sC only rescales time: the case, the sharp constant and the
        # envelopes at t/s must not move
        ts = np.linspace(0.0, 8.0, 50)
        for c in (mat_complex_pair, mat_real_distinct):
            ref, scaled = _form(c), _form(scale * c)
            res, res_s = (classify_and_sharp_constant(f) for f in (ref, scaled))
            assert res_s.case is res.case
            assert res_s.c_sharp == pytest.approx(res.c_sharp, rel=1e-12)
            env, env_s = envelope_curves(ref, ts), envelope_curves(scaled, ts / scale)
            assert np.allclose(env_s.h_plus, env.h_plus, rtol=1e-9, atol=0.0)
            assert np.allclose(env_s.h_minus, env.h_minus, rtol=1e-9, atol=0.0)

    def test_unstable_rejected(self):
        from hypodecay import NotPositiveStable

        with pytest.raises(NotPositiveStable):
            classify_and_sharp_constant(_form(np.diag([-1.0, 2.0])))


class TestEnvelopes:
    def test_start_at_one(self, form_complex_pair, form_real_distinct):
        for form in (form_complex_pair, form_real_distinct):
            env = envelope_curves(form, [0.0])
            assert env.h_plus[0] == pytest.approx(1.0, abs=1e-14)
            assert env.h_minus[0] == pytest.approx(1.0, abs=1e-14)

    def test_pinch_random_trajectories(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        form = canonical_2d_form(data)
        ts = np.linspace(0.0, 8.0, 120)
        env = envelope_curves(form, ts)
        rng = np.random.default_rng(4)
        for _ in range(200):
            f0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            f0 /= np.linalg.norm(f0)
            sq = np.linalg.norm(exact_solution(data, f0, ts), axis=1) ** 2
            assert np.all(sq <= env.h_plus * (1 + 1e-10))
            assert np.all(sq >= env.h_minus * (1 - 1e-10))

    def test_product_identity_at_large_time(self, form_real_distinct):
        # m_+ m_- = e^{-2 gamma t} exactly; the stable lower form must keep
        # this through the regime where the naive difference loses digits
        form = form_real_distinct
        ts = np.linspace(0.0, 30.0, 50)
        env = envelope_curves(form, ts)
        pre = np.exp(-2.0 * form.eigenvalues[0].real * ts)
        product = (env.h_plus / pre) * (env.h_minus / pre)
        assert np.allclose(product, np.exp(-2.0 * form.gamma * ts), rtol=1e-12)

    def test_finite_far_out(self):
        # gamma t from 800 to 2000, where cosh(gamma t) overflows: both
        # envelopes stay finite and m_+ sits on its asymptote 1/(1 - alpha^2)
        form = _form(np.array([[1.0, 3.0], [0.0, 2.0]]))
        ts = np.linspace(800.0, 2000.0, 25)
        env = envelope_curves(form, ts)
        assert np.isfinite(env.h_plus).all() and np.isfinite(env.h_minus).all()
        m_lo, m_hi = _m_plus_minus(form.alpha, form.gamma, 0.7, ts)
        assert np.allclose(m_hi, 1.0 / (1.0 - form.alpha ** 2), rtol=1e-15, atol=0.0)
        assert np.all(m_lo == 0.0)

    def test_rate_beyond_the_float_range_is_refused(self):
        # h_- of [[1, 0], [0, 1e308]] decays at 2 gamma = inf: exp(-inf * 0) at
        # t = 0 would be NaN
        with pytest.raises(RateOutOfRange, match="outside the float range"):
            envelope_curves(_form([[1.0, 0.0], [0.0, 1e308]]), [0.0, 1.0])

    def test_growth_past_the_float_range_is_silent_inf(self):
        # an unstable form: e^{2t} at t = 400 is inf, without numpy's warning
        env = envelope_curves(_form([[-1.0, 1.0], [0.0, -0.999]]), [0.0, 400.0])
        assert env.h_plus[-1] == env.h_minus[-1] == np.inf
        assert env.h_plus[0] == pytest.approx(1.0) and env.h_minus[0] == pytest.approx(1.0)

    def test_near_tie_of_equal_eigenvalues_bends_the_envelope(self):
        # split 5e-11i within the coincidence tolerance: the envelopes are the
        # extreme singular values of e^{-(C - mu)t}, not the pure exponential
        v = np.array([[1.0, 0.6], [0.0, 0.8]])
        lam = np.array([1.0, 1.0 + 5e-11j])
        form = _form(v @ np.diag(lam) @ np.linalg.inv(v))
        ts = np.array([1.0, 10.0, 100.0])
        env = envelope_curves(form, ts)
        prop = np.einsum("ij,tj,jk->tik", v, np.exp(-np.outer(ts, lam - 1.0)), np.linalg.inv(v))
        sv = np.linalg.svd(prop, compute_uv=False) ** 2
        assert np.allclose(env.h_plus * np.exp(2.0 * ts), sv[:, 0], rtol=1e-12, atol=0.0)
        assert np.allclose(env.h_minus * np.exp(2.0 * ts), sv[:, 1], rtol=1e-12, atol=0.0)

    def test_equal_eigenvalue_degenerate(self):
        form = _form(np.eye(2) * (1.0 + 0.5j))
        ts = np.linspace(0.0, 3.0, 7)
        env = envelope_curves(form, ts)
        assert np.allclose(env.h_plus, np.exp(-2.0 * ts), rtol=1e-12)
        assert np.allclose(env.h_minus, np.exp(-2.0 * ts), rtol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-6, 1.0 - 1e-9])
    def test_no_cancellation_near_a_jordan_block(self, alpha):
        # the reference is the definition m_+- = e (A +- sqrt(A^2 - 1)) at 50
        # digits, with A - 1 = 2 (sinh^2(gamma t/2) + alpha^2 sin^2(delta t/2))
        # over the double's own 1 - alpha^2, so that only the cancellation of
        # forming A in floats shows
        one = mpmath.mpf(1.0 - alpha * alpha)
        ts = np.logspace(-8.0, np.log10(5.0), 33)
        worst = 0.0
        for gamma in (1e-6, 1e-3):
            for delta in (1e-3, 1.0, 30.0):
                lo, hi = _m_plus_minus(alpha, gamma, delta, ts)
                pairs = [_m_plus_minus(alpha, gamma, delta, float(t)) for t in ts]
                with mpmath.workdps(50):
                    a, g, d = (mpmath.mpf(x) for x in (alpha, gamma, delta))
                    for k, t in enumerate(ts):
                        t = mpmath.mpf(t)
                        am1 = 2 * (mpmath.sinh(g * t / 2) ** 2
                                   + a * a * mpmath.sin(d * t / 2) ** 2) / one
                        e = mpmath.exp(-g * t)
                        root = mpmath.sqrt(am1 * (am1 + 2))
                        ref_hi, ref_lo = e * (1 + am1 + root), e / (1 + am1 + root)
                        for got_lo, got_hi in ((lo[k], hi[k]), pairs[k]):
                            worst = max(worst, abs(got_hi / ref_hi - 1), abs(got_lo / ref_lo - 1))
        assert worst <= 1e-12, worst


class TestSupMPlus:
    def test_pure_oscillation_closed_form(self):
        alpha, delta = 0.5, np.sqrt(3.0)
        res = sup_m_plus(alpha, 0.0, delta)
        assert res.value == pytest.approx((1 + alpha) / (1 - alpha), rel=1e-10)
        assert res.t_at == pytest.approx(np.pi / delta, rel=1e-6)

    def test_monotone_approach_closed_form(self):
        alpha, gamma = 0.6, 0.8
        res = sup_m_plus(alpha, gamma, 0.0)
        assert res.value == pytest.approx(1.0 / (1 - alpha ** 2), rel=1e-12)
        assert res.t_at is None

    def test_orthogonal_basis_is_flat(self):
        res = sup_m_plus(0.0, 0.3, 1.0)
        assert res.value == 1.0

    @pytest.mark.parametrize("alpha,gamma,delta", [
        (1.0, 0.3, 1.0), (1.5, 0.3, 1.0), (-0.1, 0.3, 1.0), (np.nan, 0.3, 1.0),
        (0.5, np.nan, 1.0), (0.5, np.inf, 1.0), (0.5, -0.3, 1.0),
        (0.5, 0.3, np.nan), (0.5, 0.3, -np.inf),
        (0.5, 0.0, 0.0)])  # coincident eigenvalues: no envelope factor
    def test_rejects_inputs_outside_domain(self, alpha, gamma, delta):
        with pytest.raises(ValueError):
            sup_m_plus(alpha, gamma, delta)

    def test_value_dominates_samples(self):
        alpha, gamma, delta = 0.7, 0.25, 1.3
        res = sup_m_plus(alpha, gamma, delta)
        one = 1.0 - alpha ** 2
        ts = np.linspace(0.0, 120.0, 200_001)
        a = (np.cosh(gamma * ts) - alpha ** 2 * np.cos(delta * ts)) / one
        m = np.exp(-gamma * ts) * (a + np.sqrt(np.maximum(a * a - 1, 0)))
        assert res.value >= m.max() * (1 - 1e-9)


def _m_plus_mp(alpha, gamma, delta, t):
    """m_+ in 40-digit arithmetic, from the cosh form of the definition."""
    a, g, d, t = (mpmath.mpf(x) for x in (alpha, gamma, delta, t))
    A = (mpmath.cosh(g * t) - a * a * mpmath.cos(d * t)) / (1 - a * a)
    return mpmath.exp(-g * t) * (A + mpmath.sqrt(A * A - 1))


def _sup_reference(alpha, gamma, delta, half_periods=4, grid=32, iters=80):
    """Max of m_+ over the first two periods and the asymptote 1/(1 - alpha^2):
    per half period, a grid maximum refined by golden-section search."""
    with mpmath.workdps(40):
        f = lambda t: _m_plus_mp(alpha, gamma, delta, t)  # noqa: E731
        h = mpmath.pi / abs(mpmath.mpf(delta))
        inv = (mpmath.sqrt(5) - 1) / 2
        best = 1 / (1 - mpmath.mpf(alpha) ** 2)
        for j in range(half_periods):
            ts = [h * (j + mpmath.mpf(k) / grid) for k in range(grid + 1)]
            vals = [f(t) for t in ts]
            k = max(range(grid + 1), key=vals.__getitem__)
            lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, grid)]
            x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
            f1, f2 = f(x1), f(x2)
            for _ in range(iters):
                if f1 > f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - inv * (hi - lo)
                    f1 = f(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + inv * (hi - lo)
                    f2 = f(x2)
            best = max(best, vals[k], f1, f2)
        return best


#: (alpha, gamma, delta) where a 20/gamma scan with 1e5 points steps over
#: the period 2 pi / |delta|
ALIASED = [(0.5, 1e-4, 50.0), (0.5, 1e-3, 30.0), (0.9, 1e-2, 200.0)]


class TestSupReference:
    @pytest.mark.parametrize("alpha,gamma,delta", ALIASED + [
        (a, g * abs(d), d) for a in (1e-6, 0.1, 0.5, 0.9, 0.99)
        for g, d in ((0.0, 1.0), (1e-5, -7.0), (0.01, 1.0), (0.3, -1.0),
                     (3.0, 7.0), (30.0, 1.0))])
    def test_matches_mpmath(self, alpha, gamma, delta, monkeypatch):
        ref = _sup_reference(alpha, gamma, delta)
        calls = []
        m_plus_minus = sharp2d._m_plus_minus
        monkeypatch.setattr(sharp2d, "_m_plus_minus",
                            lambda *args: calls.append(args) or m_plus_minus(*args))
        res = sup_m_plus(alpha, gamma, delta)
        assert res.value == pytest.approx(float(ref), rel=1e-13)
        # golden section to a bracket 1e-3 pi wide takes 17 evaluations of m_+,
        # and the parabolic steps after it a few
        assert len(calls) <= 26

    def test_time_rescaling(self):
        # (0.6, 0.3 s, 1.7 s) is the same problem in the time t / s
        ref = float(_sup_reference(0.6, 0.3, 1.7))
        base = sup_m_plus(0.6, 0.3, 1.7)
        for s in 10.0 ** np.arange(-12, 11):
            res = sup_m_plus(0.6, 0.3 * s, 1.7 * s)
            assert res.value == pytest.approx(base.value, rel=1e-15, abs=0.0)
            assert res.value == pytest.approx(ref, rel=1e-13)
            # the maximum is flat, so its place is known to ~sqrt(eps) only
            assert res.t_at * s == pytest.approx(base.t_at, rel=1e-7)


class TestHalfPeriodLemma:
    """The lemma of the sharp2d docstring, in the time s = |delta| t with
    g = gamma/|delta|: M is non-increasing and bounds m_+, m_+ rises then
    falls on [0, pi], and the sup there dominates m_+ everywhere."""

    ALPHAS = (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6)

    @pytest.mark.parametrize("g", [0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 220.0])
    def test_lemma(self, g):
        for alpha in self.ALPHAS:
            one = 1.0 - alpha * alpha
            # with A~ = e A = e + gap, the derivative of m_+ is
            # F / sqrt(A~^2 - e^2), with F = A~' m_+ + g e^2; count the sign
            # changes of F on (0, pi]
            s = np.linspace(0.0, np.pi, 20_001)[1:]
            e = np.exp(-g * s)
            _, m = _m_plus_minus(alpha, g, 1.0, s)
            dA = (alpha * alpha * e * (g * np.cos(s) + np.sin(s)) - g * e * e) / one
            sign = np.sign(dA * m + g * e * e)
            sign = sign[sign != 0.0]
            flips = np.flatnonzero(np.diff(sign))
            assert len(flips) <= 1 and sign[0] > 0, (alpha, g)

            # M(s): m_+ with cos s = -1, non-increasing and above m_+
            span = 100.0 * np.pi if g == 0.0 else max(100.0 * np.pi, 20.0 / g)
            s = np.union1d(np.linspace(0.0, span, int(32 * span / (2 * np.pi))),
                           np.arange(np.pi, span, 2.0 * np.pi))
            e = np.exp(-g * s)
            gap = (0.5 * np.expm1(-g * s) ** 2 + 2.0 * alpha * alpha * e) / one
            M = e + gap + np.sqrt(gap * (gap + 2.0 * e))
            assert np.all(np.diff(M) <= 8e-16 * M[1:]), (alpha, g)
            _, m = _m_plus_minus(alpha, g, 1.0, s)
            assert np.all(m <= M * (1.0 + 4e-16)), (alpha, g)
            assert sup_m_plus(alpha, g, 1.0).value >= m.max() * (1.0 - 4e-16), (alpha, g)


def _system(alpha, lam, seed):
    """C = V diag(lam) V^-1 with unit right eigenvectors of overlap alpha,
    turned by a random unitary; V is returned with C."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = q @ np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]])
    return v @ np.diag(lam) @ np.linalg.inv(v), v


class TestSharpConstantProperties:
    @given(alpha=st.floats(0.05, 0.95),
           mu=st.floats(0.1, 2.0),
           gamma=st.just(0.0) | st.floats(0.01, 5.0),
           delta=st.just(0.0) | st.floats(0.01, 20.0) | st.floats(-20.0, -0.01),
           log_s=st.floats(-12.0, 10.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetries_and_sampled_lower_bound(self, alpha, mu, gamma, delta, log_s, seed):
        lam = np.array([mu + 0.5j, mu + gamma + (0.5 + delta) * 1j])
        c, v = _system(alpha, lam, seed)
        res = classify_and_sharp_constant(_form(c))
        rng = np.random.default_rng(seed + 1)
        q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for other in (10.0 ** log_s * c, q @ c @ q.conj().T):
            res_o = classify_and_sharp_constant(_form(other))
            assert res_o.case is res.case
            assert res_o.c_sharp == pytest.approx(res.c_sharp, rel=1e-12)

        # sigma_max(e^{-(C - mu) t})^2 from the construction, on a grid with
        # 64 points a period over the first 50 periods (or out to 20/gamma)
        tail = 20.0 / gamma if gamma > 0.0 else 100.0
        dense = min(100.0 * np.pi / abs(delta), tail) if delta != 0.0 else tail
        n_dense = int(64 * dense * abs(delta) / (2.0 * np.pi)) + 2001
        ts = np.union1d(np.linspace(0.0, dense, n_dense), np.linspace(0.0, tail, 2001))
        prop = np.einsum("ij,tj,jk->tik", v, np.exp(-np.outer(ts, lam - mu)), np.linalg.inv(v))
        sampled = np.linalg.svd(prop, compute_uv=False)[:, 0] ** 2
        assert res.c_sharp ** 2 >= sampled.max() * (1.0 - 1e-11)


class TestSectorConstant:
    def test_trivial_sector(self):
        assert sector_constant(0.5, 2.0, 0.0) == 1.0

    def test_at_least_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = sector_constant(rng.uniform(0.0, 0.95), 10 ** rng.uniform(-2, 2),
                                rng.uniform(-50.0, 50.0))
            assert c >= 1.0 - 1e-12

    def test_orthogonal_equal_weights(self):
        for g in (-3.0, 0.5, 40.0):
            assert sector_constant(0.0, 1.0, g) == pytest.approx(1.0, abs=1e-14)

    def test_matches_scan(self):
        # closed-form stationary points against a dense scan of the ratio
        alpha, b = 0.6, 0.37
        for g in (-5.0, -0.8, 0.3, 2.0):
            zs = np.linspace(min(0.0, g), max(0.0, g), 200_001)
            one = 1.0 - alpha ** 2
            gz = one * (1.0 / b + b * zs ** 2) / (1.0 - 2 * alpha * zs + zs ** 2)
            gg = one * (1.0 / b + b * g ** 2) / (1.0 - 2 * alpha * g + g ** 2)
            assert sector_constant(alpha, b, g) == pytest.approx(gg / gz.min(), rel=1e-8)

    def test_array_matches_scalar_calls(self):
        # gamma = 0, negative gamma and alpha below ALPHA_FLOOR included
        b = np.logspace(-3.0, 2.0, 23)[:, None]
        g = np.concatenate([np.linspace(-4.0, 4.0, 17), [-1e6, 1e6]])
        for alpha in (0.0, 0.5 * ALPHA_FLOOR, 0.3, 0.95):
            arr = sector_constant(alpha, b, g)
            assert arr.shape == (len(b), len(g))
            ref = np.array([[sector_constant(alpha, bi, gi) for gi in g] for bi in b[:, 0]])
            assert np.array_equal(arr, ref)
        assert type(sector_constant(0.3, 2.0, 1.5)) is float

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sector_constant(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sector_constant(0.5, np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            sector_constant(0.5, -1.0, 1.0)


class TestTrajectoryOracle:
    def test_theta_reduction_matches_literal_product_grid(self):
        rng = np.random.default_rng(8)
        c, _, _ = make_2x2_with_overlap(rng)
        data = eigendecompose(c)
        ts = np.linspace(0.0, 4.0, 9)
        a, d, off = _gram_coefficients(data, ts)
        phi = rng.uniform(0.0, np.pi, size=7)
        theta = np.arange(8) * (2 * np.pi / 8) + 0.137
        fast_max, fast_min, _, _ = _grid_extrema(a, d, off, phi, theta)
        # literal double loop
        vals = (np.cos(phi)[:, None, None] ** 2 * a[None, None, :]
                + np.sin(phi)[:, None, None] ** 2 * d[None, None, :]
                + 2 * (np.sin(phi) * np.cos(phi))[:, None, None]
                * (off[None, None, :] * np.exp(1j * theta)[None, :, None]).real)
        assert np.allclose(fast_max, vals.max(axis=(0, 1)), atol=1e-14)
        assert np.allclose(fast_min, vals.min(axis=(0, 1)), atol=1e-14)

    @pytest.mark.parametrize("n_theta", [8, 25])
    def test_grid_arguments_attain_extrema(self, n_theta):
        # the returned (phi, theta) evaluate to the returned extrema, on the
        # even uniform route and on the literal one alike
        rng = np.random.default_rng(8)
        c, _, _ = make_2x2_with_overlap(rng)
        ts = np.linspace(0.0, 4.0, 9)
        a, d, off = _gram_coefficients(eigendecompose(c), ts)
        phi = rng.uniform(0.0, np.pi, size=7)
        theta = np.arange(n_theta) * (2 * np.pi / n_theta) + 0.137
        vmax, vmin, arg_max, arg_min = _grid_extrema(a, d, off, phi, theta)
        for v, arg in ((vmax, arg_max), (vmin, arg_min)):
            assert np.isin(arg[:, 0], phi).all() and np.isin(arg[:, 1], theta).all()
            cp, sp = np.cos(arg[:, 0]), np.sin(arg[:, 0])
            at = (a * cp ** 2 + d * sp ** 2
                  + 2 * sp * cp * (off * np.exp(1j * arg[:, 1])).real)
            assert np.allclose(at, v, atol=1e-14)

    def test_oracle_brackets_envelopes(self, mat_complex_pair):
        form = _form(mat_complex_pair)
        ts = np.linspace(0.0, 6.0, 80)
        env = envelope_curves(form, ts)
        phi = np.linspace(0.0, np.pi, 90)
        theta = np.linspace(0.0, 2 * np.pi, 90, endpoint=False)
        vmax, vmin = trajectory_envelope_oracle(mat_complex_pair, phi, theta, ts)
        assert np.max(np.abs(vmax - env.h_plus) / env.h_plus) < 1e-7
        assert np.max(np.abs(vmin - env.h_minus) / env.h_minus) < 1e-7

    def test_refinement_tightens_coarse_grid(self, mat_real_distinct):
        form = _form(mat_real_distinct)
        ts = np.linspace(0.0, 6.0, 40)
        env = envelope_curves(form, ts)
        phi = np.linspace(0.0, np.pi, 25)
        theta = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
        raw_max, raw_min = trajectory_envelope_oracle(
            mat_real_distinct, phi, theta, ts, refine=False)
        ref_max, ref_min = trajectory_envelope_oracle(
            mat_real_distinct, phi, theta, ts, refine=True)
        raw_err = np.max(np.abs(raw_min - env.h_minus) / env.h_minus)
        ref_err = np.max(np.abs(ref_min - env.h_minus) / env.h_minus)
        assert ref_err < raw_err / 100
        assert np.all(ref_max >= raw_max - 1e-15)
        assert np.all(ref_min <= raw_min + 1e-15)

    def test_sup_oracle_equal_real_parts(self, mat_complex_pair):
        phi = np.linspace(0.0, np.pi, 180)
        theta = np.linspace(0.0, 2 * np.pi, 180, endpoint=False)
        # The refinement polishes angles at each fixed time, so the analytic
        # maximizer time must be a grid point for a tight comparison.
        ts = np.union1d(np.linspace(0.0, 12.0, 600), [np.pi / np.sqrt(3.0)])
        sup = trajectory_sup_oracle(mat_complex_pair, phi, theta, ts)
        assert sup == pytest.approx(3.0, rel=1e-7)

    def test_rejects_larger_systems(self):
        with pytest.raises(ValueError):
            trajectory_envelope_oracle(np.eye(3), [0.1], [0.1], [0.0])
