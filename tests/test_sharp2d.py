import dataclasses
import math

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
    upper_bound_constant,
)
from hypodecay import RateOutOfRange, sharp2d
from hypodecay.sharp2d import ALPHA_FLOOR, _m_plus_minus
from . import families, mpref
from .families import batch_2x2_matrices, make_2x2_with_overlap
from .sweep import (_grid_extrema, _gram_coefficients, sector_constant,
                    trajectory_envelope_oracle, trajectory_sup_oracle)


def _form(c):
    return canonical_2d_form(eigendecompose(c))


def _beta(alpha):
    """sqrt(1 - alpha^2) of a float alpha in [0, 1], the beta that sup_m_plus
    and _m_plus_minus take beside it."""
    return math.sqrt((1.0 - alpha) * (1.0 + alpha))


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

    def test_small_overlap_keeps_its_transient(self):
        # eigenvalues 1 +- i with overlap alpha: c_sharp = sqrt(kappa_min) =
        # 1 + alpha + O(alpha^2), and h_+ e^{2t} reaches kappa_min at the half
        # turn t = pi/2; neither may round to the constant 1 of an orthogonal
        # eigenbasis, so ALPHA_FLOOR stays below these overlaps
        for alpha in (5e-15, 1e-12, 1e-9, 5e-9):
            v = np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]])
            form = _form(families.similar(v, [1.0 + 1.0j, 1.0 - 1.0j]))
            kmin = (1.0 + alpha) / (1.0 - alpha)
            c_sharp = classify_and_sharp_constant(form).c_sharp
            assert c_sharp == pytest.approx(np.sqrt(kmin), rel=1e-15, abs=0.0)
            h_plus = envelope_curves(form, [np.pi / 2.0]).h_plus[0]
            assert h_plus * np.exp(np.pi) == pytest.approx(kmin, rel=1e-14, abs=0.0)

    def test_equal_imaginary_parts(self, form_real_distinct):
        res = classify_and_sharp_constant(form_real_distinct)
        assert res.case is DecayCase.EQUAL_IMAGINARY_PARTS
        assert res.c_sharp == pytest.approx(1.25, rel=1e-12)
        assert res.attained == "asymptotic" and res.attained_time is None

    def test_coinciding_imaginary_parts_bend_the_envelope(self):
        # delta = 1e-10 is within the tolerance, yet not 0: the delta = 0 limit
        # 1/sqrt(1 - alpha^2) = 1.25 lies below the sup that the phase reaches
        c = families.similar(np.array([[1.0, 0.6], [0.0, 0.8]]), [1.0, 1.0 + 3e-10 + 1e-10j])
        form = _form(c)
        res = classify_and_sharp_constant(form)
        assert res.case is DecayCase.EQUAL_IMAGINARY_PARTS
        assert form.delta != 0.0
        sup, _ = sup_m_plus(form.alpha, form.beta, abs(form.gamma), form.delta)
        assert res.c_sharp >= np.sqrt(sup)
        shifted = c - form.mu * np.eye(2)
        sampled = max(np.linalg.norm(expm(-t * shifted), 2)
                      for t in np.linspace(1e10, 3e10, 201))
        assert sampled > 1.2504
        assert res.c_sharp >= sampled * (1.0 - 1e-12)

    def test_near_tie_of_equal_eigenvalues_is_not_scalar(self):
        # eigenvalues 1 and 1 + 5e-11i lie within the coincidence tolerance
        # but 2.3e5 ulps apart, far above rounding: C is not scalar, and
        # |e^{-(C - mu)t}| reaches 2 at t = pi/5e-11
        c = families.similar(np.array([[1.0, 0.6], [0.0, 0.8]]), [1.0, 1.0 + 5e-11j])
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
        # envelopes stay finite and m_+ sits on its asymptote 1/beta^2
        form = _form(np.array([[1.0, 3.0], [0.0, 2.0]]))
        ts = np.linspace(800.0, 2000.0, 25)
        env = envelope_curves(form, ts)
        assert np.isfinite(env.h_plus).all() and np.isfinite(env.h_minus).all()
        m_lo, m_hi = _m_plus_minus(form.alpha, form.beta, form.gamma, 0.7, ts)
        assert np.allclose(m_hi, 1.0 / form.beta ** 2, rtol=1e-15, atol=0.0)
        assert np.all(m_lo == 0.0)

    def test_rate_beyond_the_float_range_is_refused(self):
        # h_- of diag(1e307, 1.7e308) decays at 2 gamma = inf: exp(-inf * 0) at
        # t = 0 would be NaN
        with pytest.raises(RateOutOfRange, match="outside the float range"):
            envelope_curves(_form([[1e307, 0.0], [0.0, 1.7e308]]), [0.0, 1.0])

    def test_growth_past_the_float_range_is_silent_inf(self):
        # back in time: e^{800} at t = -400 is inf, without numpy's warning
        env = envelope_curves(_form([[1.0, 1.0], [0.0, 1.001]]), [0.0, -400.0])
        assert env.h_plus[-1] == env.h_minus[-1] == np.inf
        assert env.h_plus[0] == pytest.approx(1.0) and env.h_minus[0] == pytest.approx(1.0)

    def test_near_tie_of_equal_eigenvalues_bends_the_envelope(self):
        # split 5e-11i within the coincidence tolerance: the envelopes are the
        # extreme singular values of e^{-(C - mu)t}, not the pure exponential
        v = np.array([[1.0, 0.6], [0.0, 0.8]])
        lam = np.array([1.0, 1.0 + 5e-11j])
        form = _form(families.similar(v, lam))
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
        # over beta^2 of the beta passed, so that only the cancellation of
        # forming A in floats shows
        beta = _beta(alpha)
        ts = np.logspace(-8.0, np.log10(5.0), 33)
        worst = 0.0
        for gamma in (1e-6, 1e-3):
            for delta in (1e-3, 1.0, 30.0):
                lo, hi = _m_plus_minus(alpha, beta, gamma, delta, ts)
                pairs = [_m_plus_minus(alpha, beta, gamma, delta, float(t)) for t in ts]
                with mpmath.workdps(50):
                    for k, t in enumerate(ts):
                        ref_hi, ref_lo = mpref.m_plus_minus(alpha, gamma, delta, t,
                                                            one=mpmath.mpf(beta) ** 2)
                        for got_lo, got_hi in ((lo[k], hi[k]), pairs[k]):
                            worst = max(worst, abs(got_hi / ref_hi - 1), abs(got_lo / ref_lo - 1))
        assert worst <= 1e-12, worst


class TestSupMPlus:
    def test_pure_oscillation_closed_form(self):
        alpha, delta = 0.5, np.sqrt(3.0)
        value, t_at = sup_m_plus(alpha, _beta(alpha), 0.0, delta)
        assert value == pytest.approx((1 + alpha) / (1 - alpha), rel=1e-10)
        assert t_at == np.pi / delta

    def test_monotone_approach_closed_form(self):
        alpha, gamma = 0.6, 0.8
        value, t_at = sup_m_plus(alpha, _beta(alpha), gamma, 0.0)
        assert value == pytest.approx(1.0 / (1 - alpha ** 2), rel=1e-12)
        assert t_at is None

    def test_orthogonal_basis_is_flat(self):
        assert sup_m_plus(0.0, 1.0, 0.3, 1.0)[0] == 1.0

    @pytest.mark.parametrize("alpha,gamma,delta", [
        (1.0, 0.3, 1.0), (1.5, 0.3, 1.0), (-0.1, 0.3, 1.0), (np.nan, 0.3, 1.0),
        (0.5, np.nan, 1.0), (0.5, np.inf, 1.0), (0.5, -0.3, 1.0),
        (0.5, 0.3, np.nan), (0.5, 0.3, -np.inf),
        (0.5, 0.0, 0.0)])  # coincident eigenvalues: no envelope factor
    def test_rejects_inputs_outside_domain(self, alpha, gamma, delta):
        # alpha = 1 has beta = 0: a Jordan block; off [0, 1] beta is a valid 0.6
        beta = _beta(alpha) if 0.0 <= alpha <= 1.0 else 0.6
        with pytest.raises(ValueError):
            sup_m_plus(alpha, beta, gamma, delta)

    @pytest.mark.parametrize("beta", [0.0, -0.5, np.nan, 1.5])
    def test_rejects_beta_outside_domain(self, beta):
        with pytest.raises(ValueError):
            sup_m_plus(0.5, beta, 0.3, 1.0)

    def test_value_dominates_samples(self):
        alpha, gamma, delta = 0.7, 0.25, 1.3
        value, _ = sup_m_plus(alpha, _beta(alpha), gamma, delta)
        one = 1.0 - alpha ** 2
        ts = np.linspace(0.0, 120.0, 200_001)
        a = (np.cosh(gamma * ts) - alpha ** 2 * np.cos(delta * ts)) / one
        m = np.exp(-gamma * ts) * (a + np.sqrt(np.maximum(a * a - 1, 0)))
        assert value >= m.max() * (1 - 1e-9)


#: (alpha, gamma, delta) where a 20/gamma scan with 1e5 points steps over
#: the period 2 pi / |delta|
ALIASED = [(0.5, 1e-4, 50.0), (0.5, 1e-3, 30.0), (0.9, 1e-2, 200.0)]

#: ALIASED and a grid of overlaps and ratios g = gamma/|delta|, 0 included
SUP_CASES = ALIASED + [(a, g * abs(d), d) for a in (1e-6, 0.1, 0.5, 0.9, 0.99)
                       for g, d in ((0.0, 1.0), (1e-5, -7.0), (0.01, 1.0), (0.3, -1.0),
                                    (3.0, 7.0), (30.0, 1.0))]


class _CountingMath:
    """The math module, with its calls of cos counted: sup_m_plus evaluates
    cos s once for each slope of its root-find."""

    def __init__(self):
        self.cos_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


class TestSupReference:
    # SUP_CASES and the least and largest overlaps that reach the search
    @pytest.mark.parametrize("alpha,gamma,delta", SUP_CASES + [
        (a, g, d) for a in (2.0 ** -54, 1.0 - 1e-12)
        for g, d in ((1e-5, -1.0), (0.3, 1.0), (3.0, 7.0))])
    def test_matches_mpmath(self, alpha, gamma, delta, monkeypatch):
        ref = mpref.sup_reference(alpha, gamma, delta)
        calls = []
        m_plus_minus = sharp2d._m_plus_minus
        monkeypatch.setattr(sharp2d, "_m_plus_minus",
                            lambda *args: calls.append(args) or m_plus_minus(*args))
        value, _ = sup_m_plus(alpha, _beta(alpha), gamma, delta)
        assert value == pytest.approx(float(ref), rel=1e-13)
        # the root-find works on the slope of m_+ alone: m_+ is evaluated once
        assert len(calls) == 1

    def test_time_rescaling(self):
        # (0.6, 0.3 s, 1.7 s) is the same problem in the time t / s
        ref = float(mpref.sup_reference(0.6, 0.3, 1.7))
        beta = _beta(0.6)
        base, base_t = sup_m_plus(0.6, beta, 0.3, 1.7)
        for s in 10.0 ** np.arange(-12, 11):
            value, t_at = sup_m_plus(0.6, beta, 0.3 * s, 1.7 * s)
            assert value == pytest.approx(base, rel=1e-15, abs=0.0)
            assert value == pytest.approx(ref, rel=1e-13)
            # the root of the slope places the flat maximum, not a sample near it
            assert t_at * s == pytest.approx(base_t, rel=1e-12)

    def test_time_meets_a_50_digit_argmax(self):
        # on SUP_CASES directly and on the FullyDistinct forms of batch_2x2
        # seeds 1-3 as analyze prints them; an asymptotic sup has no time.
        # These times sit within 2.3e-16; a stop at a step of 1e-8 s, not
        # 2 eps s, leaves up to 7.9e-13
        cases = [(a, _beta(a), g, d, sup_m_plus(a, _beta(a), g, d)[1]) for a, g, d in SUP_CASES]
        for seed in (1, 2, 3):
            for c in batch_2x2_matrices(seed):
                form = _form(c)
                if form.case is DecayCase.FULLY_DISTINCT:
                    res = classify_and_sharp_constant(form)
                    cases.append((form.alpha, form.beta, form.gamma, form.delta,
                                  res.attained_time))
        assert len(cases) == len(SUP_CASES) + 63
        for alpha, beta, gamma, delta, t_at in cases:
            s = mpref.argmax_reference(alpha, gamma / abs(delta))
            if t_at is None:
                # m_+ stays within 1e-12 of its asymptote 1/beta^2
                with mpmath.workdps(50):
                    top = mpref.m_plus_minus(alpha, gamma, delta, s / abs(delta))[0]
                assert top <= (1.0 + 1e-12) / (beta * beta), (alpha, gamma, delta)
            else:
                assert abs(t_at * abs(delta) / s - 1) <= 1e-13, (alpha, gamma, delta)

    def test_search_cost(self, monkeypatch):
        # at most 6 slopes on every FullyDistinct form of batch_2x2 seeds
        # 1-40, and at most 64, the bisection count, on extreme overlaps and
        # ratios g = gamma/|delta|, inf included
        counting = _CountingMath()
        monkeypatch.setattr(sharp2d, "math", counting)
        worst = 0
        for seed in range(1, 41):
            for c in batch_2x2_matrices(seed):
                form = _form(c)
                if form.case is DecayCase.FULLY_DISTINCT:
                    counting.cos_calls = 0
                    sup_m_plus(form.alpha, form.beta, form.gamma, form.delta)
                    worst = max(worst, counting.cos_calls)
        assert 0 < worst <= 6
        for alpha in (2.0 ** -54, 1e-8, 0.5, 1.0 - 1e-12):
            for gamma, delta in ((1e-12, 1.0), (1e-6, -3.0), (1e6, 1.0), (1e12, 1.0),
                                 (1e200, 1.0), (1.0, 5e-324)):
                counting.cos_calls = 0
                sup_m_plus(alpha, _beta(alpha), gamma, delta)
                assert counting.cos_calls <= 64, (alpha, gamma, delta)


class TestHalfPeriodLemma:
    """The lemmas of the sharp2d docstring, in the time s = |delta| t with
    g = gamma/|delta|: M is non-increasing and bounds m_+, m_+ rises then
    falls on [0, pi], with the sign of F, and the sup there dominates m_+
    everywhere."""

    ALPHAS = (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6)

    @pytest.mark.parametrize("g", [0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 220.0])
    def test_lemma(self, g):
        for alpha in self.ALPHAS:
            beta = _beta(alpha)
            one = beta * beta
            # with A~ = e A = e + gap, the derivative of m_+ is
            # F / sqrt(A~^2 - e^2), with F = A~' m_+ + g e^2; count the sign
            # changes of F on (0, pi]
            s = np.linspace(0.0, np.pi, 20_001)[1:]
            e = np.exp(-g * s)
            _, m = _m_plus_minus(alpha, beta, g, 1.0, s)
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
            _, m = _m_plus_minus(alpha, beta, g, 1.0, s)
            assert np.all(m <= M * (1.0 + 4e-16)), (alpha, g)
            assert sup_m_plus(alpha, beta, g, 1.0)[0] >= m.max() * (1.0 - 4e-16), (alpha, g)

    @given(alpha=st.floats(2.0 ** -54, 1.0, exclude_max=True),
           log_g=st.floats(-12.0, 12.0),
           s=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_sign_of_f(self, alpha, log_g, s):
        # F(pi/2) > 0 > F(pi), and F has the sign of the slope of the 50-digit
        # definition of m_+ wherever both stand above the rounding of their
        # terms (near s = 0 both vanish to second order)
        with mpmath.workdps(50):
            a, g, s = mpmath.mpf(alpha), mpmath.mpf(10.0 ** log_g), mpmath.mpf(s)

            def f(x):
                return (2 * g * (mpmath.sinh(g * x) * mpmath.sin(x)
                                 + g * mpmath.cosh(g * x) * mpmath.cos(x))
                        + a * a * (1 + g * g) * mpmath.sin(x) ** 2 - 2 * g * g)

            m = lambda x: mpref.m_plus_minus(alpha, g, 1.0, x)[0]  # noqa: E731
            assert f(mpmath.pi / 2) > 0 > f(mpmath.pi)
            slope, tiny = mpmath.diff(m, s), mpmath.mpf(10) ** -35
            terms = 2 * g * g * mpmath.cosh(g * s) + a * a * (1 + g * g)
            if abs(slope) > tiny * m(s) and abs(f(s)) > tiny * terms:
                assert mpmath.sign(f(s)) == mpmath.sign(slope), (alpha, log_g, s)


@pytest.mark.filterwarnings("error")
class TestSupEdges:
    """Inputs at the ends of the root-find's range, each without a warning."""

    @pytest.mark.parametrize("alpha", [1e-8, 0.3, 0.6, 0.9, 0.999])
    def test_no_real_spread_peaks_at_the_half_turn(self, alpha):
        # g = 0: F = alpha^2 sin^2 s > 0, so the sup is m_+(pi) = kappa_min,
        # at t = pi/|delta|; directly, and through a form built as
        # EqualEigenvalues with gamma = 0.0 exactly
        beta = _beta(alpha)
        kmin = ((1.0 + alpha) / beta) ** 2
        value, t_at = sup_m_plus(alpha, beta, 0.0, -0.7)
        assert abs(value / kmin - 1) <= 4 * 2.0 ** -52 and t_at == math.pi / 0.7
        v = np.array([[1.0, alpha], [0.0, beta]])
        form = dataclasses.replace(_form(families.similar(v, [1.0, 1.0 + 5e-11j])),
                                   case=DecayCase.EQUAL_EIGENVALUES,
                                   eigenvalues=np.array([1.0, 1.0 + 5e-11j]))
        assert form.gamma == 0.0 and form.delta == 5e-11
        res = classify_and_sharp_constant(form)
        assert abs(res.c_sharp ** 2 / form.kappa_min - 1) <= 4 * 2.0 ** -52
        assert res.attained == "finite" and res.attained_time == math.pi / 5e-11

    @pytest.mark.parametrize("gamma,delta", [(1.0, 5e-324), (1e300, 1e-10)])
    def test_ratio_beyond_the_float_range_is_the_asymptote(self, gamma, delta):
        # g = gamma/|delta| = inf: m_+ sits on 1/beta^2 past t = 0
        for alpha in (0.5, 0.99):
            beta = _beta(alpha)
            assert sup_m_plus(alpha, beta, gamma, delta) == (1.0 / (beta * beta), None)

    def test_c_sharp_is_bit_invariant_under_powers_of_two(self):
        # 2^k C has 2^k times the eigenvalues and the same eigenvectors, so the
        # same alpha, beta and g = gamma/|delta|, bit for bit
        for seed in (1, 2, 3):
            for c in batch_2x2_matrices(seed):
                ref = classify_and_sharp_constant(_form(c)).c_sharp
                for k in (-40, -3, 5, 60):
                    got = classify_and_sharp_constant(_form(2.0 ** k * c)).c_sharp
                    assert got == ref, (seed, k)


class TestTriangularNearJordan:
    """C = [[1, b], [0, 1 + g]] is exact in floats, and so is its beta =
    g/sqrt(g^2 + b^2), with g = fl(1 + g) - 1. e^{-(C - 1)t} tends to
    [[1, -b/g], [0, 0]], so c_sharp = sqrt(g^2 + b^2)/g; c1 at mu is
    q = (1 + alpha)/beta = (sqrt(g^2 + b^2) + b)/g, and kappa_min is q^2.
    Re-formed from the rounded alpha, 1 - alpha^2 lost up to 4.4e-5 of these."""

    # b in {1, 1e2, 1e4, 1e6} and g in {1, 1e-3, 1e-6}, without the five
    # pairs within rounding of a Jordan block, which eigendecompose refuses
    @pytest.mark.parametrize("b,g", [(1.0, 1.0), (1.0, 1e-3), (1.0, 1e-6), (1e2, 1.0),
                                     (1e2, 1e-3), (1e4, 1.0), (1e6, 1.0)])
    def test_constants_and_envelopes_meet_50_digits(self, b, g):
        form = _form(np.array([[1.0, b], [0.0, 1.0 + g]]))
        sharp = classify_and_sharp_constant(form)
        c1 = upper_bound_constant(form, form.mu).constant
        ts = [0.5, 2.0, 5.0, 50.0]
        env = envelope_curves(form, ts)
        with mpmath.workdps(50):
            bb, gg = mpmath.mpf(b), mpmath.mpf(1.0 + g) - 1
            root = mpmath.sqrt(gg * gg + bb * bb)
            q = (root + bb) / gg
            got = [sharp.c_sharp, form.kappa_min, c1]
            want = [root / gg, q * q, q]
            for k, t in enumerate(ts):
                # the squared singular values of e^{-Ct} = [[u, x], [0, w]]: the
                # eigenvalues of its Gram matrix, whose product is (u w)^2
                u, w = mpmath.exp(-t), mpmath.exp(-(1 + gg) * t)
                x = bb / gg * (w - u)
                top = mpref.hermitian_eigvals(u * u, x * x + w * w, u * x)[1]
                got += [env.h_plus[k], env.h_minus[k]]
                want += [top, (u * w) ** 2 / top]
            worst = max(abs(x / y - 1) for x, y in zip(got, want))
        assert worst <= 1e-15, float(worst)


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
        v = families.overlap_basis(alpha, np.random.default_rng(seed))
        c = families.similar(v, lam)
        res = classify_and_sharp_constant(_form(c))
        rng = np.random.default_rng(seed + 1)
        q = families.unitary(rng, 2)
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
