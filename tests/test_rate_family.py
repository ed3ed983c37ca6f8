import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from hypodecay import (
    DefectiveInput,
    RateOutOfRange,
    canonical_2d_form,
    eigendecompose,
    envelope_curves,
    exact_solution,
    family_envelope,
    lower_bound_constant,
    upper_bound_constant,
)
from hypodecay.rate_family import _family, _lower_envelope

from . import families, mpref


class TestUpperBoundConstant:
    def test_endpoint_at_spectral_gap(self, form_complex_pair):
        fb = upper_bound_constant(form_complex_pair, 0.5)
        assert fb.constant == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert fb.direction == "upper"
        assert fb.kappa == pytest.approx(3.0, abs=1e-11)

    def test_endpoint_at_symmetric_rate(self, form_complex_pair):
        fb = upper_bound_constant(form_complex_pair, 0.0)
        assert fb.constant == pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_rate(self, form_real_distinct):
        form = form_real_distinct
        rates = np.linspace(form.mu_s, form.mu, 32)
        consts = [upper_bound_constant(form, r).constant for r in rates]
        assert all(a <= b + 1e-12 for a, b in zip(consts, consts[1:]))
        assert consts[0] == pytest.approx(1.0, abs=1e-14)
        assert consts[-1] == pytest.approx(2.0, abs=1e-9)

    def test_near_tie_of_equal_eigenvalues(self):
        # eigenvalues 1 and 1 + 5e-11i: at the gap the distance is 5e-11, far
        # above rounding, so beta0 = 0 and c = sqrt((1 + alpha)/(1 - alpha)) = 2
        c = families.similar(np.array([[1.0, 0.6], [0.0, 0.8]]), [1.0, 1.0 + 5e-11j])
        form = canonical_2d_form(eigendecompose(c))
        fb = upper_bound_constant(form, form.mu)
        assert fb.beta0 == 0.0
        assert fb.constant == pytest.approx(2.0, rel=1e-11)

    def test_out_of_range(self, form_complex_pair):
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form_complex_pair, 0.6)
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form_complex_pair, -0.05)


class TestTimeRescaling:
    # squares of the eigenvalues under- and overflow at 1e-170 and 1e160
    @pytest.mark.parametrize("s", [1e-170, 1e-16, 1e-12, 1.0, 1e6, 1e160])
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
            pytest.approx(1.0, abs=1e-14)

    def test_endpoints_real_spectrum(self, form_real_distinct):
        assert lower_bound_constant(form_real_distinct, 17 / 20).constant == \
            pytest.approx(0.5, abs=1e-9)
        assert lower_bound_constant(form_real_distinct, 19 / 20).constant == \
            pytest.approx(1.0, abs=1e-14)
        form = form_real_distinct
        assert lower_bound_constant(form, form.nu_s).constant == pytest.approx(1.0, abs=1e-14)

    def test_out_of_range(self, form_real_distinct):
        with pytest.raises(RateOutOfRange):
            lower_bound_constant(form_real_distinct, 0.5)


class TestRangeSlack:
    """A rate is accepted within rounding of its family's range and no further:
    a member beyond the range end would keep the constant of the end."""

    def test_just_beyond_the_range_is_out(self, form_complex_pair):
        form = form_complex_pair
        rho = float(np.abs(form.eigenvalues).max())
        with pytest.raises(RateOutOfRange):
            upper_bound_constant(form, form.mu + 1e-12 * rho)
        with pytest.raises(RateOutOfRange):
            lower_bound_constant(form, form.nu - 1e-12 * rho)

    def test_normal_matrices_keep_their_families(self):
        # mu_s and mu (nu and nu_s) of a normal C agree, but come from two
        # routes and cross by rounding
        rng = np.random.default_rng(1)
        crossed = 0
        for _ in range(20):
            lam = rng.uniform(0.1, 2.0, 2) + 1j * rng.uniform(-2.0, 2.0, 2)
            q = families.unitary(rng, 2)
            form = canonical_2d_form(eigendecompose(q @ np.diag(lam) @ q.conj().T))
            crossed += form.mu_s > form.mu or form.nu > form.nu_s
            fam = family_envelope(form, [0.0, 1.0], n_rates=8)
            assert np.allclose(fam.upper_constants, 1.0, rtol=0.0, atol=1e-12)
            assert np.allclose(fam.lower_constants, 1.0, rtol=0.0, atol=1e-12)
            assert upper_bound_constant(form, form.mu).constant == pytest.approx(1.0, abs=1e-12)
            assert lower_bound_constant(form, form.nu).constant == pytest.approx(1.0, abs=1e-12)
        assert crossed > 0


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("member", [upper_bound_constant, lower_bound_constant])
def test_non_finite_rate_is_out_of_range(member, rate, form_complex_pair):
    with pytest.raises(RateOutOfRange):
        member(form_complex_pair, rate)


class TestAgainstMpmath:
    """Upper constants are never more than 4 ulp below the 50-digit value of
    the closed form, lower constants never more than 4 ulp above it."""

    @staticmethod
    def _assert_never_optimistic(form, up_rates, lo_rates):
        for r in up_rates:
            exact = mpref.family_constant(form, r, "upper")
            assert upper_bound_constant(form, r).constant >= exact - 4 * np.spacing(exact), r
        for r in lo_rates:
            exact = mpref.family_constant(form, r, "lower")
            assert lower_bound_constant(form, r).constant <= exact + 4 * np.spacing(exact), r

    def test_near_the_symmetric_bounds(self):
        # 1 - (1 - alpha^2)(1 - beta~^2)/(1 + alpha beta~)^2 cancels here
        form = canonical_2d_form(eigendecompose(np.array([[1.0, 3.0], [-1.0, 2.0]])))
        w = 1e-6 * (form.mu - form.mu_s)
        up = np.append(form.mu_s + np.linspace(0.0, w, 64), 0.38196601180912243)
        self._assert_never_optimistic(form, up, form.nu_s - np.linspace(0.0, w, 64))

    @pytest.mark.parametrize("fixture", ["form_complex_pair", "form_real_distinct"])
    def test_rate_grids(self, fixture, request):
        form = request.getfixturevalue(fixture)
        self._assert_never_optimistic(form, np.linspace(form.mu_s, form.mu, 64),
                                      np.linspace(form.nu, form.nu_s, 64))


def test_gap_members_are_the_closed_form_kappa_min():
    # beta0 = 0 at mu and at nu: c1 = sqrt(kappa_min) of the form, which is
    # (1 + alpha)/(1 - alpha), and c2 its reciprocal to the last bit, as the
    # bracket of classify_and_sharp_constant
    rng = np.random.default_rng(15)
    for k in range(48):
        c, _, _ = families.make_2x2_with_overlap(rng, equal_real=k % 3 == 1,
                                                 real_spectrum=k % 3 == 2)
        form = canonical_2d_form(eigendecompose(c))
        edge = float(np.sqrt(form.kappa_min))
        assert upper_bound_constant(form, form.mu).constant == edge
        assert lower_bound_constant(form, form.nu).constant == 1.0 / edge


@pytest.mark.parametrize("fixture", ["form_complex_pair", "form_real_distinct",
                                     "form_far_below_zero"])
def test_constants_keep_their_bits_beyond_the_scaling_clamp(fixture, request):
    # the eigenvalue parts of 2^1010 C lie above 2^1000, where the power of two
    # that scales them is clamped: every member keeps the bits it has for C
    form = request.getfixturevalue(fixture)
    s = 2.0 ** 1010
    big = dataclasses.replace(form, eigenvalues=s * form.eigenvalues, mu_s=s * form.mu_s,
                              nu_s=s * form.nu_s, rounding_tol=s * form.rounding_tol)
    for bound, (lo, hi) in ((upper_bound_constant, (form.mu_s, form.mu)),
                            (lower_bound_constant, (form.nu, form.nu_s))):
        for r in np.linspace(lo, hi, 9).tolist():
            a, b = bound(form, r), bound(big, s * r)
            assert (b.rate, b.constant, b.beta0, b.beta_tilde, b.kappa) \
                == (s * r, a.constant, a.beta0, a.beta_tilde, a.kappa)
    fam, fam_big = family_envelope(form, [0.0]), family_envelope(big, [0.0])
    assert fam_big.upper_constants.tobytes() == fam.upper_constants.tobytes()
    assert fam_big.lower_constants.tobytes() == fam.lower_constants.tobytes()


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


def _matrix(alpha, lam):
    """The 2x2 with eigenvalues lam and eigenvector overlap alpha."""
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1 - alpha ** 2)]], dtype=complex)
    return families.similar(v, lam)


def _form(alpha, lam):
    """Canonical form of the 2x2 with eigenvalues lam and eigenvector overlap alpha."""
    return canonical_2d_form(eigendecompose(_matrix(alpha, lam)))


@pytest.fixture
def form_far_below_zero():
    """alpha 0.9, eigenvalues 1 and 1.01 + 200i: mu_s is about -205."""
    return _form(0.9, [1.0, 1.01 + 200j])


def _assert_dense_envelopes(form, ts, n_rates):
    """family_envelope against the dense min/max over every member, within 4 ulp."""
    # with mu_s far below zero a lone member e^{-mu_s t} overflows on its own
    with np.errstate(over="ignore"):
        fam = family_envelope(form, ts, n_rates=n_rates)
        upper = np.min(fam.upper_constants[:, None]
                       * np.exp(-np.outer(fam.upper_rates, ts)), axis=0)
        lower = np.max(fam.lower_constants[:, None]
                       * np.exp(-np.outer(fam.lower_rates, ts)), axis=0)
    eps = np.finfo(float).eps
    assert np.all(np.isclose(fam.upper, upper, rtol=4 * eps, atol=0.0, equal_nan=True))
    assert np.all(np.isclose(fam.lower, lower, rtol=4 * eps, atol=0.0, equal_nan=True))


def _assert_jordan_refusal(alpha, lam):
    """The matrix _form refuses is within rounding of a Jordan block: its
    eigenvalue split over the sum of the two eigenvalue condition numbers,
    each 1/sqrt(1 - alpha^2), is at most 32 eps |C|_2, recomputed here with
    numpy, up to a rounding slack of 1e-12 relative."""
    c = _matrix(alpha, lam)
    ev, v = np.linalg.eig(c)
    w = np.linalg.inv(v).conj().T
    w /= np.linalg.norm(w, axis=0)
    overlap = abs(np.vdot(w[:, 0], w[:, 1]))
    split = abs(ev[1] - ev[0]) * np.sqrt(1.0 - overlap * overlap) / 2.0
    assert split <= 32 * np.finfo(float).eps * np.linalg.norm(c, 2) * (1.0 + 1e-12)


def _monotone_chain_envelope(rates, logc, ts):
    """Reference for _lower_envelope: the lower hull of (rates_i, logc_i) by
    one monotone-chain pass in Python over the points sorted by rate (of
    equal rates only the smaller logc is kept), popping the last vertex while
    the new edge's slope does not exceed the last edge's."""
    r, ell = rates.tolist(), logc.tolist()
    order = np.lexsort((logc, rates)).tolist()
    hull, slopes = [order[0]], []
    for i in order[1:]:
        if r[i] == r[hull[-1]]:
            continue
        while True:
            s = (ell[i] - ell[hull[-1]]) / (r[i] - r[hull[-1]])
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(i)
        slopes.append(s)
    return np.array(hull)[np.searchsorted(slopes, ts)]


def _envelope(rates, logc, ts):
    """_lower_envelope with the points' own slope row, read only where the
    rates strictly increase: each family row as a separate call forms it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (logc[1:] - logc[:-1]) / (rates[1:] - rates[:-1])
    return _lower_envelope(rates, logc, slopes, ts)


_FLOATS = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def _float_points(draw):
    """Up to 40 points whose rates come from a pool of at most 8 floats, so
    rates repeat, and whose logc are arbitrary, so the chain is not convex."""
    pool = draw(st.lists(_FLOATS, min_size=1, max_size=8))
    n = draw(st.integers(1, 40))
    rates = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rates), np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))


#: the kinds of family row: increasing rates with convex and with non-convex
#: log c, repeated rates, and a point range
_ROW_KINDS = ("convex", "non-convex", "repeated", "point")


@st.composite
def _family_row(draw, kind, n):
    """n rates and log constants of one kind of _ROW_KINDS."""
    if kind == "point":
        rates = np.full(n, draw(_FLOATS))
    elif kind == "repeated":
        pool = draw(st.lists(_FLOATS, min_size=1, max_size=4))
        rates = np.sort(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    else:
        rates = np.sort(draw(st.lists(_FLOATS, min_size=n, max_size=n, unique=True)))
    if kind == "convex":  # the rising slopes accumulated over the rate steps
        rise = np.sort(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        return rates, draw(_FLOATS) + np.cumsum(rise * np.diff(rates, prepend=rates[0]))
    return rates, np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))


@st.composite
def _two_family_rows(draw):
    """(up, lu, down, ld): two rows of one length, each of a kind of _ROW_KINDS."""
    n = draw(st.integers(1, 24))
    return (*draw(_family_row(draw(st.sampled_from(_ROW_KINDS)), n)),
            *draw(_family_row(draw(st.sampled_from(_ROW_KINDS)), n)))


_ZIGZAG = (np.arange(5.0), np.array([0.0, 1.0, 0.0, 1.0, 3.0]),
           np.arange(5.0) + 3.5, np.array([2.0, 0.0, 1.0, 0.0, -2.0]))


class TestLowerEnvelope:
    @given(lines=st.lists(st.tuples(st.integers(-10, 10), st.integers(-20, 20)),
                          min_size=1, max_size=40),
           eighths=st.lists(st.integers(-80, 80), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_picks_the_lowest_line(self, lines, eighths):
        # integer rates and offsets and times in eighths keep every product,
        # difference and comparison exact, so the winner must attain the minimum
        rates, offsets = np.array(lines, dtype=float).T
        ts = np.array(eighths) / 8.0
        win = _envelope(rates, offsets, ts)
        assert np.array_equal(offsets[win] - rates[win] * ts,
                              np.min(offsets[:, None] - np.outer(rates, ts), axis=0))
        assert np.array_equal(win, _monotone_chain_envelope(rates, offsets, ts))

    @given(points=_float_points(),
           ts=st.lists(_FLOATS | st.just(np.nan), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_monotone_chain_on_floats(self, points, ts):
        rates, logc = points
        ts = np.array(ts)
        with np.errstate(over="ignore"):  # rates 1e-306 apart: a slope of inf
            win = _envelope(rates, logc, ts)
        assert np.array_equal(win, _monotone_chain_envelope(rates, logc, ts))

    @given(rates=st.lists(_FLOATS, min_size=1, max_size=40, unique=True),
           data=st.data(), ts=st.lists(_FLOATS, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_rates_need_no_sort(self, rates, data, ts):
        # a family's linspace rates are a chain taken as given; the same points
        # in any order, sorted and deduplicated, give the same winners
        rates = np.sort(rates)
        logc = np.array(data.draw(st.lists(_FLOATS, min_size=len(rates), max_size=len(rates))))
        ts = np.array(ts)
        perm = np.random.default_rng(len(rates)).permutation(len(rates))
        with np.errstate(over="ignore"):
            win = _envelope(rates, logc, ts)
            shuffled = perm[_envelope(rates[perm], logc[perm], ts)]
        assert np.array_equal(win, _monotone_chain_envelope(rates, logc, ts))
        assert np.array_equal(win, shuffled)

    @pytest.mark.parametrize("fixture", ["form_complex_pair", "form_real_distinct",
                                         "form_far_below_zero"])
    def test_matches_the_monotone_chain_on_the_families(self, fixture, request):
        form = request.getfixturevalue(fixture)
        ts = np.linspace(-10.0, 10.0, 401)
        for n_rates in (2, 64, 4096):
            fam = family_envelope(form, ts, n_rates=n_rates)
            for rates, logc in ((fam.upper_rates, np.log(fam.upper_constants)),
                                (-fam.lower_rates, -np.log(fam.lower_constants)),
                                (-fam.lower_rates[::-1], -np.log(fam.lower_constants[::-1]))):
                assert np.array_equal(_envelope(rates, logc, ts),
                                      _monotone_chain_envelope(rates, logc, ts))

    @given(rows=_two_family_rows(),
           ts=st.lists(_FLOATS | st.just(np.nan), min_size=1, max_size=20))
    # both chains zigzag, so the first round drops vertices; then repeated
    # rates and a point range, which take the sort path; then collinear rows
    @example(rows=_ZIGZAG, ts=np.linspace(-8.0, 8.0, 33).tolist())
    @example(rows=(np.array([0.0, 1.0, 1.0, 2.0, 2.0]), _ZIGZAG[1], np.full(5, 1.0), _ZIGZAG[3]),
             ts=np.linspace(-8.0, 8.0, 33).tolist())
    @example(rows=(_ZIGZAG[0], np.zeros(5), _ZIGZAG[2], np.ones(5)), ts=[-1.0, 0.0, 2.0])
    @settings(max_examples=300, deadline=None)
    def test_one_slope_row_serves_both_families(self, rows, ts):
        # family_envelope's hull step on the joined rows: one slope row, whose
        # part for the lower family read backwards has the bits of the slopes
        # of (-r, -log c) wherever that family's rates increase, gives each
        # family the winners of its own slope row, which are the monotone
        # chain's
        up, lu, down, ld = rows
        n, ts = len(up), np.array(ts)
        rates, logc = np.concatenate((up, down)), np.concatenate((lu, ld))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            slopes = (logc[1:] - logc[:-1]) / (rates[1:] - rates[:-1])
            ell, r = -ld[::-1], -down[::-1]
            own = (ell[1:] - ell[:-1]) / (r[1:] - r[:-1])
        back = slice(None, n - 1, -1)
        if np.all(down[1:] > down[:-1]):
            assert slopes[back].tobytes() == own.tobytes()
        with np.errstate(over="ignore"):
            i = _lower_envelope(up, lu, slopes[:n - 1], ts)
            j = _lower_envelope(-rates[back], -logc[back], slopes[back], ts)
            assert np.array_equal(i, _envelope(up, lu, ts))
            assert np.array_equal(j, _envelope(r, ell, ts))
        assert np.array_equal(i, _monotone_chain_envelope(up, lu, ts))
        assert np.array_equal(j, _monotone_chain_envelope(r, ell, ts))


def _batch_2x2_forms(seed):
    """Canonical forms of families.batch_2x2_matrices(seed)."""
    return [canonical_2d_form(eigendecompose(c)) for c in families.batch_2x2_matrices(seed)]


def _two_row_envelope(form, ts, n):
    """(upper, lower, upper_rates, lower_rates, upper_constants,
    lower_constants) from two np.linspace rows, each family evaluated and
    given to _lower_envelope with its own slope row, as separate calls did."""
    up, down = np.linspace(form.mu_s, form.mu, n), np.linspace(form.nu, form.nu_s, n)
    # where rounding crossed a range, the clamp takes every rate to its top
    crossed = form.mu_s > form.mu or form.nu > form.nu_s
    cu = np.sqrt(_family(form, np.minimum(up, form.mu) if crossed else up)[2])
    cd = 1.0 / np.sqrt(_family(form, np.minimum(down, form.nu_s) if crossed else down)[2])
    with np.errstate(over="ignore"):
        i = _envelope(up, np.log(cu), ts)
        j = n - 1 - _envelope(-down[::-1], -np.log(cd)[::-1], ts)
        return cu[i] * np.exp(-up[i] * ts), cd[j] * np.exp(-down[j] * ts), up, down, cu, cd


class TestFamilyEnvelope:
    @pytest.mark.filterwarnings("error")
    def test_bits_of_two_rows_on_batch_2x2(self):
        # one row of rates, constants and slopes for both families changes no
        # bit of any field against two np.linspace rows and a hull per family,
        # on every form of batch_2x2 seeds 1-40
        fields = ("upper", "lower", "upper_rates", "lower_rates",
                  "upper_constants", "lower_constants")
        for seed in range(1, 41):
            for form in _batch_2x2_forms(seed):
                ts = np.linspace(0.0, 10.0 / form.mu, 400)
                fam = family_envelope(form, ts)
                for name, ref in zip(fields, _two_row_envelope(form, ts, 64)):
                    assert getattr(fam, name).tobytes() == ref.tobytes(), (seed, name)

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

    @given(alpha=st.floats(0.0, 0.95),
           re=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
           im=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           n_rates=st.sampled_from([1, 2, 3, 64, 2048]),
           ts=st.lists(st.floats(-5.0, 5.0) | st.just(np.nan), min_size=1, max_size=50))
    # eigenvalues split by 2.2207e-16, just above the scalar tie 32 eps * radius
    # = 2.2204e-16, with eigenvectors far from parallel (alpha 0.875): a form,
    # not a Jordan block
    @example(alpha=0.875, re=(0.03125, 0.03125), im=(0.0, 2.220446049250313e-16),
             n_rates=1, ts=[np.nan])
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, alpha, re, im, n_rates, ts):
        lam = [re[0] + 1j * im[0], re[1] + 1j * im[1]]
        try:
            form = _form(alpha, lam)
        except DefectiveInput:
            _assert_jordan_refusal(alpha, lam)
            reject()
        _assert_dense_envelopes(form, np.array(ts), n_rates)

    @pytest.mark.parametrize("alpha, lam", [(0.0, [0.5 + 1j, 2.0 - 1j]),
                                            (0.7, [0.5 + 1j, 0.5 + 1j])],
                             ids=["normal", "equal-eigenvalues"])
    def test_matches_dense_oracle_on_a_point_range(self, alpha, lam):
        # a normal C has mu_s = mu and nu = nu_s: every member shares one rate
        form = _form(alpha, lam)
        assert form.mu_s == pytest.approx(form.mu, abs=1e-12)
        assert form.nu_s == pytest.approx(form.nu, abs=1e-12)
        _assert_dense_envelopes(form, np.array([-1.0, 3.0, np.nan, 0.0]), 64)

    @pytest.mark.parametrize("n_rates", [1, 2, 3, 64, 2048])
    def test_matches_dense_oracle_far_below_zero(self, form_far_below_zero, n_rates):
        ts = np.random.default_rng(n_rates).permutation(np.linspace(0.0, 10.0, 400))
        _assert_dense_envelopes(form_far_below_zero, ts, n_rates)

    def test_memory_linear_in_rates_plus_times(self, form_complex_pair):
        # a rates x times product would need 640 MB here
        tracemalloc.start()
        try:
            family_envelope(form_complex_pair, np.linspace(0.0, 10.0, 400), n_rates=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_rejects_no_rates(self, form_complex_pair):
        with pytest.raises(ValueError, match="n_rates must be at least 1"):
            family_envelope(form_complex_pair, [0.0, 1.0], n_rates=0)

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

    @pytest.mark.parametrize("ends", [
        ((-0.3, 0.5), (1.0, 1.7)),
        ((1.0, 1.0), (1.0, 1.0 + 2.0 ** -52)),  # one zero step
        ((1.0 + 2.0 ** -52, 1.0), (2.0, 2.0)),  # a crossed range and a zero step
        ((0.0, 5e-323), (1.0, 2.0)),  # a step that underflows to zero
        ((-1e-310, 2e-310), (3e-310, 3e-310)),
    ])
    @pytest.mark.parametrize("n_rates", [1, 2, 3, 64])
    @pytest.mark.filterwarnings("error")
    def test_rates_are_linspace_of_each_range(self, form_complex_pair, ends, n_rates):
        # each family's rates are np.linspace of its range, bit for bit, even
        # where a step is zero or underflows, and each member is its
        # single-rate call
        (mu_s, mu), (nu, nu_s) = ends
        # mu and nu are derived fields, which replace() does not take
        form = dataclasses.replace(form_complex_pair, mu_s=mu_s, nu_s=nu_s)
        form.mu, form.nu = mu, nu
        fam = family_envelope(form, [0.0, 1.0], n_rates=n_rates)
        for rates, (lo, hi) in zip((fam.upper_rates, fam.lower_rates), ends):
            assert rates.tobytes() == np.linspace(lo, hi, n_rates).tobytes()
        assert [upper_bound_constant(form, r).constant for r in fam.upper_rates] \
            == fam.upper_constants.tolist()
        assert [lower_bound_constant(form, r).constant for r in fam.lower_rates] \
            == fam.lower_constants.tolist()

    def test_equal_eigenvalues_give_one(self):
        # C is scalar up to rounding: every member of both families is exactly 1
        form = _form(0.7, [0.5 + 1j, 0.5 + 1j])
        fam = family_envelope(form, [0.0, 1.0], n_rates=8)
        assert fam.upper_constants.tolist() == fam.lower_constants.tolist() == [1.0] * 8
        assert upper_bound_constant(form, form.mu).constant == 1.0
        assert lower_bound_constant(form, form.nu).constant == 1.0

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
