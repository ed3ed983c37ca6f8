import numpy as np
import pytest
from scipy.linalg import expm

from hypodecay import (
    canonical_2d_form,
    eigendecompose,
    exact_solution,
    rk4_oracle,
    time_grid,
    verify_bounds,
)
from hypodecay.rate_family import FamilyBound, lower_bound_constant, upper_bound_constant
from .conftest import make_stable_system


class TestExactSolution:
    def test_diagonal_system(self):
        data = eigendecompose(np.diag([1.0, 2.0]))
        ts = np.array([0.0, 0.5, 1.0])
        sol = exact_solution(data, [1.0, 1.0], ts)
        expected = np.stack([np.exp(-ts), np.exp(-2 * ts)], axis=1)
        assert np.allclose(sol, expected, rtol=1e-14)

    def test_initial_condition(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        f0 = np.array([0.3, -0.7 + 0.2j])
        sol = exact_solution(data, f0, [0.0])
        assert np.allclose(sol[0], f0, atol=1e-14)

    def test_satisfies_ode(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        f0 = np.array([1.0, 1.0j]) / np.sqrt(2)
        h = 1e-6
        t = 0.8
        sol = exact_solution(data, f0, [t - h, t, t + h])
        deriv = (sol[2] - sol[0]) / (2 * h)
        assert np.allclose(deriv, -mat_complex_pair @ sol[1], atol=1e-8)

    def test_columns_match_single_vector_calls(self):
        rng = np.random.default_rng(31)
        data = eigendecompose(make_stable_system(rng, 3))
        f0s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        ts = np.linspace(0.0, 3.0, 7)
        out = exact_solution(data, f0s, ts)
        assert out.shape == (7, 3, 4)
        for j in range(4):
            assert np.allclose(out[:, :, j], exact_solution(data, f0s[:, j], ts),
                               rtol=1e-14, atol=0.0)

    def test_one_vector_is_one_column(self):
        rng = np.random.default_rng(32)
        data = eigendecompose(make_stable_system(rng, 3))
        f0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        ts = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(exact_solution(data, f0, ts),
                              exact_solution(data, f0[:, None], ts)[:, :, 0])

    @pytest.mark.parametrize("f0, ts", [(np.ones(3), []), (np.eye(3), []),
                                        (np.ones((3, 0)), [0.0, 1.0])],
                             ids=["vector-no-times", "columns-no-times", "no-columns"])
    def test_empty_times_or_columns_keep_the_shape(self, f0, ts):
        data = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        assert exact_solution(data, f0, ts).shape == (len(ts),) + f0.shape


def _propagator(data, t):
    """e^{-Ct} from exact_solution with the identity as initial columns."""
    return exact_solution(data, np.eye(data.n), [t])[0]


class TestPropagatorMatrix:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            c = make_stable_system(rng, 3)
            data = eigendecompose(c)
            for t in (0.0, 0.3, 2.0):
                assert np.allclose(_propagator(data, t), expm(-t * c),
                                   atol=1e-11)

    def test_semigroup(self, mat_real_distinct):
        data = eigendecompose(mat_real_distinct)
        g1 = _propagator(data, 0.7)
        g2 = _propagator(data, 1.1)
        assert np.allclose(g1 @ g2, _propagator(data, 1.8), atol=1e-13)


class TestRK4Oracle:
    def test_against_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c = make_stable_system(rng, 3)
            data = eigendecompose(c)
            f0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            f0 /= np.linalg.norm(f0)
            ts = np.linspace(0.0, 4.0, 9)
            a = exact_solution(data, f0, ts)
            b = rk4_oracle(c, f0, ts, dt=1e-3)
            rel = np.linalg.norm(a - b, axis=1) / np.linalg.norm(a, axis=1)
            assert rel.max() < 1e-9

    def test_columns_match_single_vector_calls(self):
        rng = np.random.default_rng(31)
        c = make_stable_system(rng, 3)
        f0s = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        ts = np.linspace(0.0, 3.0, 7)
        out = rk4_oracle(c, f0s, ts, dt=1e-3)
        assert out.shape == (7, 3, 4)
        for j in range(4):
            assert np.allclose(out[:, :, j], rk4_oracle(c, f0s[:, j], ts, dt=1e-3),
                               rtol=1e-14, atol=0.0)

    def test_identity_columns_give_the_propagator(self):
        c = np.array([[1.0, -1.0], [1.0, 0.0]])
        out = rk4_oracle(c, np.eye(2), [0.0, 0.7, 2.0], dt=1e-3)
        for t, p in zip([0.0, 0.7, 2.0], out):
            assert np.allclose(p, expm(-t * c), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("f0", [[1.0, 0.0, 0.0], np.ones((2, 2, 2)), np.ones((2, 2))])
    def test_rejects_mismatched_initial_data(self, f0):
        # both routes share one shape contract; (2, 2) has n = 4 entries
        # but is neither (4,) nor (4, k)
        with pytest.raises(ValueError, match="f0 must have shape"):
            rk4_oracle(np.eye(4), f0, [1.0])
        with pytest.raises(ValueError, match="f0 must have shape"):
            exact_solution(eigendecompose(np.eye(4)), f0, [1.0])

    def test_requires_sorted_times(self):
        with pytest.raises(ValueError):
            rk4_oracle(np.eye(2), [1.0, 0.0], [1.0, 0.5])

    def test_requires_a_time(self):
        with pytest.raises(ValueError, match="need at least one non-negative time"):
            rk4_oracle(np.eye(2), [1.0, 0.0], [])

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.inf]])
    def test_requires_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            rk4_oracle(np.eye(2), [1.0, 0.0], times)

    def test_requires_positive_step(self):
        # a negative step would raise the step matrix to a negative power,
        # integrating backwards instead of failing
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError):
                rk4_oracle(np.eye(2), [1.0, 0.0], [0.5, 1.0], dt=dt)

    def test_matches_a_loop_over_the_intervals_bit_for_bit(self):
        # uneven gaps, some with the same number of full steps and some not:
        # each interval powered on its own, from the end of the one before
        rng = np.random.default_rng(8)
        c = make_stable_system(rng, 3)
        f0 = np.eye(3) + 1j * rng.normal(size=(3, 3))
        ts = np.array([0.0, 0.0004, 0.05, 0.05, 0.3, 0.3507, 1.0, 1.0451, 2.2, 2.2453])
        x, loop = f0, []
        for gap in np.diff(ts, prepend=0.0):
            x = rk4_oracle(c, x, [gap], dt=1e-2)[0]
            loop.append(x)
        assert rk4_oracle(c, f0, ts, dt=1e-2).tobytes() == np.array(loop).tobytes()

    def test_lands_exactly_on_requested_times(self):
        # steps are shortened at the end, not rounded, so sample times that
        # are not multiples of dt still come out right
        c = np.array([[0.9]])
        ts = np.array([0.0, 0.123456, 1.0101])
        out = rk4_oracle(c, [1.0], ts, dt=1e-3)
        assert np.allclose(out[:, 0], np.exp(-0.9 * ts), rtol=1e-12)


class TestVerifyBounds:
    def test_upper_bound_pass_and_fail(self):
        ts = np.linspace(0.0, 5.0, 50)
        norms = np.exp(-0.5 * ts)
        good = FamilyBound(rate=0.4, constant=1.0, direction="upper",
                           beta0=0.0, beta_tilde=0.0, kappa=1.0)
        bad = FamilyBound(rate=0.6, constant=1.0, direction="upper",
                          beta0=0.0, beta_tilde=0.0, kappa=1.0)
        assert verify_bounds(ts, norms, [good]).passed
        check = verify_bounds(ts, norms, [bad])
        assert not check.passed
        assert check.worst > 0.1

    def test_lower_bound(self):
        ts = np.linspace(0.0, 5.0, 50)
        norms = np.exp(-0.5 * ts)
        good = FamilyBound(rate=0.6, constant=1.0, direction="lower",
                           beta0=0.0, beta_tilde=0.0, kappa=1.0)
        assert verify_bounds(ts, norms, [good]).passed

    def test_norm0_scaling(self):
        ts = np.linspace(0.0, 2.0, 10)
        norms = 5.0 * np.exp(-0.3 * ts)
        fb = FamilyBound(rate=0.3, constant=1.0, direction="upper",
                         beta0=0.0, beta_tilde=0.0, kappa=1.0)
        assert verify_bounds(ts, norms, [fb], norm0=5.0).passed

    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError, match="at least one sampled norm"):
            verify_bounds([], [], [])

    @pytest.mark.filterwarnings("error")
    def test_upper_bound_holds_where_norm_and_bound_underflow(self):
        # e^{-1.5 t} underflows to 0 long before t = 1000, on both sides
        data = eigendecompose(np.array([[1.0, 3.0], [-1.0, 2.0]]))
        form = canonical_2d_form(data)
        ts = np.linspace(0.0, 1000.0, 50)
        norms = np.linalg.norm(exact_solution(data, [1.0, 0.0], ts), axis=1)
        assert norms[-1] == 0.0
        check = verify_bounds(ts, norms, [upper_bound_constant(form, form.mu)])
        assert check.passed
        assert np.all(np.isfinite(check.violations))


    @pytest.mark.filterwarnings("error")
    def test_lower_bound_holds_where_only_the_norm_underflows(self):
        # |f(t)| ~ 1e-162 at t = 248.5 is representable, but np.linalg.norm
        # squares the entries and returns 0; the bound 0.53 e^{-1.5 t} is not 0
        data = eigendecompose(np.array([[1.0, 3.0], [-1.0, 2.0]]))
        form = canonical_2d_form(data)
        ts = np.linspace(0.0, 500.0, 2001)
        norms = np.linalg.norm(exact_solution(data, [1.0, 0.0], ts), axis=1)
        assert norms[ts == 248.5] == 0.0
        check = verify_bounds(ts, norms, [lower_bound_constant(form, form.nu)])
        assert check.passed
        assert np.all(np.isfinite(check.violations))


class TestTimeGrid:
    def test_contains_inserts_and_endpoints(self):
        ts = time_grid(10.0, n=100, insert=(np.pi,))
        assert ts[0] == 0.0
        assert ts[-1] == 10.0
        assert np.pi in ts
        assert np.all(np.diff(ts) > 0)

    def test_resolves_early_times(self):
        ts = time_grid(100.0, n=400)
        assert ts[ts > 0].min() < 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_max", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_t_max_outside_positive_reals(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            time_grid(t_max, 5)
