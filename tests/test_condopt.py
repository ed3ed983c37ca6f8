import numpy as np
import pytest

from hypodecay import condopt
from hypodecay import (
    DefectiveInput,
    LyapunovMatrix,
    NotAdmissible,
    build_weighted_p,
    canonical_2d_form,
    eigendecompose,
    lyapunov_residual,
    minimize_kappa_2d,
    minimize_kappa_admissible,
    minimize_kappa_weights,
)
from .conftest import make_2x2_with_overlap


def build_kappa(w, b):
    ev = np.linalg.eigvalsh((w * b) @ w.conj().T)
    return ev[-1] / ev[0]


class TestMinimizeKappa2D:
    def test_equal_weights_and_closed_form(self, form_complex_pair):
        opt = minimize_kappa_2d(form_complex_pair)
        assert np.allclose(opt.weights, [1.0, 1.0])
        alpha = form_complex_pair.alpha
        assert opt.kappa == pytest.approx((1 + alpha) / (1 - alpha), rel=1e-12)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(21)
        c, _, _ = make_2x2_with_overlap(rng)
        data = eigendecompose(c)
        form = canonical_2d_form(data)
        opt = minimize_kappa_2d(form)
        grid = [build_weighted_p(data, [1.0, b]).kappa
                for b in np.logspace(-2, 2, 4001)]
        assert min(grid) >= opt.kappa * (1 - 1e-9)


class TestMinimizeKappaWeights:
    def test_triangular_three_dim(self, triangular_w):
        opt = minimize_kappa_weights(triangular_w)
        assert opt.kappa_equal == pytest.approx(15.128258765033248, rel=1e-10)
        assert opt.kappa == pytest.approx(13.928203230275516, rel=1e-8)
        scaled = opt.weights / opt.weights[0] * 2.0
        assert np.allclose(scaled, [2.0, 4.0, 3.0], rtol=1e-4)

    def test_never_worse_than_equal_weights(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            w = np.linalg.qr(rng.normal(size=(3, 3)))[0] + 0.3 * rng.normal(size=(3, 3))
            w /= np.linalg.norm(w, axis=0)
            opt = minimize_kappa_weights(w)
            # kappa_equal is the search's first point, and the search keeps its best
            assert opt.kappa <= opt.kappa_equal

    def test_converged_on_triangular_three_dim(self, triangular_w):
        opt = minimize_kappa_weights(triangular_w)
        assert opt.converged
        assert opt.nfev > 0

    def test_local_optimality(self):
        # no nearby weights, in any of several random directions, do better
        rng = np.random.default_rng(31)
        for n in (3, 4, 5, 6, 7, 8, 3, 5, 8, 6):
            w = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                 + 0.4 * rng.normal(size=(n, n)))
            w /= np.linalg.norm(w, axis=0)
            opt = minimize_kappa_weights(w)
            for _ in range(5):
                z = rng.normal(size=n)
                for eps in (1e-3, 1e-1):
                    b = opt.weights * np.exp(eps * z)
                    assert build_kappa(w, b) >= opt.kappa * (1 - 1e-10)

    def test_seeded_three_dim_converges(self):
        # perfbench's seeded_nd(default_rng(1000), 3, 0), built inline: a line
        # search that also demands a curvature condition fails here at the
        # rounding floor and leaves a stage unconverged
        rng = np.random.default_rng(1000)
        lam = np.sort(rng.uniform(0.2, 1.5, size=3)) + 1j * rng.uniform(-2.0, 2.0, size=3)
        noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        v = q @ (np.eye(3) + 0.6 * noise / np.linalg.norm(noise, 2))
        v /= np.linalg.norm(v, axis=0)
        opt = minimize_kappa_weights(eigendecompose((v * lam) @ np.linalg.inv(v)).left_vectors)
        assert opt.converged
        assert opt.kappa == pytest.approx(3.42784217441905, rel=1e-10)

    def test_unfinished_stage_is_reported(self, triangular_w, monkeypatch):
        monkeypatch.setattr(condopt, "STAGE_MAXITER", 1)
        opt = minimize_kappa_weights(triangular_w)
        assert not opt.converged
        assert opt.kappa <= opt.kappa_equal

    def test_dependent_vectors_are_defective(self):
        # no weights make W diag(b) W* positive definite
        w = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DefectiveInput, match="numerically dependent"):
            minimize_kappa_weights(w)

    def test_one_dimension(self):
        opt = minimize_kappa_weights([[2.0 + 1.0j]])
        assert (opt.kappa, opt.kappa_equal, opt.weights.tolist()) == (1.0, 1.0, [1.0])

    def test_orthonormal_basis_gives_identity(self):
        q = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))[0]
        opt = minimize_kappa_weights(q)
        assert opt.kappa == pytest.approx(1.0, abs=1e-9)
        assert opt.kappa_equal == pytest.approx(1.0, abs=1e-12)


class TestMinimizeKappaAdmissible:
    def test_two_dim_reaches_rate_family_optimum(self, mat_complex_pair):
        # at the spectral gap the best admissible conditioning is
        # (1 + alpha)/(1 - alpha) = 3 for this system
        data = eigendecompose(mat_complex_pair)
        seed_p = build_weighted_p(data, [1.0, 1.0])
        res = minimize_kappa_admissible(mat_complex_pair, 0.5, seed_p)
        assert res.residual >= -1e-10
        assert res.kappa <= 3.0 + 1e-5

    def test_seed_feasibility_is_kept(self):
        # optimizing from a feasible seed never returns an infeasible point
        c = np.diag([1.0, 2.0, 3.0])
        seed_p = LyapunovMatrix(np.diag([1.0, 2.0, 3.0]))
        res = minimize_kappa_admissible(c, 1.0, seed_p)
        assert res.residual >= -1e-10
        assert res.kappa <= seed_p.kappa + 1e-12
        assert lyapunov_residual(c, res.P, 1.0) == pytest.approx(res.residual)

    def test_triangular_reaches_exact_optimum(self, mat_triangular, triangular_w):
        # the best P admissible at the spectral gap has kappa 3 + 2 sqrt(2),
        # exactly admissible: no slack below zero beyond rounding
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        res = minimize_kappa_admissible(mat_triangular, 1.0, seed_p)
        assert abs(res.kappa - (3.0 + 2.0 * np.sqrt(2.0))) <= 1e-9
        scale = np.linalg.norm(mat_triangular, 2) * res.P.lambda_max
        assert res.residual >= -1e-12 * scale
        assert res.converged

    def test_complex_spectrum_beats_weighted_family(self):
        # every weighted P is admissible at the spectral gap, so the search
        # over all admissible P must end at or below the best weights
        rng = np.random.default_rng(12)
        for n in (3, 4, 5):
            lam = np.sort(rng.uniform(0.2, 1.5, n)) + 1j * rng.uniform(-2.0, 2.0, n)
            v = np.eye(n) + 0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
            c = (v * lam) @ np.linalg.inv(v)
            data = eigendecompose(c)
            weights = minimize_kappa_weights(data.left_vectors)
            seed_p = build_weighted_p(data, np.ones(n))
            res = minimize_kappa_admissible(c, data.spectral_gap, seed_p)
            assert res.converged
            assert res.kappa <= weights.kappa * (1 + 1e-9)
            assert res.residual >= -1e-12 * np.linalg.norm(c, 2) * res.P.lambda_max

    def test_rejects_defective_matrix(self):
        # I is admissible at rate 1/2, but a Jordan block has no eigenbasis
        with pytest.raises(DefectiveInput):
            minimize_kappa_admissible(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5,
                                      LyapunovMatrix(np.eye(2)))

    def test_rejects_inadmissible_seed(self):
        c = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(NotAdmissible):
            minimize_kappa_admissible(c, 1.5, LyapunovMatrix(np.eye(3)))


def _lbfgsb_stage(fun, x, gtol, maxiter, H):
    """One continuation stage run by SciPy's L-BFGS-B: the reference for the
    package's own BFGS core, same signature as condopt._bfgs. It carries no
    curvature from stage to stage."""
    from scipy.optimize import minimize

    res = minimize(fun, x, jac=True, method="L-BFGS-B",
                   options=dict(gtol=gtol, ftol=0.0, maxiter=maxiter))
    return res.x, int(res.nfev), bool(res.success), None


def _seeded_weights(rng, n):
    """Unit adjoint eigenvectors of a basis V = Q (I + 0.6 N / |N|), cond <= 16."""
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = np.linalg.inv(q @ (np.eye(n) + 0.6 * noise / np.linalg.norm(noise, 2))).conj().T
    return w / np.linalg.norm(w, axis=0)


class TestLbfgsCore:
    def test_weight_searches_match_lbfgsb(self, monkeypatch):
        rng = np.random.default_rng(0)
        for n in range(3, 17):
            w = _seeded_weights(rng, n)
            ours = minimize_kappa_weights(w)
            with monkeypatch.context() as m:
                m.setattr(condopt, "_bfgs", _lbfgsb_stage)
                ref = minimize_kappa_weights(w)
                # L-BFGS-B from our weights (scaled into w, so they are the
                # equal-weight start) at the last tau, with no gradient stop
                m.setattr(condopt, "TAUS", condopt.TAUS[-1:])
                m.setattr(condopt, "GTOL_SCALE", 0.0)
                polished = minimize_kappa_weights(w * np.sqrt(ours.weights))
            assert ours.converged, n
            assert ours.kappa <= ref.kappa * (1 + 1e-10), n
            assert polished.kappa >= ours.kappa * (1 - 1e-10), n

    def test_a_stage_start_reuses_the_last_eigh(self, monkeypatch, mat_triangular, triangular_w):
        # every later stage starts on the last evaluation of the one before
        # (no stage here ends on a failed line search): the start re-smooths
        # that point's eigh at the new tau, and still counts as an evaluation
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(condopt.np.linalg, "eigh", lambda P: calls.append(P) or eigh(P))
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        # the admissible search factors its seed with one eigh of its own
        for search, own in ((lambda: minimize_kappa_weights(triangular_w), 0),
                            (lambda: minimize_kappa_admissible(mat_triangular, 1.0, seed_p), 1)):
            calls.clear()
            found = search()
            assert found.converged
            assert len(calls) == found.nfev - (len(condopt.TAUS) - 1) + own

    def test_admissible_search_matches_lbfgsb(self, monkeypatch, mat_triangular, triangular_w):
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        ours = minimize_kappa_admissible(mat_triangular, 1.0, seed_p)
        monkeypatch.setattr(condopt, "_bfgs", _lbfgsb_stage)
        ref = minimize_kappa_admissible(mat_triangular, 1.0, seed_p)
        assert ours.converged
        assert ours.kappa == pytest.approx(ref.kappa, rel=1e-10)

    def test_update_meets_the_secant_equation(self):
        # one iteration on a convex quadratic from a dense positive definite H
        rng = np.random.default_rng(4)
        dim = 12
        a = rng.normal(size=(dim, dim))
        a = a @ a.T + np.eye(dim)
        h = rng.normal(size=(dim, dim))
        h = h @ h.T / dim + 0.1 * np.eye(dim)

        def fun(x):
            return 0.5 * float(x @ a @ x), a @ x

        x0 = rng.normal(size=dim)
        for h0 in (None, h):
            x1, _, _, h1 = condopt._bfgs(fun, x0, 0.0, 1, None if h0 is None else h0.copy())
            s, y = x1 - x0, a @ (x1 - x0)
            assert s @ y > 0.0
            assert np.allclose(h1 @ y, s, rtol=0.0, atol=1e-12 * np.abs(s).max())
            assert np.allclose(h1, h1.T, rtol=0.0, atol=1e-15 * np.abs(h1).max())
            assert np.linalg.eigvalsh(h1)[0] > 0.0

    @staticmethod
    def _trials(fun, x0, step):
        """The steps _backtrack tries along -g from x0, and its result."""
        f0, g0 = fun(x0)
        d = -g0
        steps = []

        def traced(x):
            steps.append(float((x - x0)[0] / d[0]))
            return fun(x)

        return steps, condopt._backtrack(traced, x0, f0, g0, d, step)

    def test_quadratic_second_trial_is_the_minimizer(self):
        # the cubic through a quadratic's data is the quadratic itself
        def fun(x):
            return float(x @ x), 2.0 * x

        steps, found = self._trials(fun, np.array([1.0, -2.0, 0.5]), 3.0)
        assert len(steps) == 2
        assert steps[1] == pytest.approx(0.5, rel=1e-14)
        assert np.abs(found[0]).max() <= 1e-15

    def test_small_cubic_minimizer_is_clipped(self):
        # from step 20 the cubic's minimizer is 0.5, below 0.1 of the step
        def fun(x):
            return float(x @ x), 2.0 * x

        steps, found = self._trials(fun, np.array([1.0]), 20.0)
        assert steps[:2] == [20.0, 2.0]
        assert found is not None

    def test_infinite_trial_halves_the_step(self):
        def fun(x):
            return (float(x @ x), 2.0 * x) if np.abs(x).max() < 5.0 else (np.inf, np.zeros_like(x))

        steps, found = self._trials(fun, np.array([1.0]), 20.0)
        assert steps[:3] == [20.0, 10.0, 5.0]
        assert found is not None

    def test_failed_search_along_h_retries_along_gradient(self):
        # a planted H = -I points uphill; the stage drops it and goes on along -g
        def fun(x):
            return float(x @ x), 2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        x, nfev, converged, h = condopt._bfgs(fun, x0, 1e-8, 100, -np.eye(3))
        assert converged
        assert np.abs(x).max() <= 1e-8
        assert nfev > 1 + condopt.LINESEARCH_MAXEV // 2
        assert h is None or np.linalg.eigvalsh(h)[0] > 0.0

    def test_failed_line_search_ends_the_stage_unconverged(self):
        # the gradient contradicts the objective: every step along -g climbs
        def fun(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        x, nfev, converged, h = condopt._bfgs(fun, x0, 1e-8, 100, None)
        assert not converged
        assert h is None
        assert np.array_equal(x, x0)
        assert 1 < nfev <= 1 + condopt.LINESEARCH_MAXEV

        found = condopt._minimize_log_cond(lambda x: lambda tau: (*fun(x), 2.0), x0)
        assert not found.converged
        assert found.kappa == 2.0
