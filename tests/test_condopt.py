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
            assert opt.kappa <= opt.kappa_equal * (1 + 1e-9)

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

    def test_unfinished_stage_is_reported(self, triangular_w, monkeypatch):
        monkeypatch.setattr(condopt, "STAGE_MAXITER", 1)
        opt = minimize_kappa_weights(triangular_w)
        assert not opt.converged
        assert opt.kappa <= opt.kappa_equal

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


def _lbfgsb_stage(fun, x, gtol, maxiter):
    """One continuation stage run by SciPy's L-BFGS-B: the reference for the
    package's own L-BFGS core, same signature as condopt._lbfgs."""
    from scipy.optimize import minimize

    res = minimize(fun, x, jac=True, method="L-BFGS-B",
                   options=dict(gtol=gtol, ftol=0.0, maxiter=maxiter))
    return res.x, int(res.nfev), bool(res.success)


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
                m.setattr(condopt, "_lbfgs", _lbfgsb_stage)
                ref = minimize_kappa_weights(w)
            assert ours.converged, n
            assert ours.kappa == pytest.approx(ref.kappa, rel=1e-10), n

    def test_admissible_search_matches_lbfgsb(self, monkeypatch, mat_triangular, triangular_w):
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        ours = minimize_kappa_admissible(mat_triangular, 1.0, seed_p)
        monkeypatch.setattr(condopt, "_lbfgs", _lbfgsb_stage)
        ref = minimize_kappa_admissible(mat_triangular, 1.0, seed_p)
        assert ours.converged
        assert ours.kappa == pytest.approx(ref.kappa, rel=1e-10)

    def test_two_loop_matches_vector_recursion(self):
        # Nocedal & Wright, Algorithm 7.4, one vector update at a time
        rng = np.random.default_rng(4)
        dim = 12
        a = rng.normal(size=(dim, dim))
        a = a @ a.T + np.eye(dim)
        S = [rng.normal(size=dim) for _ in range(condopt.LBFGS_MEMORY)]
        Y = [a @ s for s in S]
        g = rng.normal(size=dim)
        for k in (1, 4, len(S)):
            q, alphas = g.copy(), []
            for s, y in zip(S[-k:][::-1], Y[-k:][::-1]):
                alphas.append((s @ q) / (s @ y))
                q -= alphas[-1] * y
            q *= (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
            for s, y, alpha in zip(S[-k:], Y[-k:], alphas[::-1]):
                q += (alpha - (y @ q) / (s @ y)) * s
            assert np.allclose(condopt._two_loop(S[-k:], Y[-k:], g), -q, rtol=1e-12, atol=0.0)

    def test_failed_line_search_ends_the_stage_unconverged(self):
        # the gradient contradicts the objective: every step along -g climbs
        def fun(x):
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        x, nfev, converged = condopt._lbfgs(fun, x0, 1e-8, 100)
        assert not converged
        assert np.array_equal(x, x0)
        assert 1 < nfev <= 1 + condopt.LINESEARCH_MAXEV

        found = condopt._minimize_log_cond(lambda x, tau: (*fun(x), 2.0), x0)
        assert not found.converged
        assert found.kappa == 2.0
