import math

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
from . import families


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
        c, _, _ = families.make_2x2_with_overlap(rng)
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
            w = families.orthogonal(rng, 3) + 0.3 * rng.normal(size=(3, 3))
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
            w = families.unitary(rng, n) + 0.4 * rng.normal(size=(n, n))
            w /= np.linalg.norm(w, axis=0)
            opt = minimize_kappa_weights(w)
            for _ in range(5):
                z = rng.normal(size=n)
                for eps in (1e-3, 1e-1):
                    b = opt.weights * np.exp(eps * z)
                    assert build_kappa(w, b) >= opt.kappa * (1 - 1e-10)

    def test_seeded_three_dim_converges(self):
        # perfbench's seeded_nd(default_rng(1000), 3, 0): a line search that
        # also demands a curvature condition fails here at the rounding floor
        # and leaves a stage unconverged
        c = families.seeded_nd(np.random.default_rng(1000), 3)
        opt = minimize_kappa_weights(eigendecompose(c).left_vectors)
        assert opt.converged
        assert opt.kappa == pytest.approx(3.42784217441905, rel=1e-10)

    def test_unfinished_stage_is_reported(self, triangular_w, monkeypatch):
        monkeypatch.setattr(condopt, "STAGE_MAXITER", 1)
        opt = minimize_kappa_weights(triangular_w)
        assert not opt.converged
        assert opt.kappa <= opt.kappa_equal

    def test_dependent_vectors_are_defective(self):
        # no weights make W diag(b) W* positive definite, at n = 1 as at
        # n = 3 (the square of 1e-320 underflows to zero)
        for w in ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [[0.0]], [[1e-320]]):
            with pytest.raises(DefectiveInput, match="numerically dependent"):
                minimize_kappa_weights(w)

    def test_one_dimension(self):
        opt = minimize_kappa_weights([[2.0 + 1.0j]])
        assert (opt.kappa, opt.kappa_equal, opt.weights.tolist()) == (1.0, 1.0, [1.0])

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_gram_gradient_matches_central_difference(self, n, monkeypatch):
        # the search's gradient in all n log-weights against a central
        # difference of the smoothed objective of its own P, at tau = 1e-3
        rng = np.random.default_rng(n)
        w = _seeded_weights(rng, n)
        found, core = {}, condopt._minimize_log_cond

        def captured(P_of, gradient, x0):
            found.update(P_of=P_of, gradient=gradient)
            return core(P_of, gradient, x0)

        monkeypatch.setattr(condopt, "_minimize_log_cond", captured)
        minimize_kappa_weights(w)
        P_of, tau = found["P_of"], 1e-3

        def smoothed(x):
            return condopt._smoothed(np.linalg.eigvalsh(P_of(x)), tau)[0]

        x, h = 0.3 * rng.normal(size=n), 1e-5
        lam, U = np.linalg.eigh(P_of(x))
        grad = found["gradient"](x, lam, U, condopt._smoothed(lam, tau)[1])
        central = [(smoothed(x + h * e) - smoothed(x - h * e)) / (2 * h) for e in np.eye(n)]
        assert np.allclose(grad, central, rtol=0.0, atol=1e-8 * np.abs(grad).max())
        # kappa is invariant along the all-ones direction
        assert abs(grad.sum()) <= 1e-12 * np.abs(grad).max()

    def test_smoothed_log_kappa_is_convex_in_the_log_weights(self):
        # tau log sum lam_i^(1/tau) is the log of a Schatten norm of
        # P(x) = sum e^{x_j} w_j w_j*, a sup of log-sum-exps of x, and the
        # lambda_min part is the same of P(x)^-1 = sum e^{-x_j} v_j v_j*: every
        # stage, and log kappa, is convex along any segment of the log-weights
        rng = np.random.default_rng(9)
        stages = [*(lambda lam, tau=tau: condopt._smoothed(lam, tau)[0] for tau in condopt.TAUS),
                  lambda lam: math.log(lam[-1] / lam[0])]
        for n in rng.integers(2, 9, size=300).tolist():
            w = _seeded_weights(rng, n)
            x, y = rng.normal(size=(2, n))
            lam = [np.linalg.eigvalsh((w * np.exp(z)) @ w.conj().T) for z in (x, y, (x + y) / 2)]
            for F in stages:
                fx, fy, mid = map(F, lam)
                assert mid <= (fx + fy) / 2 + 1e-12 * max(abs(fx), abs(fy)), n

    def test_kappa_ignores_phases_and_order_of_the_vectors(self):
        # W -> W D Pi with D unit phases and Pi a permutation leaves the
        # weighted family, and so the best kappa, unchanged. The search pins no
        # weight, so a permutation, whether it moves column 0 or not, runs it
        # in the same coordinates, permuted
        rng = np.random.default_rng(0)
        for n in (3, 8, 16):
            for _ in range(3):
                w = _seeded_weights(rng, n)
                kappa = minimize_kappa_weights(w).kappa
                phases = np.exp(2j * np.pi * rng.uniform(size=n))
                fixed = np.concatenate([[0], 1 + rng.permutation(n - 1)])
                moved = rng.permutation(n)
                for same in (w * phases, w[:, fixed], (w * phases)[:, fixed], w[:, moved]):
                    assert minimize_kappa_weights(same).kappa == pytest.approx(kappa, rel=1e-12), n

    def test_orthonormal_basis_gives_identity(self):
        q = families.orthogonal(np.random.default_rng(2), 4)
        opt = minimize_kappa_weights(q)
        assert opt.kappa == pytest.approx(1.0, abs=1e-9)
        assert opt.kappa_equal == pytest.approx(1.0, abs=1e-12)


def _nice_rescale_loop(b, rtol=1e-3, max_factor=12):
    """The reference: condopt._nice_rescale one integer scale at a time."""
    for q in range(1, max_factor + 1):
        cand = b * q
        if np.all(np.abs(cand - np.round(cand)) <= rtol * np.maximum(1.0, cand)):
            return cand
    return b


class TestNiceRescale:
    def test_matches_the_loop_bit_for_bit(self):
        # random weights, which rarely rescale, and near-rational ones, which
        # often do at some q <= 12 (or at a q just beyond it, or not at all)
        rng = np.random.default_rng(5)
        rescaled = 0
        for k in range(2000):
            n = int(rng.integers(2, 17))
            if k % 2:
                b = np.exp(rng.normal(size=n))
            else:
                b = rng.integers(1, 30, size=n) / rng.integers(1, 14)
                b *= 1.0 + rng.choice([0.0, 1e-5, 1e-3, 5e-3]) * rng.normal(size=n)
            want = _nice_rescale_loop(b)
            rescaled += want is not b
            assert condopt._nice_rescale(b).tobytes() == want.tobytes(), b
        assert 200 < rescaled < 1800

    def test_no_overflow_warning_at_huge_weights(self):
        # q = 1 already matches; the larger scales overflow unseen
        b = np.array([1.0, 1e308])
        with np.errstate(all="raise"):
            assert condopt._nice_rescale(b).tolist() == [1.0, 1e308]


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
            v = np.eye(n) + 0.5 * families.gaussian(rng, n) / n
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
    curvature from stage to stage; the core counts its evaluations."""
    from scipy.optimize import minimize

    res = minimize(fun, x, jac=True, method="L-BFGS-B",
                   options=dict(gtol=gtol, ftol=0.0, maxiter=maxiter))
    return res.x, bool(res.success), None


def _seeded_weights(rng, n):
    """Unit adjoint eigenvectors of a basis families.basis(rng, n), cond <= 16."""
    w = np.linalg.inv(families.basis(rng, n)).conj().T
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

    def test_a_stage_start_reuses_the_last_eigh(self, monkeypatch, stages, mat_triangular,
                                                 triangular_w):
        # only the first stage moves here, so no stage starts on a secant
        # prediction, and every later stage that runs starts on the last
        # evaluation of the one before (no stage here ends on a failed line
        # search): the start re-smooths that point's eigh at the new tau, and
        # still counts as an evaluation
        starts, _ = stages
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(condopt.np.linalg, "eigh", lambda P: calls.append(P) or eigh(P))
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        # the admissible search factors its seed with one eigh of its own
        for search, own in ((lambda: minimize_kappa_weights(triangular_w), 0),
                            (lambda: minimize_kappa_admissible(mat_triangular, 1.0, seed_p), 1)):
            del starts[:], calls[:]
            found = search()
            assert found.converged
            assert len(calls) == found.nfev - (len(starts) - 1) + own

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
            x1, _, h1 = condopt._bfgs(fun, x0, 0.0, 1, None if h0 is None else h0.copy())
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
        points = []

        def fun(x):
            points.append(x)
            return float(x @ x), 2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        x, converged, h = condopt._bfgs(fun, x0, 1e-8, 100, -np.eye(3))
        assert converged
        assert np.abs(x).max() <= 1e-8
        assert len(points) > 1 + condopt.LINESEARCH_MAXEV // 2
        assert h is None or np.linalg.eigvalsh(h)[0] > 0.0

    def test_failed_line_search_ends_the_stage_unconverged(self):
        # the gradient contradicts the objective: every step along -g climbs
        points = []

        def fun(x):
            points.append(x)
            return float(x @ x), -2.0 * x

        x0 = np.array([1.0, -2.0, 0.5])
        x, converged, h = condopt._bfgs(fun, x0, 1e-8, 100, None)
        assert not converged
        assert h is None
        assert np.array_equal(x, x0)
        assert 1 < len(points) <= 1 + condopt.LINESEARCH_MAXEV

        # a fixed P of kappa 2 makes the smoothed objective flat, so the
        # nonzero gradient contradicts it the same way
        _, kappa, _, _, converged = condopt._minimize_log_cond(
            lambda x: np.diag([1.0, 2.0]), lambda x, lam, U, g: -2.0 * x, x0)
        assert not converged
        assert kappa == 2.0

    def test_a_point_outside_the_domain_clears_converged(self):
        # an indefinite P has no smoothed objective: its zero gradient ends
        # every stage at once, and only the edge of the domain says so
        x, kappa, kappa_at_x0, nfev, converged = condopt._minimize_log_cond(
            lambda x: np.diag([-1.0, 1.0]), lambda x, lam, U, g: x, np.zeros(1))
        assert not converged
        assert kappa == kappa_at_x0 == np.inf
        assert nfev == len(condopt.TAUS)


def _secant(ends, k):
    """The core's secant prediction for stage k from the ends of stages k - 2
    and k - 1, in the core's own arithmetic."""
    x1, x2, taus = ends[k - 2], ends[k - 1], condopt.TAUS
    return x2 + (x2 - x1) * ((taus[k] - taus[k - 1]) / (taus[k - 1] - taus[k - 2]))


@pytest.fixture
def stages(monkeypatch):
    """(starts, ends): the point each _bfgs call starts on and ends on."""
    starts, ends, bfgs = [], [], condopt._bfgs

    def recorded(fun, x, gtol, maxiter, H):
        starts.append(x)
        found = bfgs(fun, x, gtol, maxiter, H)
        ends.append(found[0])
        return found

    monkeypatch.setattr(condopt, "_bfgs", recorded)
    return starts, ends


class TestSecantPredictor:
    def test_a_stage_after_two_moves_starts_on_the_secant(self, monkeypatch, stages):
        # each stage from the third on starts on the secant through the ends
        # of the two before it when both moved, and on the last end when not;
        # a kept prediction's eigh is its stage's first evaluation, so eigh
        # runs once per evaluation except at the starts on a last end. Every
        # stage runs, unless the smoothing turned exact: then the ladder ends
        # after that stage
        starts, ends = stages
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(condopt.np.linalg, "eigh", lambda P: calls.append(P) or eigh(P))
        exact, exits = condopt._smoothing_is_exact, []

        def recorded(lam, tau):
            fired = exact(lam, tau)
            if fired:
                exits.append(len(starts))
            return fired

        monkeypatch.setattr(condopt, "_smoothing_is_exact", recorded)
        rng = np.random.default_rng(0)
        predicted = 0
        for n in range(3, 17):
            del starts[:], ends[:], calls[:], exits[:]
            found = minimize_kappa_weights(_seeded_weights(rng, n))
            assert found.converged
            assert len(exits) <= 1
            assert len(starts) == (exits[0] if exits else len(condopt.TAUS)), n
            reused = 0
            for k in range(1, len(starts)):
                if k == 1 or ends[k - 1] is ends[k - 2]:
                    assert starts[k] is ends[k - 1], (n, k)
                    reused += 1
                else:
                    assert np.array_equal(starts[k], _secant(ends, k)), (n, k)
                    predicted += 1
            assert len(calls) == found.nfev - reused, n
        assert predicted >= 3

    def test_an_indefinite_prediction_starts_the_stage_on_the_last_end(
            self, monkeypatch, stages):
        # P_of turned negative definite at each secant point: every prediction
        # is dropped, the stage starts on the last end, and converged holds
        starts, ends = stages
        core, dropped = condopt._minimize_log_cond, []

        def poisoned(P_of, gradient, x0):
            def P_bad(x):
                k = len(ends)
                if 2 <= k < len(condopt.TAUS) and ends[k - 1] is not ends[k - 2] \
                        and np.array_equal(x, _secant(ends, k)):
                    dropped.append(k)
                    return -P_of(x)
                return P_of(x)
            return core(P_bad, gradient, x0)

        monkeypatch.setattr(condopt, "_minimize_log_cond", poisoned)
        rng = np.random.default_rng(0)
        for n in range(3, 17):
            del starts[:], ends[:]
            before = len(dropped)
            found = minimize_kappa_weights(_seeded_weights(rng, n))
            assert found.converged, n
            for k in dropped[before:]:
                assert starts[k] is ends[k - 1], (n, k)
        assert len(dropped) >= 3


def _batch_nd(seed):
    """Adjoint eigenvectors of the systems of perfbench's batch_nd(seed): its
    seeded_nd draws at n = 3 (six), 8 (two) and 16, then the triangular system."""
    rng = np.random.default_rng([seed, 3])
    triangular = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 1.0, 3.0]])
    systems = [families.seeded_nd(rng, n) for n in (3, 3, 3, 3, 3, 3, 8, 8, 16)]
    return [eigendecompose(c).left_vectors for c in systems + [triangular]]


class TestLadderExit:
    def test_skipped_stages_change_nothing_but_the_count(
            self, monkeypatch, stages, mat_triangular, triangular_w):
        # once a stage converges on its last evaluation, where no later stage
        # would move and the smoothing is exact, each later stage would see
        # the same value and gradient under a looser gtol and take no step:
        # running them anyway changes no bit of the result, and adds one
        # evaluation per stage
        starts, _ = stages
        seed_p = LyapunovMatrix(triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T)
        searches = [lambda w=w: minimize_kappa_weights(w)
                    for seed in (1, 2, 3) for w in _batch_nd(seed)]
        searches.append(lambda: minimize_kappa_admissible(mat_triangular, 1.0, seed_p))
        skipped = []
        for search in searches:
            del starts[:]
            short = search()
            ran = len(starts)
            with monkeypatch.context() as m:
                m.setattr(condopt, "_smoothing_is_exact", lambda lam, tau: False)
                del starts[:]
                full = search()
            assert len(starts) == len(condopt.TAUS)
            skipped.append(len(condopt.TAUS) - ran)
            assert full.nfev == short.nfev + skipped[-1]
            assert (full.kappa, full.converged) == (short.kappa, short.converged)
            if isinstance(full, condopt.WeightOptimum):
                assert full.weights.tobytes() == short.weights.tobytes()
                assert full.kappa_equal == short.kappa_equal
            else:
                assert full.P.matrix.tobytes() == short.P.matrix.tobytes()
                assert full.residual == short.residual
        # the exit fires on most of these searches, the admissible one included
        assert skipped[-1] > 0
        assert sum(k > 0 for k in skipped) > len(skipped) // 2


#: the ten-stage continuation, tau = 0.1 ... 1e-10, that the five stages replace
_TEN_STAGES = 10.0 ** -np.arange(1.0, 11.0)


def _seeded_system(rng, n):
    """C = V diag(lam) V^-1 with V = families.basis(rng, n), Re lam in [0.2, 1.5]."""
    lam = np.sort(rng.uniform(0.2, 1.5, n)) + 1j * rng.uniform(-2.0, 2.0, n)
    v = families.basis(rng, n)
    return (v * lam) @ np.linalg.inv(v)


@pytest.fixture(scope="module")
def admissible_on_both_ladders():
    """{n: (five-stage result, ten-stage result)} of the admissible search at
    the spectral gap from equal weights, on three seeded systems."""
    rng = np.random.default_rng(1)
    found = {}
    for n in (8, 12, 16):
        c = _seeded_system(rng, n)
        data = eigendecompose(c)
        seed_p = build_weighted_p(data, np.ones(n))
        short = minimize_kappa_admissible(c, data.spectral_gap, seed_p)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(condopt, "TAUS", _TEN_STAGES)
            found[n] = short, minimize_kappa_admissible(c, data.spectral_gap, seed_p)
    return found


class TestShortLadder:
    def test_weight_searches_lose_nothing(self, monkeypatch):
        rng = np.random.default_rng(0)
        for n in range(3, 17):
            w = _seeded_weights(rng, n)
            short = minimize_kappa_weights(w)
            with monkeypatch.context() as m:
                m.setattr(condopt, "TAUS", _TEN_STAGES)
                long = minimize_kappa_weights(w)
            assert short.converged and long.converged, n
            assert short.kappa <= long.kappa * (1 + 1e-10), n

    def test_admissible_searches_lose_nothing(self, admissible_on_both_ladders):
        for n, (short, long) in admissible_on_both_ladders.items():
            assert short.converged and long.converged, n
            assert short.kappa <= long.kappa * (1 + 1e-10), n

    def test_sixteen_dim_admissible_search_takes_half_the_evaluations(
            self, admissible_on_both_ladders):
        # a count, not a wall time
        short, long = admissible_on_both_ladders[16]
        assert short.converged
        assert 2 * short.nfev <= long.nfev
