"""End-to-end acceptance checks.

Each test states one headline guarantee of the package, computes it from
scratch through the public API, and prints the measured numbers next to the
expected ones. The whole file is designed to run in well under five minutes.
"""

import numpy as np
import pytest

from hypodecay import (
    GT_CONSTANT,
    LyapunovMatrix,
    NotAdmissible,
    TorusField,
    canonical_2d_form,
    certificate_from_p,
    eigendecompose,
    envelope_curves,
    exact_solution,
    lower_bound_constant,
    lyapunov_residual,
    minimize_kappa_2d,
    minimize_kappa_admissible,
    minimize_kappa_weights,
    mode_certificate,
    mode_matrix,
    rk4_oracle,
    upper_bound_constant,
    verify_gt_bound,
)
from .sweep import sector_constant, trajectory_envelope_oracle, trajectory_sup_oracle

W3 = np.array([[1.0, 1.0, 1.0],
               [0.0, 1.0, 1.0],
               [0.0, 0.0, 1.0]]) @ np.diag([1.0, 1 / np.sqrt(2), 1 / np.sqrt(3)])
C3 = np.linalg.solve(W3.conj().T, np.diag([1.0, 2.0, 3.0]) @ W3.conj().T)
C52 = np.array([[1.0, -1.0], [1.0, 0.0]])
C53 = np.array([[19 / 20, -3 / 10], [3 / 10, -1 / 20]])


def _p_tilde(b1, b2, b3, beta):
    blocks = np.array([[b1, 0.0, 0.0], [0.0, b2, beta], [0.0, beta, b3]])
    return W3 @ blocks @ W3.conj().T


def test_criterion_01_transport_bound_sharp_and_uniform():
    t_star = np.pi / np.sqrt(3.0)
    times = np.unique(np.concatenate([np.linspace(0, 20, 200),
                                      np.geomspace(20.0 * 1e-6, 20, 200), [t_star]]))
    worst = 0.0
    for seed in range(20):
        field = TorusField.random_field(seed, 256, n_modes=64)
        rep = verify_gt_bound(field, times, 64)
        worst = max(worst, rep.max_ratio)
        assert rep.passed, f"seed {seed}: ratio {rep.max_ratio}"
    assert worst <= GT_CONSTANT * (1 + 1e-9)

    sharp = verify_gt_bound(TorusField.sharp(256), times, 64)
    assert sharp.max_ratio >= GT_CONSTANT * (1 - 1e-3)
    print(f"\n[1] 20 random fields: worst ratio {worst:.12f} <= sqrt(3); "
          f"sharp datum reaches {sharp.max_ratio:.12f} "
          f"(= {sharp.max_ratio / GT_CONSTANT:.15f} of sqrt(3)) -> PASS")


def test_criterion_02_mode_constants_two_routes():
    worst_formula = 0.0
    worst_cross = 0.0
    for k in range(1, 33):
        cert = mode_certificate(k)
        expect = (2 * k + 1) / (2 * k - 1)
        worst_formula = max(worst_formula, abs(cert.kappa - expect))
        form = canonical_2d_form(eigendecompose(mode_matrix(k)))
        opt = minimize_kappa_2d(form)
        worst_cross = max(worst_cross, abs(cert.kappa - opt.kappa))
    assert worst_formula <= 1e-12
    assert worst_cross <= 1e-10
    print(f"\n[2] k=1..32: |kappa - (2k+1)/(2k-1)| <= {worst_formula:.2e} "
          f"(tol 1e-12); cross-check gap {worst_cross:.2e} (tol 1e-10) -> PASS")


def test_criterion_03_weight_optimization_three_dim():
    opt = minimize_kappa_weights(W3)
    assert opt.kappa_equal == pytest.approx(15.12825876, abs=1e-6)
    assert opt.kappa == pytest.approx(13.92820324, abs=1e-4)
    scaled = opt.weights / opt.weights[0] * 2.0
    assert np.allclose(scaled, [2.0, 4.0, 3.0], rtol=1e-2)
    print(f"\n[3] equal-weight kappa {opt.kappa_equal:.8f} (~15.12825876), "
          f"optimized {opt.kappa:.8f} (~13.92820324), "
          f"weights {np.round(scaled, 6)} ~ (2, 4, 3) -> PASS")


def test_criterion_04_off_diagonal_certificate():
    target = 5.82842780720132
    lm = LyapunovMatrix(_p_tilde(2.0, 4.0, 3.0, -2.45))
    rel = abs(lm.kappa - target) / target
    assert rel <= 1e-8
    res = lyapunov_residual(C3, lm, 1.0)
    assert res >= -1e-10

    seed_p = LyapunovMatrix(_p_tilde(2.0, 4.0, 3.0, 0.0))
    found = minimize_kappa_admissible(C3, 1.0, seed_p)
    assert found.residual >= -1e-10
    assert found.kappa <= 5.8285
    print(f"\n[4] kappa(P(2,4,3,-2.45)) = {lm.kappa:.14f} "
          f"(rel gap {rel:.2e} <= 1e-8), residual {res:.2e} >= -1e-10; "
          f"search from beta=0 seed reaches {found.kappa:.8f} <= 5.8285 -> PASS")


def test_criterion_05_admissibility_family_boundary():
    c = np.diag([1.0, 2.0, 3.0])
    rng = np.random.default_rng(2024)
    n_pass = 0
    for _ in range(200):
        b = rng.uniform(0.1, 5.0, size=3)
        beta = np.sign(rng.normal()) * np.sqrt(
            (8.0 / 9.0) * b[1] * b[2] * rng.uniform(0.0, 1.0))
        p = np.array([[b[0], 0, 0], [0, b[1], beta], [0, beta, b[2]]])
        cert = certificate_from_p(c, p, 1.0)
        assert cert.residual >= -1e-10
        n_pass += 1
    n_fail = 0
    for _ in range(50):
        b = rng.uniform(0.1, 5.0, size=3)
        beta = np.sign(rng.normal()) * np.sqrt(
            b[1] * b[2] * (8.0 / 9.0) * rng.uniform(1.01, 1.12))
        p = np.array([[b[0], 0, 0], [0, b[1], beta], [0, beta, b[2]]])
        with pytest.raises(NotAdmissible):
            certificate_from_p(c, p, 1.0)
        n_fail += 1
    print(f"\n[5] {n_pass}/200 samples with 8 b2 b3 - 9 beta^2 >= 0 certified, "
          f"{n_fail}/50 violating samples rejected -> PASS")


def _random_2x2_with_overlap(rng):
    alpha = rng.uniform(0.05, 0.9)
    lam = (np.sort(rng.uniform(0.2, 1.5, size=2))
           + 1j * rng.uniform(-1.5, 1.5, size=2))
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]],
                 dtype=complex)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = q @ v
    return v @ np.diag(lam) @ np.linalg.inv(v)


def test_criterion_06_equal_weights_optimal_brute_force():
    rng = np.random.default_rng(77)
    bs = np.logspace(-1.0, 1.0, 2001)
    worst_gap = 0.0
    worst_arg = 0.0
    for _ in range(500):
        c = _random_2x2_with_overlap(rng)
        data = eigendecompose(c)
        form = canonical_2d_form(data)
        w = data.left_vectors
        weights = np.stack([1.0 / bs, bs], axis=1)
        ps = np.einsum("ik,bk,jk->bij", w, weights, w.conj())
        ev = np.linalg.eigvalsh(ps)
        kappas = ev[:, -1] / ev[:, 0]
        i = int(np.argmin(kappas))
        target = (1 + form.alpha) / (1 - form.alpha)
        worst_gap = max(worst_gap, abs(kappas[i] - target))
        worst_arg = max(worst_arg, abs(bs[i] - 1.0))
    assert worst_gap <= 1e-6
    assert worst_arg <= 0.01
    print(f"\n[6] 500 random 2x2: grid-min kappa off closed form by "
          f"{worst_gap:.2e} (tol 1e-6), argmin within {worst_arg:.2e} "
          f"of b = 1 (tol 0.01) -> PASS")


def _inf_sup_sector(alpha: float) -> float:
    # rows: b; columns: the fixed sectors, then z_+, z_-, 0.999 z_+, 1.001 z_+
    b = np.logspace(-4.0, 1.0, 400)[:, None]
    d = b - 1.0 / b
    r = np.sqrt(d * d + 4.0 * alpha * alpha)
    zp = (d + r) / (2.0 * alpha * b)
    zm = (d - r) / (2.0 * alpha * b)
    gammas_base = np.concatenate([np.linspace(-3.0, 3.0, 61), [-1e6, 1e6]])
    cands = np.hstack([np.broadcast_to(gammas_base, (len(b), len(gammas_base))),
                       zp, zm, 0.999 * zp, 1.001 * zp])
    return float(sector_constant(alpha, b, cands).max(axis=1).min())


def test_criterion_07_sector_inf_sup_and_oracle():
    worst = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        got = _inf_sup_sector(alpha)
        target = 1.0 / (1.0 - alpha * alpha)
        rel = abs(got - target) / target
        worst = max(worst, rel)
    assert worst <= 1e-4

    phi = np.linspace(0.0, np.pi, 240)
    theta = np.linspace(0.0, 2 * np.pi, 240, endpoint=False)
    sup = trajectory_sup_oracle(C53, phi, theta, np.linspace(0.0, 30.0, 800))
    assert sup == pytest.approx(25.0 / 16.0, abs=1e-4)
    print(f"\n[7] inf-sup over sectors matches 1/(1 - alpha^2) within "
          f"{worst:.2e} for alpha = 0.1..0.9 (tol 1e-4); trajectory oracle "
          f"c^2 = {sup:.8f} ~ 25/16 -> PASS")


def test_criterion_08_envelope_tightness_oracle_sweep():
    phi = np.linspace(0.0, np.pi, 720)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    times = np.linspace(0.0, 10.0, 2000)
    report = []
    for label, c in (("equal real parts", C52), ("real spectrum", C53)):
        form = canonical_2d_form(eigendecompose(c))
        env = envelope_curves(form, times)
        vmax, vmin = trajectory_envelope_oracle(c, phi, theta, times)
        hi = float(np.max(np.abs(vmax - env.h_plus) / env.h_plus))
        lo = float(np.max(np.abs(vmin - env.h_minus) / env.h_minus))
        assert hi <= 1e-5, f"{label}: upper envelope gap {hi}"
        assert lo <= 1e-5, f"{label}: lower envelope gap {lo}"
        report.append(f"{label}: hi {hi:.2e} / lo {lo:.2e}")
    print(f"\n[8] 720x720x2000 sweep vs closed-form envelopes "
          f"({'; '.join(report)}; tol 1e-5) -> PASS")


def test_criterion_09_rate_family_domination():
    form = canonical_2d_form(eigendecompose(C52))
    data = eigendecompose(C52)
    ups = [upper_bound_constant(form, r) for r in np.linspace(0.0, 0.5, 64)]
    los = [lower_bound_constant(form, r) for r in np.linspace(0.5, 1.0, 64)]

    c1_half = upper_bound_constant(form, 0.5).constant
    assert abs(c1_half - np.sqrt(3.0)) <= 1e-10

    times = np.unique(np.concatenate([np.linspace(0, 20, 150),
                                      np.geomspace(20.0 * 1e-6, 20, 150)]))
    rng = np.random.default_rng(15)
    worst = -np.inf
    for _ in range(25):
        f0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        f0 /= np.linalg.norm(f0)
        norms = np.linalg.norm(exact_solution(data, f0, times), axis=1)
        # relative overshoot of each bound, for |f0| = 1; an underflowed
        # norm of 0 refutes no lower bound
        for fb in ups + los:
            env = fb.constant * np.exp(-fb.rate * times)
            if fb.direction == "upper":
                rel = (norms - env) / np.maximum(env, 1e-300)
            else:
                rel = np.divide(env - norms, np.maximum(norms, 1e-300),
                                out=np.zeros_like(norms), where=norms > 0.0)
            gap = float(rel.max())
            assert gap <= 1e-9, f"{fb.direction} bound at rate {fb.rate}: overshoot {gap}"
            worst = max(worst, gap)

    def spread(family):
        rates = np.array([fb.rate for fb in family])
        consts = np.array([fb.constant for fb in family])
        t_cross = []
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                if abs(rates[i] - rates[j]) > 1e-12:
                    t_cross.append(np.log(consts[i] / consts[j])
                                   / (rates[i] - rates[j]))
        t_cross = np.array(t_cross)
        return float(t_cross.max() - t_cross.min())

    up_spread = spread(ups)
    lo_spread = spread(los)
    assert up_spread > 1e-3 and lo_spread > 1e-3
    print(f"\n[9] 64+64 rate family: worst violation {worst:.2e} <= 1e-9; "
          f"c1(1/2) - sqrt(3) = {c1_half - np.sqrt(3.0):.2e} (tol 1e-10); "
          f"intersection times spread {up_spread:.3f} (upper) / "
          f"{lo_spread:.3f} (lower), no common point -> PASS")


def test_criterion_10_propagator_cross_oracle():
    rng = np.random.default_rng(404)
    times = np.linspace(0.0, 10.0, 11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lam = rng.uniform(0.15, 1.2, size=n) + 1j * rng.uniform(-1.5, 1.5, size=n)
        while True:
            v = np.eye(n) + 0.35 * (rng.normal(size=(n, n))
                                    + 1j * rng.normal(size=(n, n)))
            if np.linalg.cond(v) < 6.0:
                break
        c = v @ np.diag(lam) @ np.linalg.inv(v)
        norm_c = np.linalg.norm(c, 2)
        if norm_c > 4.5:
            c *= 4.5 / norm_c
        data = eigendecompose(c)
        f0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        f0 /= np.linalg.norm(f0)
        a = exact_solution(data, f0, times)
        b = rk4_oracle(c, f0, times, dt=1e-3)
        rel = np.linalg.norm(a - b, axis=1) / np.maximum(
            np.linalg.norm(a, axis=1), 1e-300)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-8
    print(f"\n[10] 100 random systems (n <= 4, t <= 10): worst relative "
          f"gap exact vs RK4 = {worst:.2e} (tol 1e-8) -> PASS")
