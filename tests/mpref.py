"""The tests' 50-digit mpmath references for the package's closed forms.

m_plus_minus, golden_max and hermitian_eigvals work at the caller's
mpmath.workdps; the other references set their own precision.
"""

import mpmath
import numpy as np


def m_plus_minus(alpha, gamma, delta, t, one=None):
    """(m_+, m_-) = e^{-gamma t} (A +- sqrt(A^2 - 1)) from the definition, with
    A - 1 = 2 (sinh^2(gamma t/2) + alpha^2 sin^2(delta t/2)) / one formed
    without cancellation; one is 1 - alpha^2 unless given."""
    a, g, d, t = (mpmath.mpf(x) for x in (alpha, gamma, delta, t))
    one = 1 - a * a if one is None else mpmath.mpf(one)
    am1 = 2 * (mpmath.sinh(g * t / 2) ** 2 + a * a * mpmath.sin(d * t / 2) ** 2) / one
    e = mpmath.exp(-g * t)
    top = 1 + am1 + mpmath.sqrt(am1 * (am1 + 2))
    return e * top, e / top


def golden_max(f, ts, stop):
    """The best of f on the grid ts, refined by golden section between its
    neighbours until stop(steps taken, bracket width) holds: (lo, hi, the
    largest value seen at the grid point and the last two)."""
    vals = [f(t) for t in ts]
    k = max(range(len(ts)), key=vals.__getitem__)
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    inv = (mpmath.sqrt(5) - 1) / 2
    x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f1, f2 = f(x1), f(x2)
    steps = 0
    while not stop(steps, hi - lo):
        steps += 1
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = f(x2)
    return lo, hi, max(vals[k], f1, f2)


def sup_reference(alpha, gamma, delta, half_periods=4, grid=32, iters=80):
    """Max of m_+ over the first two periods and the asymptote 1/(1 - alpha^2),
    at 40 digits: per half period, a grid maximum refined by golden section."""
    with mpmath.workdps(40):
        h = mpmath.pi / abs(mpmath.mpf(delta))
        best = 1 / (1 - mpmath.mpf(alpha) ** 2)
        for j in range(half_periods):
            ts = [h * (j + mpmath.mpf(k) / grid) for k in range(grid + 1)]
            best = max(best, golden_max(lambda t: m_plus_minus(alpha, gamma, delta, t)[0], ts,
                                        lambda n, _: n == iters)[2])
        return best


def argmax_reference(alpha, g):
    """The maximizer over s in [0, pi] of m_+ in the time s = |delta| t, with
    g = gamma/|delta|, at 50 digits: the best of 33 samples, then golden
    section between its neighbours to 1e-16 wide. It depends on alpha alone,
    not on the beta carried beside it: for alpha = 1e-6, a beta^2 one rounding
    off 1 - alpha^2 moves it by 6e-9."""
    with mpmath.workdps(50):
        lo, hi, _ = golden_max(lambda s: m_plus_minus(alpha, g, 1.0, s)[0],
                               [mpmath.pi * k / 32 for k in range(33)],
                               lambda _, w: w <= mpmath.mpf(10) ** -16)
        return (lo + hi) / 2


def family_constant(form, rate, direction):
    """The rate family's closed form at a float rate, in 50 digits from the
    form's float eigenvalues and alpha."""
    with mpmath.workdps(50):
        lo, hi = (form.mu_s, form.mu) if direction == "upper" else (form.nu, form.nu_s)
        r = min(max(mpmath.mpf(rate), lo), hi)
        l1, l2 = (mpmath.mpc(complex(z)) for z in form.eigenvalues)
        a = mpmath.mpf(form.alpha)
        beta0 = min(1, mpmath.sqrt(max(0, 4 * (l1.real - r) * (l2.real - r))
                                   / abs(l1 + mpmath.conj(l2) - 2 * r) ** 2))
        bt = max(-a, -beta0)
        kappa = (1 + a) * (1 + bt) / ((1 - a) * (1 - bt))
        return float(mpmath.sqrt(kappa) if direction == "upper" else 1 / mpmath.sqrt(kappa))


def hermitian_eigvals(x, y, off):
    """Eigenvalues (low, high) of [[x, off], [conj(off), y]]."""
    mid, half = (x + y) / 2, mpmath.sqrt(((x - y) / 2) ** 2 + abs(off) ** 2)
    return mid - half, mid + half


def _mp(A):
    return [[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(A)]


def _hermitian_part_eigvals(s):
    return hermitian_eigvals(s[0][0].real, s[1][1].real, (s[0][1] + mpmath.conj(s[1][0])) / 2)


def norm_2x2(C) -> float:
    """|C|_2 to 50 digits, from the top eigenvalue of C*C."""
    with mpmath.workdps(50):
        (a, b), (c, d) = _mp(C)
        gram = hermitian_eigvals(abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2,
                                 mpmath.conj(a) * b + mpmath.conj(c) * d)
        return float(mpmath.sqrt(gram[1]))


def hermitian_extremes(P) -> tuple[float, float]:
    """The extreme eigenvalues of (P + P*)/2 to 50 digits."""
    with mpmath.workdps(50):
        return tuple(map(float, _hermitian_part_eigvals(_mp(P))))


def residual_2x2(C, P, rate) -> float:
    """lambda_min of the Hermitian part of C*P + PC - 2 rate P, to 50 digits."""
    with mpmath.workdps(50):
        c, p, r = _mp(C), _mp(P), mpmath.mpf(rate)
        s = [[sum(mpmath.conj(c[k][i]) * p[k][j] + p[i][k] * c[k][j] for k in range(2))
              - 2 * r * p[i][j] for j in range(2)] for i in range(2)]
        return float(_hermitian_part_eigvals(s)[0])
