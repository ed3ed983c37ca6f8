import numpy as np
import pytest

from hypodecay import eigendecompose


@pytest.fixture
def mat_complex_pair():
    """2x2 with eigenvalues (1 +- i sqrt(3))/2: equal real parts, overlap 1/2."""
    return np.array([[1.0, -1.0], [1.0, 0.0]])


@pytest.fixture
def mat_real_distinct():
    """2x2 with real eigenvalues 1/20 and 17/20, overlap 3/5."""
    return np.array([[19 / 20, -3 / 10], [3 / 10, -1 / 20]])


@pytest.fixture
def triangular_w():
    """Unit-column triangular eigenvector matrix of the 3x3 test system."""
    return np.array([[1.0, 1.0, 1.0],
                     [0.0, 1.0, 1.0],
                     [0.0, 0.0, 1.0]]) @ np.diag([1.0, 1 / np.sqrt(2), 1 / np.sqrt(3)])


@pytest.fixture
def mat_triangular(triangular_w):
    """3x3 matrix with spectrum {1, 2, 3} whose adjoint has the triangular_w
    eigenvectors, as exact integers."""
    c = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 1.0, 3.0]])
    # the columns of triangular_w are unit adjoint eigenvectors of c
    w = triangular_w
    assert (np.allclose(np.linalg.norm(w, axis=0), 1.0, rtol=0.0, atol=1e-15)
            and np.allclose(c.conj().T @ w, w * [1.0, 2.0, 3.0], rtol=0.0, atol=1e-15))
    return c


def make_2x2_with_overlap(rng, alpha=None, equal_real=False, real_spectrum=False):
    """Random diagonalizable positive stable 2x2 with prescribed eigenvector
    overlap; the left/right overlaps coincide in dimension two, so the
    constructed right-eigenvector overlap is the system's alpha."""
    if alpha is None:
        alpha = rng.uniform(0.05, 0.9)
    re = np.sort(rng.uniform(0.2, 1.5, size=2))
    if equal_real:
        re[1] = re[0]
    im = rng.uniform(-1.5, 1.5, size=2)
    if real_spectrum:
        im[:] = 0.0
        re[1] = re[0] + rng.uniform(0.1, 1.0)
    lam = re + 1j * im
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]], dtype=complex)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = q @ v
    return v @ np.diag(lam) @ np.linalg.inv(v), lam, alpha


def make_stable_system(rng, n):
    """Random diagonalizable positive stable system with a mildly conditioned
    eigenbasis and bounded operator norm, for propagator cross-checks."""
    lam = rng.uniform(0.1, 1.5, size=n) + 1j * rng.uniform(-2.0, 2.0, size=n)
    while True:
        v = np.eye(n) + 0.35 * (rng.normal(size=(n, n))
                                + 1j * rng.normal(size=(n, n)))
        if np.linalg.cond(v) < 6.0:
            break
    c = v @ np.diag(lam) @ np.linalg.inv(v)
    norm_c = np.linalg.norm(c, 2)
    if norm_c > 4.5:
        c *= 4.5 / norm_c
    return c


@pytest.fixture
def form_complex_pair(mat_complex_pair):
    from hypodecay import canonical_2d_form

    return canonical_2d_form(eigendecompose(mat_complex_pair))


@pytest.fixture
def form_real_distinct(mat_real_distinct):
    from hypodecay import canonical_2d_form

    return canonical_2d_form(eigendecompose(mat_real_distinct))
