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


@pytest.fixture
def form_complex_pair(mat_complex_pair):
    from hypodecay import canonical_2d_form

    return canonical_2d_form(eigendecompose(mat_complex_pair))


@pytest.fixture
def form_real_distinct(mat_real_distinct):
    from hypodecay import canonical_2d_form

    return canonical_2d_form(eigendecompose(mat_real_distinct))
