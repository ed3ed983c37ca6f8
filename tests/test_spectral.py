import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay import (
    DecayCase,
    Defective2D,
    MatrixFormatError,
    ZeroVector,
    alpha_overlap,
    as_complex_matrix,
    canonical_2d_form,
    classify_and_sharp_constant,
    classify_stability,
    eigendecompose,
)
from hypodecay import condopt
from hypodecay.spectral import COINCIDENCE_RTOL, _order_with_clustered_ties
from .conftest import make_2x2_with_overlap

#: eigenbases of overlap 0.6 and 0.9
_V06 = np.array([[1.0, 0.6], [0.0, 0.8]])
_V09 = np.array([[1.0, 0.9], [0.0, np.sqrt(1.0 - 0.81)]])


class TestAsComplexMatrix:
    def test_accepts_nested_lists(self):
        a = as_complex_matrix([[1, 2], [3, 4]])
        assert a.dtype == complex and a.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(MatrixFormatError):
            as_complex_matrix(np.ones((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(MatrixFormatError):
            as_complex_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(MatrixFormatError):
            as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_accepts_non_contiguous(self):
        a = np.arange(16, dtype=complex).reshape(4, 4)
        as_complex_matrix(a.T[:2, :2])


class TestEigendecompose:
    def test_diagonal_matrix_sorted(self):
        data = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(data.eigenvalues, [1.0, 2.0, 3.0])
        assert not data.defective

    def test_biorthonormal(self, mat_triangular):
        data = eigendecompose(mat_triangular)
        n = data.n
        # W* V = I and columns of W are unit vectors
        assert np.allclose(data.left_vectors.conj().T @ data.right_vectors,
                           np.eye(n), atol=1e-12)
        assert np.allclose(np.linalg.norm(data.left_vectors, axis=0), 1.0)

    def test_reconstruction(self, mat_complex_pair):
        data = eigendecompose(mat_complex_pair)
        rebuilt = (data.right_vectors * data.eigenvalues) @ data.left_vectors.conj().T
        assert np.allclose(rebuilt, mat_complex_pair, atol=1e-12)

    def test_equal_real_parts_ordered_by_imag(self, mat_complex_pair):
        lam = eigendecompose(mat_complex_pair).eigenvalues
        assert lam[0].imag < lam[1].imag
        assert abs(lam[0].real - lam[1].real) < 1e-12

    def test_defective_flagged(self):
        data = eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert data.defective
        assert np.isnan(data.left_vectors).all()

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-7, 1.0, 1e6])
    def test_time_rescaling(self, s):
        # C -> sC: the order, the gap and the defect flag go with the spectral radius
        data = eigendecompose(s * np.diag([2.0 - 1.0j, 1.0 + 1.0j]))
        assert data.spectral_gap == pytest.approx(s, rel=1e-12)
        assert not eigendecompose(s * np.array([[1.0, 1e9], [0.0, 2.0]])).defective

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [
        [[1.0, 1.0], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0]],  # eig returns an exactly singular V
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        [[0.0, 2.0j], [2.0j, 4.0]],
        _V06 @ np.diag([1.0, 1.0 + 5e-11j]) @ np.linalg.inv(_V06),
    ], ids=["jordan", "singular-V", "nilpotent-3", "complex-symmetric-jordan", "near-tie"])
    def test_eigenvector_cond_is_np_cond(self, c):
        # the ratio of extreme singular values of the ordered V that eig returns,
        # inf without a RuntimeWarning where V is singular
        lam, v = np.linalg.eig(np.asarray(c, dtype=complex))
        expected = float(np.linalg.cond(v[:, _order_with_clustered_ties(lam)]))
        assert eigendecompose(c).eigenvector_cond == expected

    def test_adjoint_eigenvectors(self, mat_real_distinct):
        data = eigendecompose(mat_real_distinct)
        for j in range(2):
            w = data.left_vectors[:, j]
            lhs = mat_real_distinct.conj().T @ w
            assert np.allclose(lhs, np.conj(data.eigenvalues[j]) * w, atol=1e-12)


class TestClassifyStability:
    def test_hypocoercive_example(self, mat_complex_pair):
        rep = classify_stability(eigendecompose(mat_complex_pair))
        assert rep.mu == pytest.approx(0.5, abs=1e-12)
        assert rep.mu_s == pytest.approx(0.0, abs=1e-12)
        assert rep.nu_s == pytest.approx(1.0, abs=1e-12)
        assert rep.positive_stable and not rep.coercive
        assert rep.hypocoercive

    def test_coercive_example(self):
        rep = classify_stability(eigendecompose(np.diag([1.0, 2.0])))
        assert rep.coercive and not rep.hypocoercive

    def test_unstable_example(self):
        rep = classify_stability(eigendecompose(np.diag([-1.0, 2.0])))
        assert not rep.positive_stable


class TestAlphaOverlap:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_bounds_and_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        v1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = alpha_overlap(v1, v2)
        assert 0.0 <= a <= 1.0
        assert alpha_overlap(scale * v1, v2) == pytest.approx(a, rel=1e-12)

    def test_parallel_is_one(self):
        v = np.array([1.0, 2.0j])
        assert alpha_overlap(v, 3j * v) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            alpha_overlap(np.zeros(2), np.ones(2))


class TestCanonical2DForm:
    def test_alpha_complex_pair(self, mat_complex_pair):
        form = canonical_2d_form(eigendecompose(mat_complex_pair))
        assert form.alpha == pytest.approx(0.5, abs=1e-12)

    def test_alpha_real_distinct(self, mat_real_distinct):
        form = canonical_2d_form(eigendecompose(mat_real_distinct))
        assert form.alpha == pytest.approx(0.6, abs=1e-12)

    def test_unitary_and_similarity(self, mat_complex_pair):
        form = canonical_2d_form(eigendecompose(mat_complex_pair))
        u = form.unitary
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        # Sort by imaginary part: the real parts of this conjugate pair agree
        # only to rounding, which makes lexicographic complex sort unstable.
        got = np.linalg.eigvals(form.matrix)
        want = form.eigenvalues
        assert np.allclose(got[np.argsort(got.imag)],
                           want[np.argsort(want.imag)], atol=1e-12)

    def test_adjoint_eigenvectors_in_standard_position(self, mat_real_distinct):
        form = canonical_2d_form(eigendecompose(mat_real_distinct))
        assert np.allclose(form.w1, [1.0, 0.0], atol=1e-12)
        assert form.w2[0] == pytest.approx(form.alpha, abs=1e-12)
        assert form.w2[1].real == pytest.approx(
            np.sqrt(1 - form.alpha ** 2), abs=1e-12)
        assert abs(form.w2[0].imag) < 1e-12

    def test_overlap_same_for_both_eigenvector_families(self):
        # in dimension two the right and adjoint eigenvector overlaps agree
        rng = np.random.default_rng(11)
        for _ in range(50):
            c, _, _ = make_2x2_with_overlap(rng)
            data = eigendecompose(c)
            a_right = alpha_overlap(data.right_vectors[:, 0], data.right_vectors[:, 1])
            a_left = alpha_overlap(data.left_vectors[:, 0], data.left_vectors[:, 1])
            assert a_right == pytest.approx(a_left, abs=5e-12)

    def test_constructed_overlap_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, _, alpha = make_2x2_with_overlap(rng)
            form = canonical_2d_form(eigendecompose(c))
            assert form.alpha == pytest.approx(alpha, abs=1e-9)

    def test_defective_rejected(self):
        with pytest.raises(Defective2D):
            canonical_2d_form(eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("s", [1e-12, 0.7, 1.0, 1e6])
    def test_within_rounding_of_a_jordan_block_rejected(self, s):
        # [[0, 2i], [2i, 4]] is a Jordan block with eigenvalue 2: |e^{-(C - 2)t}| = 4t.
        # At s = 1 rounding splits the eigenvalues by 1.2e-7 and keeps the
        # eigenvector condition below DEFECT_COND_LIMIT; only the split times
        # sqrt(1 - alpha^2), 3.6e-15 against 1.4e-14, tells it from a 2x2 with
        # a finite constant. At other scales the condition may exceed the limit
        with pytest.raises(Defective2D):
            canonical_2d_form(eigendecompose(s * np.array([[0.0, 2.0j], [2.0j, 4.0]])))

    @pytest.mark.parametrize("c, scalar", [
        # eigenvalues 1 and 1 + 5e-11i, alpha 0.6: split times sqrt(1 - alpha^2) is 4e-11
        (_V06 @ np.diag([1.0, 1.0 + 5e-11j]) @ np.linalg.inv(_V06), False),
        (np.array([[2.0, 0.0], [0.0, 2.0]]), True),
        (_V09 @ np.diag([1.0 + 1.0j, 1.0 + 1.0j]) @ np.linalg.inv(_V09), True),
    ], ids=["near-tie", "scalar", "scalar-up-to-rounding"])
    def test_near_ties_keep_their_form(self, c, scalar):
        assert canonical_2d_form(eigendecompose(c)).scalar == scalar

    def test_wrong_size_rejected(self):
        with pytest.raises(MatrixFormatError):
            canonical_2d_form(eigendecompose(np.eye(3)))

    def test_rate_splittings(self, mat_real_distinct):
        form = canonical_2d_form(eigendecompose(mat_real_distinct))
        assert form.mu == pytest.approx(1 / 20, abs=1e-12)
        assert form.nu == pytest.approx(17 / 20, abs=1e-12)
        assert form.mu_s == pytest.approx(-1 / 20, abs=1e-12)
        assert form.nu_s == pytest.approx(19 / 20, abs=1e-12)
        assert form.gamma == pytest.approx(16 / 20, abs=1e-12)
        assert form.delta == pytest.approx(0.0, abs=1e-12)


class TestCoincidence:
    """spectral's one rule decides whether two real parts coincide; the
    eigenvalue ordering, the 2x2 case split and the slow set of the
    admissible search all follow it, at every scale."""

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e6])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_decisions_agree_on_a_real_part_gap(self, s, factor):
        # the gap is factor times the tolerance, relative to |1 + 2i| = sqrt(5)
        lam = s * np.array([1.0 + 2.0j, 1.0 + factor * COINCIDENCE_RTOL * np.sqrt(5.0) - 2.0j])
        v = np.array([[1.0, 0.6], [0.0, 0.8]])
        data = eigendecompose(v @ np.diag(lam) @ np.linalg.inv(v))
        tie = factor < 1.0
        # tied real parts are ordered by imaginary part, distinct ones by size
        assert (data.eigenvalues[0].imag < 0.0) == tie
        form = canonical_2d_form(data)
        case = classify_and_sharp_constant(form).case
        assert case is (DecayCase.EQUAL_REAL_PARTS if tie else DecayCase.FULLY_DISTINCT)
        assert condopt._slow(data.eigenvalues, data.spectral_gap).all() == tie
        # whichever comes first, mu is the smallest real part
        mu = data.eigenvalues.real.min()
        assert data.spectral_gap == classify_stability(data).mu == form.mu == mu


def _unitary(rng):
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


#: (case, scalar) -> lambda_2 - lambda_1 in units of |lambda_1|, from a size d
#: and an angle phi off both axes
_SPLITS = {
    (DecayCase.EQUAL_EIGENVALUES, True): lambda d, phi: 0.0,
    (DecayCase.EQUAL_EIGENVALUES, False): lambda d, phi: 1e-12 * np.exp(1j * phi),
    (DecayCase.EQUAL_REAL_PARTS, False): lambda d, phi: 1j * d,
    (DecayCase.EQUAL_IMAGINARY_PARTS, False): lambda d, phi: d,
    (DecayCase.FULLY_DISTINCT, False): lambda d, phi: d * np.exp(1j * phi),
}


class TestRegimeDecision:
    """canonical_2d_form decides the regime once: the case and the scalar tie
    do not move under C -> sC or unitary similarity, and the sharp constant is
    taken for the case the form carries."""

    def test_case_enum_has_one_home(self):
        from hypodecay import sharp2d, spectral

        assert sharp2d.DecayCase is spectral.DecayCase is DecayCase

    @given(regime=st.sampled_from(list(_SPLITS)),
           alpha=st.floats(0.0, 0.95),
           re=st.floats(0.1, 2.0),
           im=st.floats(-2.0, 2.0),
           d=st.floats(1e-3, 3.0),
           phi=st.floats(0.1, np.pi / 2 - 0.1),
           log_s=st.floats(-12.0, 6.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_rescaling_and_unitary_similarity(
            self, regime, alpha, re, im, d, phi, log_s, seed):
        lam0 = re + 1j * im
        lam = np.array([lam0, lam0 + abs(lam0) * _SPLITS[regime](d, phi)])
        rng = np.random.default_rng(seed)
        v = _unitary(rng) @ np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]])
        c = v @ np.diag(lam) @ np.linalg.inv(v)
        q = _unitary(rng)
        for other in (c, 1e-12 * c, 10.0 ** log_s * c, 1e6 * c, q @ c @ q.conj().T):
            form = canonical_2d_form(eigendecompose(other))
            assert (form.case, form.scalar) == regime
            assert classify_and_sharp_constant(form).case is form.case
