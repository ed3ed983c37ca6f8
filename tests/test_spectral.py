import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay import (
    DecayCase,
    DefectiveInput,
    MatrixFormatError,
    as_complex_matrix,
    canonical_2d_form,
    classify_and_sharp_constant,
    classify_stability,
    eigendecompose,
)
from hypodecay import condopt, spectral
from hypodecay.spectral import (
    COINCIDENCE_RTOL,
    _closed_form_2x2,
    _eig_route,
    _least,
    _order_with_clustered_ties,
    coincidence_tol,
)
from . import families
from .conftest import make_2x2_with_overlap

_EPS = np.finfo(float).eps

#: scales of C at which no defect verdict may move: 2^-600 puts every
#: entry's square below the smallest float, 2^600 above the largest
_SCALES = (2.0 ** -600, 1e-12, 1.0, 1e6, 2.0 ** 600)

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

    def test_rejects_empty(self):
        with pytest.raises(MatrixFormatError, match="empty"):
            as_complex_matrix(np.zeros((0, 0)))

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
        # C -> sC: the order, the gap and the defect flag go with the spectral radius.
        # [[1, 1e9], [0, 2]] is 5e-10 from a double eigenvalue, against
        # 32 eps |C|_2 = 7e-6, with unit eigenvectors 1e-9 apart: flagged at every s
        data = eigendecompose(s * np.diag([2.0 - 1.0j, 1.0 + 1.0j]))
        assert data.spectral_gap == pytest.approx(s, rel=1e-12)
        assert eigendecompose(s * np.array([[1.0, 1e9], [0.0, 2.0]])).defective

    def test_overflowing_adjoint_norm_warns_nothing(self):
        # parts from 1e-168 to 1e306 take the eig route, where the norm of a
        # column of V^-1 overflows; the record is built without a warning and
        # flagged defective, so canonical_2d_form refuses it
        c = np.array([[1e90, 1e-168], [1e306j, 1e97]])
        assert _closed_form_2x2(c) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = eigendecompose(c)
        assert data.defective
        with pytest.raises(DefectiveInput, match="Jordan block"):
            canonical_2d_form(data)

    def test_singular_eigenvector_matrix_is_flagged_defective(self):
        # eigenvalues 4e-124 apart at spectral radius 4e-124, from parts too
        # far apart in scale for the closed form; the eig route's V is
        # singular to inv, so the record is flagged defective with a NaN
        # adjoint basis instead of raising
        c = (np.array([[0.0, -9.74265979e283], [1.95220652e-294, 0.0]])
             + 1j * np.array([[-1.49837836e-264, 1.16449606e160],
                              [-7.33874052e-242, -3.88152586e-124]]))
        assert _closed_form_2x2(c) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = eigendecompose(c)
        assert data.defective
        assert np.isnan(data.left_vectors).all()

    @pytest.mark.parametrize("c", [
        [[1.0, -1.0], [1.0, 0.0]],
        [[1.0, 2.0], [0.0, 3.0]],
        [[1.0 + 1.0j, 1.0], [0.0, 2.0 - 0.5j]],
    ], ids=["unclustered", "upper-triangular", "complex"])
    def test_closed_form_v_is_as_conditioned_as_eig(self, c):
        # a 2x2 builds its eigenvectors in closed form; scaled to
        # unit columns, they are as well conditioned as the ordered V eig
        # returns, within a few ulp
        c = np.asarray(c, dtype=complex)
        assert _closed_form_2x2(c) is not None
        data = eigendecompose(c)
        v = data.right_vectors / np.linalg.norm(data.right_vectors, axis=0)
        lam, v_eig = np.linalg.eig(c)
        order = _order_with_clustered_ties(lam, coincidence_tol(lam))
        expected = float(np.linalg.cond(v_eig[:, order]))
        assert float(np.linalg.cond(v)) == pytest.approx(expected, rel=4 * _EPS, abs=0.0)

    def test_adjoint_eigenvectors(self, mat_real_distinct):
        data = eigendecompose(mat_real_distinct)
        for j in range(2):
            w = data.left_vectors[:, j]
            lhs = mat_real_distinct.conj().T @ w
            assert np.allclose(lhs, np.conj(data.eigenvalues[j]) * w, atol=1e-12)


def _rotated_pair(rng, b):
    """Q [[1, b], [0, 2]] Q* for a random unitary Q, and its eigenvalue
    condition number sqrt(1 + b^2)."""
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return q @ np.array([[1.0, b], [0.0, 2.0]]) @ q.conj().T, np.hypot(1.0, b)


def _seeded_pairs(rng, count):
    """(C, eigenvalue condition number 1/sqrt(1 - alpha^2)) in the three
    regimes of make_2x2_with_overlap."""
    for i in range(count):
        c, _, alpha = make_2x2_with_overlap(rng, **({}, {"equal_real": True},
                                                    {"real_spectrum": True})[i % 3])
        yield c, 1.0 / np.sqrt(1.0 - alpha * alpha)


def _alpha(data):
    w = data.left_vectors
    return abs(np.vdot(w[:, 0], w[:, 1]))


class TestClosedForm2x2:
    """A 2x2 gets its spectral record in closed form unless the closed form
    declines it. The eig route, which every other matrix takes, is the
    reference: both routes agree within tolerances fixed from eps, and against
    a 50-digit mpmath reference the closed form meets the error bound the eig
    route meets, near ties included."""

    @staticmethod
    def _agree(c, kappa, s=1.0):
        # s C through both routes, compared at the scale of C: eigenvalues within
        # 16 eps |C|_F kappa (eps |C|_F backward error times the eigenvalue
        # condition number), mu_s and nu_s within 16 eps |C|_F, alpha within
        # 1e-12 relative; the order and the defect flag are the same
        C = np.asarray(c, dtype=complex)
        sC = s * C
        closed = _closed_form_2x2(sC)
        assert closed is not None
        ref = _eig_route(sC)
        assert eigendecompose(sC).eigenvalues.tolist() == closed.eigenvalues.tolist()
        fro = np.linalg.norm(C)
        assert closed.defective == ref.defective is False
        assert np.abs(closed.eigenvalues / s - ref.eigenvalues / s).max() <= 16 * _EPS * fro * kappa
        assert abs(closed.mu_s / s - ref.mu_s / s) <= 16 * _EPS * fro
        assert abs(closed.nu_s / s - ref.nu_s / s) <= 16 * _EPS * fro
        assert _alpha(closed) == pytest.approx(_alpha(ref), rel=1e-12, abs=0.0)
        assert closed.positive_stable == ref.positive_stable

    def test_agrees_with_eig_route_on_seeded_draws(self):
        for c, kappa in _seeded_pairs(np.random.default_rng(5), 90):
            self._agree(c, kappa)

    @pytest.mark.parametrize("b", [1.0, 10.0, 1e2, 1e3, 1e4])
    def test_agrees_on_rotated_non_normal_pairs(self, b):
        rng = np.random.default_rng(int(np.log10(b)))
        for _ in range(20):
            self._agree(*_rotated_pair(rng, b))

    @pytest.mark.parametrize("s", 10.0 ** np.arange(-300, 301, 50), ids=lambda s: f"{s:.0e}")
    def test_agrees_at_every_scale(self, s):
        for c, kappa in _seeded_pairs(np.random.default_rng(6), 12):
            self._agree(c, kappa, s)

    @staticmethod
    def _within_8_units(c):
        # errors of both routes against eig and eigh of mpmath at 50 digits, in
        # units of eps |C|_F times kappa for the eigenvalues, eps |C|_F for mu_s
        # and nu_s and eps |C|_F kappa / gap for alpha: each within 8 units
        c = np.asarray(c, dtype=complex)
        closed = _closed_form_2x2(c)
        assert closed is not None
        with mpmath.workdps(50):
            A = mpmath.matrix(c.tolist())
            lam, V = mpmath.eig(A)
            herm = mpmath.eigh((A + A.H) / 2, eigvals_only=True)
            v1, v2 = ([V[i, j] for i in range(2)] for j in range(2))
            # in dimension two the right and adjoint overlaps agree
            alpha = abs(mpmath.fdot(v1, v2, conjugate=True)) / (
                mpmath.norm(mpmath.matrix(v1)) * mpmath.norm(mpmath.matrix(v2)))
            gap = float(abs(lam[1] - lam[0]))
            alpha = float(alpha)
            kappa = 1.0 / np.sqrt(1.0 - alpha * alpha)
            unit = _EPS * math.hypot(*np.abs(c).ravel().tolist())
            for data in (closed, _eig_route(c)):
                err = max(min(float(abs(mpmath.mpc(z) - r)) for r in lam)
                          for z in data.eigenvalues.tolist())
                assert err <= 8 * unit * kappa
                assert abs(data.mu_s - float(min(herm))) <= 8 * unit
                assert abs(data.nu_s - float(max(herm))) <= 8 * unit
                assert abs(_alpha(data) - alpha) <= 8 * unit * kappa / gap

    def test_no_worse_than_eig_route_against_mpmath(self):
        rng = np.random.default_rng(7)
        draws = [*_seeded_pairs(rng, 30), *(_rotated_pair(rng, b) for b in (3.0, 30.0, 300.0)),
                 *((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), None)
                   for _ in range(10))]
        for c, _ in draws:
            self._within_8_units(c)

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e200], ids=lambda s: f"{s:.0e}")
    def test_takes_near_ties_within_the_eig_route_bounds(self, s):
        # eigenvalues 1e-7 to 1e-11 of the spectral radius apart, in a random
        # direction, with overlaps 0, 0.6, 0.99 and 1 - 1e-6 under a random
        # unitary, and the tie 5e-11 apart at overlap 0.6: each gets the
        # closed-form record, as accurate as the eig route's
        rng = np.random.default_rng(8)
        draws = [_V06 @ np.diag([1.0, 1.0 + 5e-11j]) @ np.linalg.inv(_V06)]
        for gap, alpha in [*((g, a) for g in (1e-7, 1e-9, 1e-11) for a in (0.0, 0.6, 0.99)),
                           (1e-7, 1.0 - 1e-6)]:
            lam = rng.uniform(0.2, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            lam = np.array([lam, lam + abs(lam) * gap * np.exp(2j * np.pi * rng.uniform())])
            v = _unitary(rng) @ np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]])
            draws.append(v @ np.diag(lam) @ np.linalg.inv(v))
        for c in draws:
            self._within_8_units(s * c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [
        [[1.0, 1.0], [0.0, 1.0]],  # a Jordan block: no split
        [[1.0, 1e-320], [0.0, 2.0]],  # a subnormal entry
        [[1e300, 1e-20], [0.0, 2e300]],  # an entry that scales below the normal range
        [[0.0, 1.0], [2.0 ** -1010, 0.0]],  # eigenvalues +-2^-505: the split's square underflows
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["jordan", "subnormal", "scales-subnormal", "tiny-split", "zero"])
    def test_declines_to_the_eig_route(self, c):
        C = np.asarray(c, dtype=complex)
        assert _closed_form_2x2(C) is None
        data, ref = eigendecompose(C), _eig_route(C)
        assert data.eigenvalues.tolist() == ref.eigenvalues.tolist()
        assert (data.mu_s, data.nu_s, data.defective) == (ref.mu_s, ref.nu_s, ref.defective)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c, mu_s, nu_s", [
        ([[1.0, 0.0], [0.0, 1e308]], 1.0, 1e308),
        ([[1e-300, 1.0], [-1.0, 2e-300]], 1e-300, 2e-300),
        ([[1.0, 0.0], [0.0, -1e-200]], -1e-200, 1.0),
    ], ids=["1e308", "skew-dominated", "signs"])
    def test_hermitian_extremes_do_not_cancel(self, c, mu_s, nu_s):
        # (Re a + Re d)/2 - hypot((Re a - Re d)/2, |b + conj(c)|/2) would read
        # 0 for mu_s here; the smaller one is the determinant over the larger
        data = eigendecompose(c)
        assert _closed_form_2x2(data.matrix) is not None
        assert data.mu_s == pytest.approx(mu_s, rel=4 * _EPS, abs=0.0)
        assert data.nu_s == pytest.approx(nu_s, rel=4 * _EPS, abs=0.0)

    def test_badly_scaled_pair_keeps_its_overlap(self):
        # c is 7.5e4 times a and b 4e-46 times a: v_1 ~ (1.3e-5, 1), v_2 ~ (4e-46, 1),
        # and alpha is 1 - 8.8e-11 (mpmath eig at 50 digits). The eig route
        # returned v_1 = (1, 0) here, so alpha ~ 4e-46 and c_sharp = 1 for a
        # system whose transient grows to 7.5e4
        c = [[1.6888357343042814e+211, -7.192358301381623e+165],
             [1.2720468962103406e+216, 8.475014239184013e+188]]
        data = eigendecompose(c)
        assert _closed_form_2x2(data.matrix) is not None
        form = canonical_2d_form(data)
        assert form.alpha == pytest.approx(0.99999999991186699494924306804923, rel=0.0,
                                           abs=4 * _EPS)
        assert classify_and_sharp_constant(form).c_sharp >= 75320.0

    def test_makes_no_lapack_call(self, monkeypatch, mat_complex_pair):
        def refused(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eig", "inv", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refused)
        data = eigendecompose(mat_complex_pair)
        assert data.eigenvalues.imag.tolist() == pytest.approx([-np.sqrt(0.75), np.sqrt(0.75)])


@pytest.fixture
def svd_calls(monkeypatch):
    """The arguments of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    # np.linalg.norm(C, 2) calls the svd of its own module, not the attribute above
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counted)
    return calls


class TestSvdOnlyWhereRead:
    """eigendecompose makes one svd for each cluster of linked eigenvalues
    (of a 2x2, only a linked scalar tie), and reads |C|_2 only where a pair
    is linked at |C|_F: for a 2x2 from one _norm_2x2, for a larger C from one
    svd. canonical_2d_form reads neither."""

    def test_unclustered_spectrum_makes_no_svd(self, svd_calls, mat_real_distinct):
        eigendecompose(mat_real_distinct)
        assert svd_calls == []

    def test_clustered_spectrum_makes_one(self, svd_calls):
        # a near tie 5e-11 apart is not linked; a tie within rounding is, and
        # its unit eigenvectors make the one svd
        data = eigendecompose(_V06 @ np.diag([1.0, 1.0 + 5e-11j]) @ np.linalg.inv(_V06))
        assert not data.defective
        assert svd_calls == []
        data = eigendecompose(_V09 @ np.diag([1.0 + 1.0j, 1.0 + 1.0j]) @ np.linalg.inv(_V09))
        assert not data.defective
        assert len(svd_calls) == 1

    def test_unlinked_nd_spectrum_makes_no_svd(self, svd_calls, mat_triangular):
        assert not eigendecompose(mat_triangular).defective
        assert svd_calls == []

    def test_linked_nd_cluster_makes_two(self, svd_calls):
        # diag(1, 1, 2): the tie is linked at |C|_F, so |C|_2 is read from
        # one svd, and the cluster's unit eigenvectors take the other
        assert not eigendecompose(np.diag([1.0, 1.0, 2.0])).defective
        assert len(svd_calls) == 2

    def test_separated_form_makes_no_svd(self, svd_calls, mat_complex_pair):
        form = canonical_2d_form(eigendecompose(mat_complex_pair))
        assert not form.scalar
        assert svd_calls == []

    def test_jordan_refusal_makes_one(self, svd_calls, monkeypatch):
        norm_calls = []
        norm = spectral._norm_2x2

        def counted(*args):
            norm_calls.append(args)
            return norm(*args)
        monkeypatch.setattr(spectral, "_norm_2x2", counted)
        # a linked 2x2 pair that is no scalar tie is a Jordan block: no svd
        data = eigendecompose([[49.0, 64.0], [-36.0, -47.0]])
        assert data.defective
        with pytest.raises(DefectiveInput, match="Jordan block"):
            canonical_2d_form(data)
        assert len(norm_calls) == 1
        assert svd_calls == []


class TestJordanClusters:
    """_jordan_cluster is the one defect rule for every n: each rotated
    Jordan draw is flagged, each semisimple repeat is not, and neither
    verdict moves under C -> sC, a unitary similarity or a permutation of
    the eigenvalues."""

    @staticmethod
    def _verdicts(c, rng):
        n = len(c)
        q, p = families.unitary(rng, n), np.eye(n)[rng.permutation(n)]
        return {eigendecompose(v).defective
                for v in (*(s * c for s in _SCALES), q @ c @ q.conj().T, p @ c @ p.T)}

    @pytest.mark.parametrize("name", list(families.JORDAN))
    def test_jordan_draws_are_flagged(self, name):
        rng = np.random.default_rng(1)
        for c in families.draws(families.JORDAN[name], 0, 3):
            assert self._verdicts(c, rng) == {True}

    @pytest.mark.parametrize("name", list(families.SEMISIMPLE))
    def test_semisimple_draws_are_not(self, name):
        rng = np.random.default_rng(1)
        for c in families.draws(families.SEMISIMPLE[name], 0, 3):
            assert self._verdicts(c, rng) == {False}

    @pytest.mark.parametrize("c", [
        [[49.0, 64.0], [-36.0, -47.0]],  # I + 100 N with N nilpotent
        [[0.0, 2.0j], [2.0j, 4.0]],
        # kappa 1e4 links a split of 1e-13, 14 times the scalar tie; the unit
        # eigenvectors are 1e-4 apart, far above DEFECT_SIGMA, but rounding
        # moves each eigenvalue by 1e4 eps, more than the split
        [[1.0, 1e-9], [0.0, 1.0 + 1e-13]],
    ], ids=["I+100N", "complex-symmetric", "linked-not-a-scalar-tie"])
    def test_2x2_jordan_blocks_are_flagged(self, c):
        assert self._verdicts(np.array(c, dtype=complex), np.random.default_rng(0)) == {True}

    def test_2x2_scalar_tie_is_not(self):
        c = _V09 @ np.diag([1.0 + 1.0j, 1.0 + 1.0j]) @ np.linalg.inv(_V09)
        assert self._verdicts(c, np.random.default_rng(0)) == {False}

    def test_clusters_are_connected_components(self):
        # at |C|_2 = 1 and unit kappa, only neighbours of 0, 1, 2, 3 (x 1e-14)
        # are linked; the chain is one cluster, which alone holds both of the
        # nearly parallel eigenvectors of 0 and 3e-14
        c, lam, kappa = np.diag([1.0, 0.0, 0.0, 0.0]), 1e-14 * np.arange(4.0), np.ones(4)
        unit_V = np.eye(4)
        unit_V[:, 3] = [1.0, 0.0, 0.0, 1e-9]
        assert spectral._jordan_cluster(c, lam, kappa, unit_V / np.linalg.norm(unit_V, axis=0))
        unit_V[:, 3] = [0.0, 0.0, 0.0, 1.0]
        assert not spectral._jordan_cluster(c, lam, kappa, unit_V)


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

    @pytest.mark.parametrize("k", [-200, -12, 0, 12, 200])
    def test_eigenvalue_on_the_imaginary_axis_is_not_positive_stable(self, k):
        # eigenvalues i and 1 - 4i: the real part of i is rounding noise of
        # either sign, inside coincidence_tol, on both routes and at every scale
        c = 10.0 ** k * np.array([[-3j, 2.0], [-2.0 - 2j, 1.0]])
        closed, reference = _closed_form_2x2(c), _eig_route(c)
        assert closed is not None
        for data in (closed, reference):
            assert abs(data.eigenvalues[0] - 10.0 ** k * 1j) <= 1e-14 * 10.0 ** k
            assert not data.positive_stable
        assert not classify_stability(eigendecompose(c)).positive_stable

    @pytest.mark.parametrize("route", [_closed_form_2x2, _eig_route])
    def test_positive_stable_margin_is_coincidence_tol(self, route):
        # Re lambda_1 = mu against coincidence_tol = 1e-10 |1 + 2i| = 2.2e-10
        for mu, stable in ((1e-10, False), (2e-10, False), (3e-10, True), (1e-9, True)):
            data = route(np.diag([mu, 1.0 + 2j]))
            assert data.positive_stable is stable


class TestCanonical2DForm:
    def test_alpha_complex_pair(self, mat_complex_pair):
        form = canonical_2d_form(eigendecompose(mat_complex_pair))
        assert form.alpha == pytest.approx(0.5, abs=1e-12)

    def test_alpha_real_distinct(self, mat_real_distinct):
        form = canonical_2d_form(eigendecompose(mat_real_distinct))
        assert form.alpha == pytest.approx(0.6, abs=1e-12)

    def test_hermitian_extremes_are_one_record(self):
        # the mu_s and nu_s that analyze prints are the ones the rate family
        # ranges over, to the bit, in every regime
        rng = np.random.default_rng(7)
        for kw in ({}, {"equal_real": True}, {"real_spectrum": True}) * 20:
            data = eigendecompose(make_2x2_with_overlap(rng, **kw)[0])
            rep, form = classify_stability(data), canonical_2d_form(data)
            assert (rep.mu_s, rep.nu_s) == (form.mu_s, form.nu_s) == (data.mu_s, data.nu_s)
            assert rep.coercive == (data.mu_s > 0.0)

    def test_one_hermitian_eigensolve(self, monkeypatch, mat_real_distinct):
        # the record holds mu_s and nu_s: eigendecompose solves at most one
        # Hermitian eigenproblem, none in closed form (a 2x2) and one on the
        # eig route (a 2x2 the closed form declines, a 3x3), and reading the
        # stability report and the canonical form solves none
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for c, expected in ((mat_real_distinct, 0),
                            (_V09 @ np.diag([1.0 + 1.0j, 1.0 + 1.0j]) @ np.linalg.inv(_V09), 1),
                            (np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 1.0, 3.0]]), 1)):
            calls.clear()
            data = eigendecompose(c)
            assert len(calls) == expected
            classify_stability(data)
            if data.n == 2:
                canonical_2d_form(data)
            assert len(calls) == expected

    def test_overlap_same_for_both_eigenvector_families(self):
        # in dimension two the right and adjoint eigenvector overlaps agree
        rng = np.random.default_rng(11)
        for _ in range(50):
            c, _, _ = make_2x2_with_overlap(rng)
            data = eigendecompose(c)
            v = data.right_vectors
            a_right = abs(np.vdot(v[:, 0], v[:, 1])) / np.prod(np.linalg.norm(v, axis=0))
            assert a_right == pytest.approx(_alpha(data), abs=5e-12)

    def test_constructed_overlap_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, _, alpha = make_2x2_with_overlap(rng)
            form = canonical_2d_form(eigendecompose(c))
            assert form.alpha == pytest.approx(alpha, abs=1e-9)

    def test_defective_rejected(self):
        with pytest.raises(DefectiveInput):
            canonical_2d_form(eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("s", [1e-12, 0.7, 1.0, 1e6, 2.0 ** -600, 2.0 ** 600])
    def test_within_rounding_of_a_jordan_block_rejected(self, s):
        # [[0, 2i], [2i, 4]] is a Jordan block with eigenvalue 2: |e^{-(C - 2)t}| = 4t.
        # At s = 1 rounding splits the eigenvalues by 1.2e-7; only the split
        # over the eigenvalue condition numbers, against 32 eps |C|_2, tells it
        # from a 2x2 with a finite constant
        with pytest.raises(DefectiveInput):
            canonical_2d_form(eigendecompose(s * np.array([[0.0, 2.0j], [2.0j, 4.0]])))

    @pytest.mark.parametrize("c", [
        [[49.0, 64.0], [-36.0, -47.0]],  # I + 100 N with N nilpotent
        [[481.0, 640.0], [-360.0, -479.0]],  # I + 800 N
    ], ids=["I+100N", "I+800N"])
    def test_strongly_non_normal_jordan_block_rejected(self, c):
        # the rounding split times sqrt(1 - alpha^2) is of the order of
        # eps |C|_2, far above eps times the spectral radius 1
        with pytest.raises(DefectiveInput, match="Jordan block"):
            canonical_2d_form(eigendecompose(c))

    def test_random_non_normal_jordan_blocks_rejected(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.uniform(0.2, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            c = q @ np.array([[lam, 100.0 * abs(lam)], [0.0, lam]]) @ q.conj().T
            with pytest.raises(DefectiveInput):
                canonical_2d_form(eigendecompose(c))

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


def _numpy_order(lam, tol):
    """The ordering rule on numpy arrays: a stable argsort of the real parts,
    the snapping pass, then a lexsort on (snapped real part, imaginary part)."""
    lam = np.asarray(lam, dtype=complex)
    snapped = lam.real.copy()
    idx = np.argsort(snapped, kind="stable")
    for i, j in zip(idx[:-1], idx[1:]):
        if abs(snapped[j] - snapped[i]) <= tol:
            snapped[j] = snapped[i]
    return np.lexsort((lam.imag, snapped)).tolist()


class TestOrderingOnFloats:
    """The ordering rule and the record's scalars run on Python floats; they
    give what the same rule gives on numpy arrays, and numpy's min."""

    def test_order_matches_the_array_rule(self):
        # real parts from a small set, signed zeros among them, each moved by
        # 0 to 2 tolerances, so ties fall inside and just beyond the tolerance
        # and chain; few imaginary parts, so full ties test that the sort is
        # stable
        rng = np.random.default_rng(7)
        tol = 1e-10
        for n in range(1, 17):
            for _ in range(60):
                base = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=n)
                move = tol * rng.choice([0.0, 0.0, 0.9, 1.1, 1.8, 2.0], size=n)
                re = np.where(move > 0.0, base + move, base)  # -0.0 + 0.0 is 0.0
                lam = [complex(x, y) for x, y in zip(re, rng.choice([-1.0, 0.0, 2.0], size=n))]
                assert _order_with_clustered_ties(lam, tol) == _numpy_order(lam, tol)
                gap = float(np.asarray(lam).real.min())
                assert repr(_least([z.real for z in lam])) == repr(gap)

    def test_nan_parts_go_last(self):
        # a NaN real part after every number, a NaN imaginary part after every
        # number of its tie, as numpy's sort puts them
        nan = math.nan
        lam = [complex(nan, 0.0), complex(1.0, nan), 2.0 + 1.0j, complex(nan, -1.0),
               1.0 + 2.0j, 1.0 + 0.0j]
        order = [5, 4, 1, 2, 3, 0]
        assert _order_with_clustered_ties(lam, 1e-10) == order == _numpy_order(lam, 1e-10)

    @pytest.mark.parametrize("first", [True, False])
    def test_nan_eigenvalue_propagates(self, first, mat_complex_pair):
        # a NaN real part makes the gap and the form's mu NaN, wherever it sits
        data = eigendecompose(mat_complex_pair)
        lam = [complex(math.nan, 0.0), 0.5 + 1.0j][::1 if first else -1]
        record = dataclasses.replace(data, eigenvalues=np.array(lam))
        assert math.isnan(record.spectral_gap)
        form = dataclasses.replace(canonical_2d_form(data), eigenvalues=np.array(lam))
        assert math.isnan(form.mu)


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
        ref = canonical_2d_form(eigendecompose(c))
        tol = 1e-13 * np.linalg.norm(c, 2)
        for f, other in ((1.0, c), (1e-12, 1e-12 * c), (10.0 ** log_s, 10.0 ** log_s * c),
                         (1e6, 1e6 * c), (1.0, q @ c @ q.conj().T)):
            form = canonical_2d_form(eigendecompose(other))
            assert (form.case, form.scalar) == regime
            assert classify_and_sharp_constant(form).case is form.case
            assert abs(form.mu_s - f * ref.mu_s) <= f * tol
            assert abs(form.nu_s - f * ref.nu_s) <= f * tol
