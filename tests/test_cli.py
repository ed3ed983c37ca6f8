import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypodecay import GT_CONSTANT, TorusField, deviation_norm, envelope_curves, evolve
from hypodecay.cli import main
from hypodecay.errors import CutoffTooLarge, HypodecayError, MatrixFormatError


def write_matrix(path, mat, with_imag=False):
    mat = np.asarray(mat)
    payload = {"n": mat.shape[0], "re": np.real(mat).tolist()}
    if with_imag:
        payload["im"] = np.imag(mat).tolist()
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def m52_file(tmp_path, mat_complex_pair):
    return write_matrix(tmp_path / "m52.json", mat_complex_pair)


@pytest.fixture
def m3_file(tmp_path, mat_triangular):
    return write_matrix(tmp_path / "m3.json", mat_triangular)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_two_dim_certificate(self, capsys, m52_file):
        code, out, _ = run(capsys, ["analyze", m52_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hypodecay/1"
        assert doc["mu"] == pytest.approx(0.5, abs=1e-12)
        assert doc["alpha"] == pytest.approx(0.5, abs=1e-12)
        assert doc["case"] == "EqualRealParts"
        assert doc["c_sharp"] == pytest.approx(np.sqrt(3), rel=1e-12)
        assert doc["c1_at_mu"] == pytest.approx(np.sqrt(3), rel=1e-12)
        assert doc["kappa"] == pytest.approx(3.0, rel=1e-10)
        assert doc["weights"] == [1.0, 1.0]
        assert doc["residual"] >= -1e-10
        assert doc["attained"]["kind"] == "finite"
        assert doc["attained"]["time"] == pytest.approx(np.pi / np.sqrt(3), rel=1e-10)

    def test_identity_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "id.json", np.eye(2))
        code, out, _ = run(capsys, ["analyze", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "EqualEigenvalues"
        assert doc["c_sharp"] == 1.0

    def test_one_dim_certificate(self, capsys, tmp_path):
        # x' = -(2 + 3i)x: |x(t)| = e^{-2t}|x0|, with constant 1 and no search
        path = write_matrix(tmp_path / "one.json", [[2.0 + 3.0j]], with_imag=True)
        code, out, _ = run(capsys, ["analyze", path])
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["mu"], doc["kappa"], doc["weights"], doc["residual"],
                doc["constant"], doc["rate"]) == (1, 2.0, 1.0, [1.0], 0.0, 1.0, 2.0)

    def test_three_dim_certificate(self, capsys, m3_file):
        code, out, _ = run(capsys, ["analyze", m3_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa_equal"] == pytest.approx(15.12825876, abs=1e-6)
        assert doc["kappa_opt"] == pytest.approx(13.92820324, abs=1e-4)
        w = np.array(doc["weights"])
        assert np.allclose(w / w[0] * 2, [2, 4, 3], rtol=1e-2)
        assert doc["rate"] == pytest.approx(1.0, abs=1e-10)
        assert doc["residual"] >= -1e-10

    def test_near_tie_of_real_parts(self, capsys, tmp_path):
        # real parts 5e-10 apart: just beyond the coincidence tolerance, so
        # every module sees distinct real parts and mu is the smaller one
        c = np.array([[1.0 + 2.0j, 3.75e-10 - 3.0j], [0.0, 1.0000000005 - 2.0j]])
        path = write_matrix(tmp_path / "near.json", c, with_imag=True)
        code, out, _ = run(capsys, ["analyze", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["mu"] == np.linalg.eigvals(c).real.min() == 1.0
        assert doc["case"] == "FullyDistinct"

    def test_complex_matrix_roundtrip(self, capsys, tmp_path):
        c = np.array([[1.0 + 0.2j, -0.4j], [0.1, 2.0 - 0.2j]])
        path = write_matrix(tmp_path / "cx.json", c, with_imag=True)
        code, out, _ = run(capsys, ["analyze", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        # c1 at the gap is sqrt(kappa_min), the bracket's upper end, to the bit
        assert doc["case"] == "FullyDistinct"
        assert doc["c1_at_mu"] == doc["bracket"][1]

    def test_oracle_flag(self, capsys, m52_file):
        code, out, _ = run(capsys, ["analyze", m52_file, "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle_gap"] < 1e-8

    def test_oracle_catches_a_planted_disagreement(self, capsys, monkeypatch, m3_file):
        import hypodecay.propagator
        from hypodecay import exact_solution

        monkeypatch.setattr(hypodecay.propagator, "exact_solution",
                            lambda *a: exact_solution(*a) * (1.0 + 1e-6))
        code, out, err = run(capsys, ["analyze", m3_file, "--oracle"])
        assert code == 3 and "oracle cross-check failed" in err
        assert json.loads(out)["oracle_gap"] > 1e-8

    def test_oracle_gap_is_invariant_under_time_rescaling(self, capsys, tmp_path):
        # C -> sC scales the oracle's horizon and step by 1/s. A power of two
        # scales every rounding exactly, 1e300 nearly; the last short RK4 step
        # of an interval must be taken however small it is, or at this scale
        # RK4 lands up to one step early
        gaps = []
        for s in (1.0, 2.0 ** 996, 1e300):
            path = write_matrix(tmp_path / "d.json", s * np.diag(np.arange(1.0, 17.0)))
            code, out, err = run(capsys, ["analyze", path, "--oracle"])
            assert code == 0, err
            gaps.append(json.loads(out)["oracle_gap"])
        assert gaps[1] == gaps[0]
        assert gaps[2] == pytest.approx(gaps[0], rel=1e-3)

    def test_deterministic_output(self, capsys, m3_file):
        _, out1, _ = run(capsys, ["analyze", m3_file])
        _, out2, _ = run(capsys, ["analyze", m3_file])
        assert out1 == out2


class TestAnalyzeErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "/no/such/file.json"])
        assert code == 1 and "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, ["analyze", str(p)])
        assert code == 1

    @pytest.mark.parametrize("data", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf8", "too-deep"])
    def test_unreadable_json(self, capsys, tmp_path, data):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        code, out, err = run(capsys, ["analyze", str(p)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "is not valid JSON" in err

    def test_shape_mismatch(self, capsys, tmp_path):
        p = tmp_path / "shape.json"
        p.write_text(json.dumps({"n": 2, "re": [[1.0, 2.0]]}))
        code, _, _ = run(capsys, ["analyze", str(p)])
        assert code == 1

    def test_bool_size(self, capsys, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"n": True, "re": [[1.0]], "im": [[0.0]]}))
        code, _, err = run(capsys, ["analyze", str(p)])
        assert code == 1 and '"n" must be a positive integer' in err

    @pytest.mark.parametrize("payload", [
        {"n": 2, "re": [[1, 0], [0, "2"]]},
        {"n": 2, "re": [[True, 0], [0, 2]]},
        {"n": 2, "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, False]]},
        {"n": 1, "re": [[10 ** 400]]},
        {"n": 3_000_000, "re": [[1]]},
    ], ids=["string", "bool", "bool-im", "huge-int", "huge-n"])
    def test_entries_must_be_numbers(self, capsys, tmp_path, payload):
        # numpy would coerce "2" and true; a huge "n" must fail on the shape
        # of "re" before any n x n array is built
        p = tmp_path / "entries.json"
        p.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["analyze", str(p)])
        assert code == 1 and err.startswith("error:")

    def test_oversized_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "big.json", np.eye(17))
        code, _, _ = run(capsys, ["analyze", path])
        assert code == 2

    def test_defective_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "def.json", [[1.0, 1.0], [0.0, 1.0]])
        code, _, _ = run(capsys, ["analyze", path])
        assert code == 2

    def test_within_rounding_of_a_jordan_block(self, capsys, tmp_path):
        # |e^{-(C - 2)t}| = 4t: no finite constant exists at the rate mu = 2
        path = tmp_path / "jordan.json"
        path.write_text('{"n": 2, "re": [[0, 0], [0, 4]], "im": [[0, 2], [2, 0]]}')
        for command in ("analyze", "envelope"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 2 and out == ""
            assert err.startswith("error:") and "Jordan block" in err
            assert "at most 32 eps |C|_2 =" in err

    @pytest.mark.parametrize("text", [
        # I + 100 N with N nilpotent: was certified with c_sharp = 67108864
        '{"n": 2, "re": [[49, 64], [-36, -47]]}',
        # I + 800 N: was exit 1, "matrix is not positive definite"
        '{"n": 2, "re": [[481, 640], [-360, -479]]}',
    ], ids=["I+100N", "I+800N"])
    def test_integer_jordan_block_rounded_apart(self, capsys, tmp_path, text):
        path = tmp_path / "jordan.json"
        path.write_text(text)
        for command in ("analyze", "envelope"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 2 and out == ""
            assert err.startswith("error:") and "Jordan block" in err
            assert "at most 32 eps |C|_2 =" in err

    def test_unstable_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "uns.json", np.diag([-1.0, 1.0]))
        code, _, _ = run(capsys, ["analyze", path])
        assert code == 2

    @pytest.mark.parametrize("k", [-200, -12, 0, 12, 200])
    def test_eigenvalue_on_the_imaginary_axis(self, capsys, tmp_path, k):
        # eigenvalues i and 1 - 4i, times 10^k: Re i is rounding noise, which
        # certified a decay rate of order 1e-16 |C| at k = -200
        path = write_matrix(tmp_path / "axis.json",
                            10.0 ** k * np.array([[-3j, 2.0], [-2.0 - 2j, 1.0]]), with_imag=True)
        code, out, err = run(capsys, ["analyze", path])
        assert code == 2 and out == ""
        assert "no decay to certify" in err

    def test_badly_scaled_3x3(self, capsys, tmp_path):
        # LAPACK's eig returns the eigenvector (1, 0, 0) for lambda = 1.69e211,
        # where it is (1.3e-5, 1, 0), and the weighted P, I, has residual
        # -1.27e216 at the gap; the gap, 8.5e188, is also within
        # coincidence_tol of the imaginary axis. This printed constant 1.0
        path = tmp_path / "bad3.json"
        path.write_text('{"n": 3, "re": [[1.6888357343042814e211, -7.192358301381623e165, 0], '
                        '[1.2720468962103406e216, 8.475014239184013e188, 0], [0, 0, 1e200]]}')
        code, out, err = run(capsys, ["analyze", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("fixture", ["m52_file", "m3_file"])
    def test_inadmissible_p_is_refused(self, capsys, monkeypatch, request, fixture):
        # planted: P = I is not admissible at the gap of either matrix, whose
        # Hermitian parts have mu_s below mu
        from hypodecay import LyapunovMatrix, lyapunov

        monkeypatch.setattr(lyapunov, "build_weighted_p",
                            lambda data, weights: LyapunovMatrix(np.eye(data.n)))
        code, out, err = run(capsys, ["analyze", request.getfixturevalue(fixture)])
        assert code == 2 and out == ""
        assert "not admissible" in err

    def test_overflowing_eigenvector_norm_warns_nothing(self, capsys, tmp_path):
        # the eig route's adjoint eigenvectors of this matrix have a norm that
        # overflows: the refusal is the one line on stderr, with no numpy warning
        path = tmp_path / "ovf.json"
        path.write_text('{"n": 2, "re": [[1e90, 1e-168], [0, 1e97]], '
                        '"im": [[0, 0], [1e306, 0]]}')
        for command in ("analyze", "envelope"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, [command, str(path)])
            assert code == 2 and out == ""
            assert err == "error: adjoint eigenvectors are numerically parallel\n"

    def test_singular_eigenvector_matrix_is_refused_as_defective(self, capsys, tmp_path):
        # inv of the eig route's V raises here: the record is flagged
        # defective, and both commands print the refusal, not numpy's error
        path = tmp_path / "singular.json"
        path.write_text('{"n": 2, "re": [[0, -9.74265979e283], [1.95220652e-294, 0]], '
                        '"im": [[-1.49837836e-264, 1.16449606e160], '
                        '[-7.33874052e-242, -3.88152586e-124]]}')
        for command in ("analyze", "envelope"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 2 and out == ""
            assert err == "error: matrix is defective; certificates need a full eigenbasis\n"

    def test_certificate_beyond_the_float_range(self, capsys, tmp_path):
        # at subnormal scale the attainment time pi/|delta| overflows to inf,
        # which strict JSON cannot carry
        path = write_matrix(tmp_path / "sub.json", 1e-310 * np.array([[1.0, -1.0], [1.0, 0.0]]))
        code, out, err = run(capsys, ["analyze", path])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "float range" in err

    def test_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestEnvelope:
    def test_csv_shape_and_t0(self, capsys, m52_file):
        code, out, _ = run(capsys, ["envelope", m52_file, "--points", "10"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,h_minus,h_plus,family_upper,family_lower"
        assert len(lines) == 11
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-14)
        assert first[2] == pytest.approx(1.0, abs=1e-14)

    def test_envelope_between_family(self, capsys, m52_file):
        code, out, _ = run(capsys, ["envelope", m52_file, "--points", "50"])
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        t, h_lo, h_hi, fam_hi, fam_lo = rows.T
        assert np.all(h_hi <= fam_hi * (1 + 1e-11))
        assert np.all(h_lo >= fam_lo * (1 - 1e-11))

    def test_trajectories_inside_envelopes(self, capsys, m52_file):
        code, out, _ = run(capsys, ["envelope", m52_file, "--points", "20",
                                    "--trajectories", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("traj_1,traj_2,traj_3")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        for j in (5, 6, 7):
            assert np.all(rows[:, j] <= rows[:, 2] * (1 + 1e-10))
            assert np.all(rows[:, j] >= rows[:, 1] * (1 - 1e-10))

    def test_oracle_flag(self, capsys, m52_file):
        code, _, err = run(capsys, ["envelope", m52_file, "--points", "25",
                                    "--oracle"])
        assert code == 0 and "error" not in err

    @pytest.mark.parametrize("mat, t_max", [
        ([[1.0, 2.0], [0.0, 3.0]], "10"),
        ([[1.0 + 1.0j, 2.0], [0.5, 3.0 - 2.0j]], "10"),
        ([[1.0 + 1.0j, 1.0], [0.0, 2.0 - 0.5j]], "50"),
        ([[1.0, -1.0], [1.0, 0.0]], "800"),
        # |C|_2 = 421 at t = 100 takes 1.7e7 RK4 steps; powering the stored
        # step I + D compounds its rounding to a gap of 1.7e-8
        (np.array([[-26.838502418306835, 251.33952017881853],
                   [36.129105300856814, 32.058498448102945]])
         + 1j * np.array([[161.44061368537604, -230.8187495202469],
                          [71.32776941107899, -164.05986787346987]]), "100"),
    ], ids=["real-distinct", "complex", "fully-distinct-t50", "equal-real-parts-t800",
            "large-norm-t100"])
    @pytest.mark.filterwarnings("error")
    def test_oracle_agrees_with_rk4_singular_values(self, capsys, tmp_path, mat, t_max):
        # h_+ = sigma_max^2 and h_- = sigma_min^2 of e^{-Ct}, out to where
        # both underflow; a sweep over the unit sphere lost h_- here to cancellation
        path = write_matrix(tmp_path / "m.json", mat, with_imag=True)
        code, _, err = run(capsys, ["envelope", path, "--oracle", "--t-max", t_max])
        assert code == 0, err

    @pytest.mark.parametrize("column", ["h_plus", "h_minus"])
    def test_oracle_catches_a_planted_disagreement(self, capsys, monkeypatch, m52_file, column):
        import hypodecay.sharp2d

        def planted(form, times):
            env = envelope_curves(form, times)
            setattr(env, column, getattr(env, column) * (1.0 + 1e-6))
            return env

        monkeypatch.setattr(hypodecay.sharp2d, "envelope_curves", planted)
        code, _, err = run(capsys, ["envelope", m52_file, "--oracle"])
        assert code == 3 and "RK4 disagrees with the envelopes" in err

    def test_finite_far_out(self, capsys, tmp_path):
        # gamma = 1: cosh(gamma t) overflows past t ~ 710, the envelopes must not
        path = write_matrix(tmp_path / "far.json", [[1.0, 3.0], [0.0, 2.0]])
        code, out, _ = run(capsys, ["envelope", path, "--t-max", "800",
                                    "--points", "9"])
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        assert rows[-1, 0] == 800.0
        assert np.isfinite(rows).all()

    def test_overflow_to_inf_is_silent(self, capsys, tmp_path):
        # mu_s < 0: the one family member passes the float range before t = 100
        path = write_matrix(tmp_path / "grow.json", [[1.0, 40.0], [0.0, 2.0]])
        argv = ["envelope", path, "--rates", "1", "--t-max", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, expected, _ = run(capsys, argv)
        code, out, err = run(capsys, argv)
        assert code == 0
        assert (out, err) == (expected, "")
        assert out.strip().splitlines()[-1].split(",")[3] == "inf"

    def test_rejects_non_2x2(self, capsys, m3_file):
        code, _, _ = run(capsys, ["envelope", m3_file])
        assert code == 2

    @pytest.mark.parametrize("mat", [[[1.0, 1.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]])
    def test_rejects_what_analyze_rejects(self, capsys, tmp_path, mat):
        # a defective or unstable C gets the same exit code and message from both
        path = write_matrix(tmp_path / "m.json", mat)
        code, _, err = run(capsys, ["envelope", path])
        assert code == 2 and err.startswith("error:")
        assert (code, err) == run(capsys, ["analyze", path])[::2]

    def test_deterministic(self, capsys, m52_file):
        _, out1, _ = run(capsys, ["envelope", m52_file, "--points", "30",
                                  "--trajectories", "2", "--seed", "7"])
        _, out2, _ = run(capsys, ["envelope", m52_file, "--points", "30",
                                  "--trajectories", "2", "--seed", "7"])
        assert out1 == out2


class TestGT:
    def test_sharp_passes_with_near_equality(self, capsys):
        code, out, err = run(capsys, ["gt", "sharp", "--points", "200"])
        assert code == 0
        assert err.startswith("PASS")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        t, dev, bound = rows.T
        assert np.all(dev <= bound * (1 + 1e-9))
        # the sharp datum touches the bound somewhere
        assert np.max(dev / bound) > 0.995

    def test_steady_is_zero(self, capsys):
        code, out, err = run(capsys, ["gt", "steady", "--points", "5"])
        assert code == 0 and err.startswith("PASS")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        assert np.all(rows[:, 1] == 0.0)

    def test_harmonic_and_random(self, capsys):
        for spec in ("harmonic:1", "random:3", "random"):
            code, _, err = run(capsys, ["gt", spec, "--points", "40"])
            assert code == 0 and err.startswith("PASS")

    def test_header(self, capsys):
        _, out, _ = run(capsys, ["gt", "steady", "--points", "3"])
        assert out.splitlines()[0] == "t,deviation,bound"

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, ["gt", "bogus"])
        assert code == 1 and "error:" in err

    def test_bad_harmonic_index(self, capsys):
        code, _, _ = run(capsys, ["gt", "harmonic:200", "--grid", "64"])
        assert code == 1

    @pytest.mark.parametrize("spec", ["sharp", "harmonic:3", "random:2", "steady"])
    def test_degenerate_grid(self, capsys, spec):
        code, out, err = run(capsys, ["gt", spec, "--grid", "0"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "grid size" in err

    def test_cutoff_too_large(self, capsys):
        code, _, _ = run(capsys, ["gt", "steady", "--grid", "64",
                                  "--modes", "40"])
        assert code == 1

    def test_csv_matches_grid_reference(self, capsys):
        # the Parseval columns agree with per-time evolution plus grid
        # quadrature at the default grid (256) and cutoff (64)
        code, out, _ = run(capsys, ["gt", "random:3", "--points", "40"])
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.strip().splitlines()[1:]])
        t, dev, bound = rows.T
        field = TorusField.random_field(3, 256)
        ref = np.array([deviation_norm(evolve(field, ti, 64)) for ti in t])
        assert np.allclose(dev, ref, rtol=1e-10, atol=0.0)
        assert np.allclose(bound, GT_CONSTANT * np.exp(-t / 2) * dev[0],
                           rtol=1e-12, atol=0.0)

    def test_oracle_flag(self, capsys):
        code, _, err = run(capsys, ["gt", "sharp", "--points", "20",
                                    "--oracle"])
        assert code == 0 and err.startswith("PASS")

    @pytest.mark.parametrize("modes", ["80", "127"])
    def test_oracle_at_large_cutoffs(self, capsys, modes):
        # the RK4 step scales with |C_k|, so the top mode on the default grid checks too
        code, _, err = run(capsys, ["gt", "harmonic:3", "--points", "20", "--modes", modes,
                                    "--oracle"])
        assert code == 0 and err.startswith("PASS"), err

    def test_oracle_catches_a_planted_disagreement(self, capsys, monkeypatch):
        import hypodecay.goldstein_taylor
        from hypodecay.goldstein_taylor import _propagate

        monkeypatch.setattr(hypodecay.goldstein_taylor, "_propagate",
                            lambda *a: _propagate(*a) * (1.0 + 1e-6))
        code, _, err = run(capsys, ["gt", "harmonic:3", "--points", "20", "--oracle"])
        assert code == 3 and "oracle cross-check failed on mode 1" in err

    def test_oracle_catches_a_planted_deviation_form_error(self, capsys, monkeypatch):
        # the verdict's own sum of squares, not only the propagator, meets RK4
        import hypodecay.goldstein_taylor
        from hypodecay.goldstein_taylor import _propagated_norm_sq

        monkeypatch.setattr(hypodecay.goldstein_taylor, "_propagated_norm_sq",
                            lambda *a: _propagated_norm_sq(*a) * (1.0 + 1e-6))
        code, _, err = run(capsys, ["gt", "harmonic:3", "--points", "20", "--oracle"])
        assert code == 3 and "oracle cross-check failed on mode 1" in err
        gaps = dict(re.findall(r"(propagator|deviation form) gap (\S+?),?\s", err))
        assert float(gaps["deviation form"]) == pytest.approx(1e-6, rel=1e-3)
        assert float(gaps["propagator"]) < 1e-8

    def test_fail_verdict(self, capsys, monkeypatch):
        # planted: a constant below the ratio 1.73... that the sharp datum reaches
        from hypodecay import goldstein_taylor

        monkeypatch.setattr(goldstein_taylor, "GT_CONSTANT", 1.5)
        code, _, err = run(capsys, ["gt", "sharp", "--points", "200"])
        assert code == 3
        assert err.startswith("FAIL max ratio 1.73") and err.count("\n") == 1

    def test_deterministic(self, capsys):
        _, out1, err1 = run(capsys, ["gt", "random:11", "--points", "50"])
        _, out2, err2 = run(capsys, ["gt", "random:11", "--points", "50"])
        assert out1 == out2 and err1 == err2


class TestFlags:
    def test_flags_belong_to_one_subcommand(self, capsys, m52_file):
        # --rates and --seed only on envelope, whose trajectories are the one
        # random draw (gt's random:N carries its own seed); --tol nowhere
        for argv, expect in (
                (["analyze", m52_file, "--rates", "5"], 1),
                (["analyze", m52_file, "--seed", "1"], 1),
                (["analyze", m52_file, "--tol", "1e-9"], 1),
                (["envelope", m52_file, "--tol", "1e-9"], 1),
                (["gt", "steady", "--rates", "5"], 1),
                (["envelope", m52_file, "--points", "5", "--rates", "8"], 0),
                (["gt", "steady", "--points", "5", "--tol", "1e-9"], 1),
                (["gt", "random:7", "--seed", "3"], 1)):
            assert run(capsys, argv)[0] == expect, argv

    @pytest.mark.parametrize("argv, flag", [
        (["envelope", "M", "--t-max", "nan"], "--t-max"),
        (["envelope", "M", "--t-max", "-inf"], "--t-max"),
        (["envelope", "M", "--t-max", "1e400"], "--t-max"),
        (["envelope", "M", "--t-max", "ten"], "--t-max"),
        (["envelope", "M", "--rates", "0"], "--rates"),
        (["envelope", "M", "--rates", "-3"], "--rates"),
        (["envelope", "M", "--rates", "2.5"], "--rates"),
        (["gt", "sharp", "--t-max", "inf"], "--t-max"),
        (["gt", "sharp", "--t-max", "nan"], "--t-max"),
        (["gt", "sharp", "--t-max", "ten"], "--t-max"),
        (["gt", "sharp", "--modes", "2.5"], "--modes"),
        (["envelope", "M", "--t-max", "-3", "--points", "3"], "--t-max"),
        (["envelope", "M", "--points", "0"], "--points"),
        (["envelope", "M", "--trajectories", "-2"], "--trajectories"),
        (["gt", "sharp", "--t-max", "-3"], "--t-max"),
        (["gt", "sharp", "--modes", "0"], "--modes"),
        (["gt", "sharp", "--points", "0"], "--points")])
    def test_out_of_range_values_are_malformed(self, capsys, m52_file, argv, flag):
        argv = [m52_file if a == "M" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert f"argument {flag}:" in err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestExitCodes:
    @pytest.mark.parametrize("argv, mat, expect", [
        (["analyze", "M"], [[481, 640, 0], [-360, -479, 0], [0, 0, 3]], 2),
        (["analyze", "M"], [[1, 0], [0, 1e308]], 2),
        (["envelope", "M"], [[1, 0], [0, 1e308]], 2),
        (["analyze", "M"], np.diag([1e308] * 3), 2),
        (["analyze", "M", "--oracle"], 1e300 * np.diag(np.arange(1.0, 17.0)), 0),
        (["gt", "sharp", "--tol", "1e-9"], None, 1),
        (["gt", "random:7", "--seed", "3"], None, 1),
        (["analyze", "M"], [[-1.0]], 2),
    ], ids=["jordan-3x3", "entry-1e308", "envelope-entry-1e308", "diag-1e308",
            "oracle-1e300", "gt-tol", "gt-seed", "unstable-1x1"])
    def test_exit_code(self, capsys, tmp_path, argv, mat, expect):
        if mat is not None:
            path = write_matrix(tmp_path / "m.json", mat)
            argv = [path if a == "M" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == expect, err
        if expect == 2:
            assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("error", [*_subclasses(HypodecayError), np.linalg.LinAlgError],
                             ids=lambda cls: cls.__name__)
    def test_an_error_maps_by_its_layer(self, capsys, monkeypatch, m52_file, error):
        # 1 for what reading the command line or the file raises, 2 for
        # every other error a command raises
        import hypodecay.cli

        def raising(args):
            raise error("planted")

        monkeypatch.setattr(hypodecay.cli, "cmd_analyze", raising)
        code, out, err = run(capsys, ["analyze", m52_file])
        assert code == (1 if issubclass(error, (MatrixFormatError, CutoffTooLarge)) else 2)
        assert (out, err) == ("", "error: planted\n")


class TestImportCost:
    def test_no_path_loads_scipy(self, tmp_path, mat_complex_pair, mat_triangular,
                                 triangular_w):
        # hypodecay needs numpy only; SciPy is a test dependency. pytest has
        # scipy loaded already: run every path in a fresh interpreter in
        # which any SciPy import raises.
        rng = np.random.default_rng(16)
        lam = rng.uniform(0.2, 1.5, 16) + 1j * rng.uniform(-2.0, 2.0, 16)
        v = np.eye(16) + 0.1 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        m2 = write_matrix(tmp_path / "m2.json", mat_complex_pair)
        m3 = write_matrix(tmp_path / "m3.json", mat_triangular)
        m16 = write_matrix(tmp_path / "m16.json", (v * lam) @ np.linalg.inv(v), with_imag=True)
        fd = write_matrix(tmp_path / "fd.json", [[1 + 1j, 1], [0, 2 - 0.5j]], with_imag=True)
        seed_p = triangular_w @ np.diag([2.0, 4.0, 3.0]) @ triangular_w.T
        script = f"""
import contextlib, io, sys
sys.modules["scipy"] = None
try:
    import scipy.optimize
except ImportError:
    print("blocked")
import numpy as np
import hypodecay
from hypodecay.cli import main

for argv in (["gt", "sharp"], ["envelope", {m2!r}], ["analyze", {m2!r}],
             ["analyze", {fd!r}], ["analyze", {fd!r}, "--oracle"],
             ["envelope", {fd!r}, "--oracle"], ["analyze", {m3!r}], ["analyze", {m16!r}]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
found = hypodecay.minimize_kappa_admissible(np.array({mat_triangular.tolist()!r}), 1.0,
                                            np.array({seed_p.tolist()!r}))
assert found.converged
print("done")
"""
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["blocked", "done"]

    @pytest.mark.parametrize("argv, absent", [
        (["gt", "sharp"], {"condopt", "sharp2d", "rate_family", "propagator",
                           "lyapunov", "spectral"}),
        (["gt", "harmonic:3", "--oracle"], {"condopt", "sharp2d", "rate_family"}),
        (["analyze", "M3"], {"goldstein_taylor", "sharp2d", "rate_family", "propagator"}),
        (["envelope", "M2"], {"goldstein_taylor", "condopt", "lyapunov", "propagator"}),
    ], ids=["gt", "gt-oracle", "analyze-3x3", "envelope"])
    def test_a_command_loads_only_its_modules(self, tmp_path, mat_complex_pair,
                                              mat_triangular, argv, absent):
        files = {"M2": write_matrix(tmp_path / "m2.json", mat_complex_pair),
                 "M3": write_matrix(tmp_path / "m3.json", mat_triangular)}
        argv = [files.get(a, a) for a in argv]
        script = f"""
import contextlib, io, json, sys
import hypodecay
assert "numpy" not in sys.modules
from hypodecay import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(json.dumps(sorted(sys.modules)))
"""
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = {m.removeprefix("hypodecay.") for m in json.loads(proc.stdout)
                  if m.startswith("hypodecay.")}
        assert "cli" in loaded and not loaded & absent, sorted(loaded)
