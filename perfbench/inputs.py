"""Seeded inputs for the benchmark workloads.

Every generator builds a system from its spectrum and eigenvectors, so the
quantities the checks need (overlap alpha, spectral gap, regime, equal-weight
kappa) are known from the construction and not read back from hypodecay.
No generator rejects draws: each one returns after a fixed number of random
numbers at every n <= 16.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

EQUAL_EIGENVALUES = "EqualEigenvalues"
EQUAL_REAL_PARTS = "EqualRealParts"
EQUAL_IMAGINARY_PARTS = "EqualImaginaryParts"
FULLY_DISTINCT = "FullyDistinct"

#: make-up of one certify-2x2 batch drawn from the seed; FullyDistinct is the
#: majority because it is the only regime that runs the numerical sup search
SEEDED_2X2 = ((EQUAL_EIGENVALUES, 2), (EQUAL_REAL_PARTS, 5),
              (EQUAL_IMAGINARY_PARTS, 5), (FULLY_DISTINCT, 20))

#: (alpha, gamma, delta) whose sup_m_plus scan step is longer than the
#: period 2 pi / delta, so the coarse scan misses the first peak
ALIASED = ((0.5, 1e-4, 50.0), (0.5, 1e-3, 30.0), (0.9, 1e-2, 200.0))

FAULT_ALIAS = "aliased sup_m_plus"
FAULT_RESCALE = "time-rescaling"

#: sizes of the certify-nd weight searches; one n = 16 system already costs
#: a third of the pass, the n = 3 systems are cheap and steady the kappa mean
ND_SIZES = (3, 3, 3, 3, 3, 3, 8, 8, 16)

#: adjoint eigenvectors of the triangular test system, unit columns
W3 = np.array([[1.0, 1.0, 1.0],
               [0.0, 1.0, 1.0],
               [0.0, 0.0, 1.0]]) @ np.diag([1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)])

#: kappa of the best weighted P for the triangular system, 7 + 4 sqrt(3)
KAPPA_TRIANGULAR = 7.0 + 4.0 * np.sqrt(3.0)


@dataclass
class System:
    """A matrix C together with what its construction says about it.

    right holds the construction's right eigenvectors as columns, so that
    C = right diag(eigenvalues) right^-1 up to rounding. case and alpha are
    set for 2x2 systems; fault names the known program fault that the system
    exposes, if any.
    """

    name: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    case: str | None = None
    alpha: float = float("nan")
    fault: str | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def mu(self) -> float:
        return float(self.eigenvalues.real.min())

    @cached_property
    def kappa_equal(self) -> float:
        """Condition number of P = W W* with unit adjoint eigenvectors W."""
        w = np.linalg.inv(self.right).conj().T
        w = w / np.linalg.norm(w, axis=0)
        ev = np.linalg.eigvalsh(w @ w.conj().T)
        return float(ev[-1] / ev[0])


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input family; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _from_spectrum(name, lam, v, **kw) -> System:
    lam = np.asarray(lam, dtype=complex)
    c = (v * lam) @ np.linalg.inv(v)
    return System(name=name, matrix=c, eigenvalues=lam, right=v, **kw)


def overlap_2x2(name, lam, alpha, q=None, **kw) -> System:
    """2x2 system with eigenvalues lam and eigenvector overlap alpha.

    In dimension two the left and right overlaps coincide, so alpha is the
    system's alpha; q (default identity) rotates the eigenbasis unitarily.
    """
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]], dtype=complex)
    if q is not None:
        v = q @ v
    return _from_spectrum(name, lam, v, alpha=float(alpha), **kw)


def seeded_2x2(rng, case: str, index: int) -> System:
    mu = rng.uniform(0.2, 1.5)
    omega = rng.uniform(-1.5, 1.5)
    alpha = rng.uniform(0.05, 0.9)
    gamma = rng.uniform(0.1, 1.3)
    delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
    q = _random_unitary(rng, 2)
    name = f"{case}-{index}"
    if case == EQUAL_EIGENVALUES:
        lam = mu + 1j * omega
        return System(name=name, matrix=lam * np.eye(2, dtype=complex),
                      eigenvalues=np.array([lam, lam]), right=np.eye(2, dtype=complex),
                      case=case, alpha=0.0)
    if case == EQUAL_REAL_PARTS:
        gamma = 0.0
    elif case == EQUAL_IMAGINARY_PARTS:
        delta = 0.0
    lam = [mu + 1j * omega, mu + gamma + 1j * (omega + delta)]
    return overlap_2x2(name, lam, alpha, q, case=case)


def batch_2x2(seed: int) -> list[System]:
    """Seeded systems of every regime, then the fixed fault cases."""
    rng = _rng(seed, 2)
    systems = [seeded_2x2(rng, case, i)
               for case, count in SEEDED_2X2 for i in range(count)]
    for alpha, gamma, delta in ALIASED:
        systems.append(overlap_2x2(
            f"aliased-{alpha}-{gamma}-{delta}", [1.0, 1.0 + gamma + 1j * delta],
            alpha, case=FULLY_DISTINCT, fault=FAULT_ALIAS))
    # s C with s = 1e-12 must keep the sharp constant sqrt(3) of C
    s = 1e-12
    lam = s * np.array([0.5 - 0.5j * np.sqrt(3.0), 0.5 + 0.5j * np.sqrt(3.0)])
    unit = complex_pair()
    systems.append(System(name="rescaled-complex-pair", matrix=s * unit.matrix,
                          eigenvalues=lam, right=unit.right, case=EQUAL_REAL_PARTS,
                          alpha=0.5, fault=FAULT_RESCALE))
    return systems


def complex_pair() -> System:
    """[[1, -1], [1, 0]]: eigenvalues (1 -+ i sqrt 3)/2, overlap 1/2, c = sqrt 3."""
    lam = np.array([0.5 - 0.5j * np.sqrt(3.0), 0.5 + 0.5j * np.sqrt(3.0)])
    v = np.array([[1.0, 1.0], [1.0 - lam[0], 1.0 - lam[1]]], dtype=complex)
    v = v / np.linalg.norm(v, axis=0)
    return System(name="complex-pair", matrix=np.array([[1.0, -1.0], [1.0, 0.0]], dtype=complex),
                  eigenvalues=lam, right=v, case=EQUAL_REAL_PARTS, alpha=0.5)


def triangular() -> System:
    """[[1,0,0],[1,2,0],[1,1,3]], whose best weighted kappa is 7 + 4 sqrt(3)."""
    return System(name="triangular-3",
                  matrix=np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 1.0, 3.0]],
                                  dtype=complex),
                  eigenvalues=np.array([1.0, 2.0, 3.0], dtype=complex),
                  right=np.linalg.inv(W3.conj().T).astype(complex))


def seeded_nd(rng, n: int, index: int) -> System:
    """Random spectrum and a non-normal eigenbasis V = Q (I + 0.6 N / |N|).

    The perturbation has norm 0.6, so the singular values of V lie in
    [0.4, 1.6] and, after scaling to unit columns, cond(V) <= 16 by
    construction: no draw is ever rejected.
    """
    lam = np.sort(rng.uniform(0.2, 1.5, size=n)) + 1j * rng.uniform(-2.0, 2.0, size=n)
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = _random_unitary(rng, n) @ (np.eye(n) + 0.6 * noise / np.linalg.norm(noise, 2))
    return _from_spectrum(f"seeded-{n}-{index}", lam, v / np.linalg.norm(v, axis=0))


def batch_nd(seed: int) -> list[System]:
    rng = _rng(seed, 3)
    return [seeded_nd(rng, n, i) for i, n in enumerate(ND_SIZES)] + [triangular()]


def cli_16(seed: int) -> System:
    return seeded_nd(_rng(seed, 16), 16, 0)


def admissible_seed() -> np.ndarray:
    """P(2, 4, 3, beta = 0) = W3 diag(2, 4, 3) W3*, admissible at mu = 1."""
    return W3 @ np.diag([2.0, 4.0, 3.0]) @ W3.conj().T


def write_matrix(path: Path, system: System) -> Path:
    """Matrix file in the CLI's {"n", "re", "im"} format."""
    c = system.matrix
    path.write_text(json.dumps({"n": system.n, "re": c.real.tolist(),
                                "im": c.imag.tolist()}))
    return path
