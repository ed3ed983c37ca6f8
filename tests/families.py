"""The tests' seeded random draws; each generator takes a numpy Generator.

Unitaries and eigenbases build 2x2 systems of prescribed overlap, stable
systems and the draws of perfbench's batch_2x2 and seeded_nd, built here so
that the tests do not import the benchmark. Near and at repeated eigenvalues,
the Jordan families are rotated Jordan blocks, which rounding splits into
clusters that no certificate may cover: a block of size 2 beside the
eigenvalue 3, and single blocks of size 3 and 4. The semisimple families
repeat an eigenvalue with a full eigenbasis, under a unitary Q or a
similarity S of prescribed condition number, and must stay certifiable.
"""

import numpy as np


def gaussian(rng, n):
    """An n x n complex Gaussian: real part drawn first."""
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def unitary(rng, n):
    """Q of the QR factorization of an n x n complex Gaussian."""
    return np.linalg.qr(gaussian(rng, n))[0]


def orthogonal(rng, n):
    """Q of the QR factorization of an n x n real Gaussian."""
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def haar_unitary(rng, n):
    """unitary(rng, n) with its columns' phases turned so that R has a
    positive diagonal, as perfbench draws it."""
    q, r = np.linalg.qr(gaussian(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spread(q, noise):
    """Q (I + 0.6 N/|N|): singular values in [0.4, 1.6]."""
    return q @ (np.eye(len(q)) + 0.6 * noise / np.linalg.norm(noise, 2))


def basis(rng, n):
    """V = Q (I + 0.6 N/|N|), Q = unitary(rng, n) drawn before N."""
    return _spread(unitary(rng, n), gaussian(rng, n))


def seeded_nd(rng, n):
    """The C of perfbench's seeded_nd(rng, n): a sorted random spectrum and
    V = Q (I + 0.6 N/|N|) with unit columns, N drawn before Q = haar_unitary."""
    lam = np.sort(rng.uniform(0.2, 1.5, size=n)) + 1j * rng.uniform(-2.0, 2.0, size=n)
    noise = gaussian(rng, n)
    v = _spread(haar_unitary(rng, n), noise)
    v /= np.linalg.norm(v, axis=0)
    return (v * lam) @ np.linalg.inv(v)


def overlap_basis(alpha, rng=None):
    """Unit right eigenvectors [[1, alpha], [0, sqrt(1 - alpha^2)]] of overlap
    alpha, turned by unitary(rng, 2) if rng is given."""
    v = np.array([[1.0, alpha], [0.0, np.sqrt(1.0 - alpha * alpha)]], dtype=complex)
    return v if rng is None else unitary(rng, 2) @ v


def similar(v, lam):
    """V diag(lam) V^-1, the matrix with eigenvalues lam and eigenvectors the columns of v."""
    return v @ np.diag(lam) @ np.linalg.inv(v)


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
    return similar(overlap_basis(alpha, rng), lam), lam, alpha


def batch_2x2_matrices(seed):
    """The seeded draws of each regime of perfbench's batch_2x2(seed), then,
    at seed 1 only, its fixed aliased and rescaled systems (perfbench appends
    those at every seed)."""
    rng = np.random.default_rng([seed, 2])
    found = []
    for case, count in (("EqualEigenvalues", 2), ("EqualRealParts", 5),
                        ("EqualImaginaryParts", 5), ("FullyDistinct", 20)):
        for _ in range(count):
            mu, omega, alpha, gamma = (rng.uniform(0.2, 1.5), rng.uniform(-1.5, 1.5),
                                       rng.uniform(0.05, 0.9), rng.uniform(0.1, 1.3))
            delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            q = haar_unitary(rng, 2)
            if case == "EqualEigenvalues":
                found.append((mu + 1j * omega) * np.eye(2, dtype=complex))
                continue
            gamma, delta = (0.0 if case == "EqualRealParts" else gamma,
                            0.0 if case == "EqualImaginaryParts" else delta)
            v = q @ overlap_basis(alpha)
            found.append((v * [mu + 1j * omega, mu + gamma + 1j * (omega + delta)])
                         @ np.linalg.inv(v))
    if seed == 1:
        for alpha, gamma, delta in ((0.5, 1e-4, 50.0), (0.5, 1e-3, 30.0), (0.9, 1e-2, 200.0)):
            found.append(similar(overlap_basis(alpha), [1.0, 1.0 + gamma + 1j * delta]))
        found.append(1e-12 * np.array([[1.0, -1.0], [1.0, 0.0]], dtype=complex))
    return found


def make_stable_system(rng, n, re=(0.1, 1.5), im=(-2.0, 2.0)):
    """Random diagonalizable positive stable system with a mildly conditioned
    eigenbasis and bounded operator norm, for propagator cross-checks: real
    and imaginary parts of the spectrum uniform on re and im."""
    lam = rng.uniform(*re, size=n) + 1j * rng.uniform(*im, size=n)
    while True:
        v = np.eye(n) + 0.35 * gaussian(rng, n)
        if np.linalg.cond(v) < 6.0:
            break
    c = v @ np.diag(lam) @ np.linalg.inv(v)
    norm_c = np.linalg.norm(c, 2)
    if norm_c > 4.5:
        c *= 4.5 / norm_c
    return c


def rotated_pair(rng, b):
    """Q [[1, b], [0, 2]] Q* for Q = unitary(rng, 2)."""
    return _rotated(rng, [[1.0, b], [0.0, 2.0]])


def _rotated(rng, c):
    q = unitary(rng, len(c))
    return q @ np.asarray(c, dtype=complex) @ q.conj().T


def jordan2_beside_3(rng, b):
    """Q [[2, b, 0], [0, 2, 0], [0, 0, 3]] Q*."""
    return _rotated(rng, [[2.0, b, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])


def jordan(rng, n, b):
    """Q (2 I + b N) Q* with N the nilpotent shift of size n."""
    return _rotated(rng, 2.0 * np.eye(n) + b * np.eye(n, k=1))


def semisimple_unitary(rng):
    """Q diag(1, 1, 2) Q*."""
    return _rotated(rng, np.diag([1.0, 1.0, 2.0]))


def semisimple_similar(rng, cond):
    """S diag(1, 1, 2) S^-1, with singular values of S from 1 to 1/cond."""
    s = unitary(rng, 3) @ np.diag(np.geomspace(1.0, 1.0 / cond, 3)) @ unitary(rng, 3)
    return s @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(s)


#: (family, draws of one seeded stream), each family at the parameters of
#: its measured margins
JORDAN = {
    **{f"jordan2-beside-3-b{b:g}": lambda rng, b=b: jordan2_beside_3(rng, b)
       for b in (0.1, 1.0, 10.0)},
    **{f"jordan{n}-b{b:g}": lambda rng, n=n, b=b: jordan(rng, n, b)
       for n in (3, 4) for b in (0.1, 1.0)},
}
SEMISIMPLE = {
    "semisimple-unitary": semisimple_unitary,
    **{f"semisimple-cond{c:g}": lambda rng, c=c: semisimple_similar(rng, c) for c in (1e2, 1e4)},
}


def draws(family, seed, count):
    """count draws of one family from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [family(rng) for _ in range(count)]
