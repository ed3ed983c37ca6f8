"""Seeded families of n-dimensional matrices near and at repeated eigenvalues.

The Jordan families are rotated Jordan blocks, which rounding splits into
clusters that no certificate may cover: a block of size 2 beside the
eigenvalue 3, and single blocks of size 3 and 4. The semisimple families
repeat an eigenvalue with a full eigenbasis, under a unitary Q or under a
similarity S of prescribed condition number, and must stay certifiable.
Each generator takes a numpy Generator and returns one draw.
"""

import numpy as np


def unitary(rng, n):
    """Q of the QR factorization of an n x n complex Gaussian."""
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


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
