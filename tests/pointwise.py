"""Matrix-free pointwise application of the unscaled extension operator.

A test helper, not a test module: the truncation-order and row-scaling tests
in test_extension_op.py and the oracle residual test in test_oracles.py apply
the operator L v = y^(1-sigma) Lap_c v + (1-sigma) y^(-sigma) Dy_d v to
analytically sampled fields through it, using the library's own stencil
windows (core.STENCIL_WINDOWS, looked up node by node) and their fd_weights.
"""

import numpy as np

from fracpme.core import STENCIL_WINDOWS, check_sigma, check_stencil, stencil_families
from fracpme.extension_op import fd_weights


def window(family: tuple[int, int], j: int, n: int) -> tuple[int, ...]:
    """The offsets of a stencil family at node j (1 <= j <= n-1) of the nodes 0..n."""
    first, middle, last = STENCIL_WINDOWS[family]
    return first if j == 1 else last if j == n - 1 else middle


def apply_operator(values: np.ndarray, dx: float, sigma: float,
                   c: int = 2, d: int | None = 1) -> np.ndarray:
    """Matrix-free pointwise application of the unscaled operator at interior nodes.

    Returns L v with physical units on the (I-1) x (K-1) interior block; meant
    for truncation-error studies against analytically sampled fields, not for
    production solves.  Stencil sums are taken over array slices: the x sums
    once per distinct x window (at most 3), the y sums once per row k.
    """
    sigma = check_sigma(sigma)
    vals = np.asarray(values, dtype=float)
    I = vals.shape[0] - 1
    K = vals.shape[1] - 1
    check_stencil(sigma, c, d, I, K)
    drifts = stencil_families(sigma, c, d)[1:]      # the (1, d) family, where there is one
    inv_dx2 = 1.0 / (dx * dx)
    # x sums at every interior node, grouped by stencil window
    windows: dict[tuple[int, ...], list[int]] = {}
    for i in range(1, I):
        windows.setdefault(window((2, c), i, I), []).append(i)
    lap_x = np.empty((I - 1, K - 1))
    for xo, nodes in windows.items():
        ii = np.asarray(nodes)
        lap_x[ii - 1] = _stencil_sum(vals[:, 1:K], ii, xo, fd_weights(xo, 2))
    out = np.empty((I - 1, K - 1))
    for k in range(1, K):
        y = k * dx
        yo = window((2, c), k, K)
        lap_y = _stencil_sum(vals[1:I].T, k, yo, fd_weights(yo, 2))
        res = y ** (1.0 - sigma) * ((lap_x[:, k - 1] + lap_y) * inv_dx2)
        for family in drifts:
            fo = window(family, k, K)
            dy = _stencil_sum(vals[1:I].T, k, fo, fd_weights(fo, 1)) / dx
            res += (1.0 - sigma) * y ** (-sigma) * dy
        out[:, k - 1] = res
    return out


def _stencil_sum(vals: np.ndarray, at, offsets: tuple[int, ...], weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * vals[at + offsets[j]] over the first axis, in stencil order."""
    acc = weights[0] * vals[at + offsets[0]]
    for o, w in zip(offsets[1:], weights[1:]):
        acc = acc + w * vals[at + o]
    return acc
