"""Reference forms for the stacked-Jacobian tests: the column-by-column
forward-difference Jacobian that the stacked call must reproduce bit for
bit, a recorder of the candidates a solve passes to its residual, and the
markets of the benchmark's cold solves."""

import numpy as np
import pytest

from growth_frictions import _slope

# the seven solve_domain anchors of the benchmark: r, mu, sigma, gamma, delta
ANCHORS = [(0.0, 0.096, 0.4, 0.003, 1e-3), (0.0, 0.096, 0.4, 0.003, 1e-6),
           (0.0, 0.040, 0.4, 0.003, 1e-3), (0.01, 0.154, 0.4, 0.003, 1e-3),
           (0.02, 0.1, 0.4, 0.02, 1e-2), (0.03, 0.09, 0.3, 0.05, 5e-3),
           (0.0, 0.144, 0.4, 0.05, 1e-2)]


def column_jacobian(residual, v, fv):
    """One residual call per column, each at its forward point."""
    n = v.size
    jac = np.empty((n, n))
    for j in range(n):
        h = _slope._FD_STEP * max(1.0, abs(v[j]))
        vp = v.copy()
        vp[j] += h
        jac[:, j] = (np.asarray(residual(vp)) - fv) / h
    return jac


def record_residual(module, name, solve):
    """Run solve() with module.name(mp, costs, cand) wrapped; returns its
    result and every candidate the residual accepted, stacked ones included,
    in call order."""
    accepted = []
    original = getattr(module, name)

    def recording(mp, costs, cand):
        out = original(mp, costs, cand)
        accepted.append(cand)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, recording)
        result = solve()
    return result, accepted


def is_stacked(cand):
    return np.ndim(cand.x0) == 1
