"""Reference forms for the stacked-Jacobian tests: the column-by-column
forward-difference Jacobian that the stacked call must reproduce bit for
bit, and a recorder of the candidates a solve passes to its residual."""

import numpy as np
import pytest

from growth_frictions import _slope


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
