"""Reference forms for the renewal tests: the flat evaluator that finds the
distinct exit problems of a batch with np.unique and gathers them back, and
the seed search that flattens its offset grid into a list of ordered
candidates.  The axis-wise evaluator and seed must reproduce both bit for
bit.  Also the rows of a brute-force box, the recorder of the grids that
the cold seed ranks, and the check that the seed's winner is priced, and
named, as the renewal quadrature prices it."""

import contextlib

import numpy as np

from growth_frictions import _slope, lab, qvi
from growth_frictions.market import (EPS, from_centered, growth_integrand_transformed,
                                     no_trade_floor, to_centered, wealth_factor)
from growth_frictions.qvi import BoundaryCandidate, ParameterDegeneracy


def renewal_batch(mp, cp, a, al, be, b):
    """Growth rates of the candidates of flat arrays (a, alpha, beta, b):
    each distinct (a, b, restart point) exit problem priced once."""
    n = np.size(a)
    a_vals, a_code = np.unique(a, return_inverse=True)
    b_vals, b_code = np.unique(b, return_inverse=True)
    y_vals, y_code = np.unique(np.concatenate([al, be]), return_inverse=True)
    dims = (a_vals.size, b_vals.size, y_vals.size)
    triples, problem = np.unique(
        np.ravel_multi_index((np.tile(a_code, 2), np.tile(b_code, 2), y_code), dims),
        return_inverse=True)
    i_a, i_b, i_y = np.unravel_index(triples, dims)
    lo, hi, y = to_centered(a_vals)[i_a], to_centered(b_vals)[i_b], to_centered(y_vals)[i_y]
    c = mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma

    def per_candidate(per_problem):
        out = per_problem[problem]
        return out[:n], out[n:]

    p_low, p_high = per_candidate(lab.exit_prob_up(c, mp.sigma, lo, hi, y))
    bad = (p_low <= 1e-12) | (p_low >= 1.0 - 1e-12) | (p_high <= 1e-12) | (p_high >= 1.0 - 1e-12)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise lab.DegenerateChain(
            "restart chain numerically absorbing: exit probabilities "
            f"p(alpha)={p_low[k]:.3e}, p(beta)={p_high[k]:.3e}")
    m, w, _ = lab._exit_problems(lambda z: growth_integrand_transformed(mp, z),
                                 c, mp.sigma, lo, hi, y)
    m_low, m_high = per_candidate(m)
    w_low, w_high = per_candidate(w)
    cost_low = np.log(wealth_factor(cp, a, al))
    cost_high = np.log(wealth_factor(cp, b, be))
    pi_low = (1.0 - p_high) / (1.0 - p_high + p_low)
    pi_high = p_low / (1.0 - p_high + p_low)
    reward = (pi_low * (w_low + p_low * cost_high + (1.0 - p_low) * cost_low)
              + pi_high * (w_high + p_high * cost_high + (1.0 - p_high) * cost_low))
    length = pi_low * m_low + pi_high * m_high
    return mp.r + reward / length


def box_rows(result):
    """The (a, alpha, beta, b, growth) rows of a brute-force result, one per
    candidate of its box in C order of the axes."""
    grid = np.meshgrid(*result.axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grid] + [result.growth.ravel()])


def oracle_seed(mp, cp, A, B):
    """The renewal seed around the band [A, B] over the flattened meshgrid
    of logit offsets, its ordered candidates ranked by renewal_batch and its
    winner priced by the closed form."""
    a_lim = to_centered(A)
    b_lim = to_centered(B)
    widen = np.geomspace(5e-3, 4.0, 14)
    inset = np.geomspace(2e-3, 2.0, 12)
    offsets = (widen, widen, inset, inset)
    best = None
    for _ in range(2):
        u1, u2, v1, v2 = (g.ravel() for g in np.meshgrid(*offsets, indexing="ij"))
        a_y, b_y = a_lim - u1, b_lim + u2
        al_y, be_y = a_y + v1, b_y - v2
        keep = al_y < be_y
        a, al, be, b = (from_centered(v[keep]) for v in (a_y, al_y, be_y, b_y))
        keep2 = (a > EPS) & (b < 1.0 - EPS)
        a, al, be, b = a[keep2], al[keep2], be[keep2], b[keep2]
        values = renewal_batch(mp, cp, a, al, be, b)
        k = int(np.argmax(values))
        best = (float(a[k]), float(al[k]), float(be[k]), float(b[k]))
        a_k, al_k, be_k, b_k = (to_centered(v) for v in best)
        offsets = tuple(gap * np.geomspace(0.5, 2.0, 7) for gap in
                        (a_lim - a_k, b_k - b_lim, al_k - a_k, b_k - be_k))
    a, al, be, b = best
    value = float(_slope.policy_value(mp, cp, a, al, be, b))
    floor = no_trade_floor(mp)
    if not value - mp.r > floor:
        raise ParameterDegeneracy(
            f"no interior optimum: best policy growth {value:.10g} does not exceed "
            f"r + max{{f(0), f(1)}} = {mp.r + floor:.10g}")
    x0 = from_centered(0.5 * (to_centered(al) + to_centered(be)))
    return BoundaryCandidate(l=value - mp.r, x0=x0, a=a, alpha=al, beta=be, b=b)


def seed_outcome(seed, mp, cp, band):
    """repr of seed(mp, cp, A, B) around the band (A, B), or of the error it
    raised."""
    try:
        return repr(seed(mp, cp, *band))
    except (ValueError, RuntimeError) as err:
        return f"{type(err).__name__}: {err}"


def ranked_batches(monkeypatch, perturb=None):
    """The candidate grids the cold seed ranks once this returns, each as
    (a, alpha, beta, b, values) on the grid's broadcast shape, with perturb
    applied to the ranking values of the ordered candidates (alpha < beta,
    the ones the seed compares) in C order."""
    batches = []
    price = _slope.policy_value

    def spy(mp, cp, *axes):
        values = price(mp, cp, *axes)
        cand = tuple(np.broadcast_arrays(*axes))
        batches.append(cand + (values,))
        if perturb is not None:
            ordered = cand[1] < cand[2]
            values[ordered] = perturb(values[ordered])
        return values

    monkeypatch.setattr(qvi, "policy_value", spy)
    return batches


def assert_seed_names_as_the_oracle(mp, cp, monkeypatch):
    """Every grid the cold seed ranks is finite or -inf, and at the winner
    the closed form and the renewal quadrature agree within 1e-12 and fall
    on the same side of the floor r + max{f(0), f(1)}.  Returns whether the
    seed ran: a market whose best band does not beat the floor has none."""
    try:
        band = _slope.best_band(mp, cp.gamma)[2:]
    except ParameterDegeneracy:
        return False
    batches = ranked_batches(monkeypatch)
    with contextlib.suppress(ParameterDegeneracy):
        qvi._oracle_seed(mp, cp, *band)
    assert len(batches) == 2
    for *_, values in batches:
        assert not np.any(np.isnan(values) | np.isposinf(values))
    *cand, values = batches[-1]
    k = int(np.argmax(values))
    closed = float(values.flat[k])
    quadrature = float(lab._renewal_batch(mp, cp, *(v.flat[k] for v in cand)))
    assert abs(closed - quadrature) <= 1e-12
    floor = no_trade_floor(mp)
    assert (closed - mp.r > floor) == (quadrature - mp.r > floor)
    return True
