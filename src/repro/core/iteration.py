"""Phase 2 — deviation evaluation and iterative modulation (§V, Alg. 2).

Per block, given param_S/param_L and sketch0:

1. **Case 5** — ``dev = |S|/|L| ≈ 1``: sketch0 is already the data
   division optimum, return it (Alg. 2 lines 1–4).
2. Choose q from dev (§IV-A4), build ``D = kα + c − sketch`` (Thm. 3),
   classify into Cases 1–4 from ``sign(D⁰)`` and ``|S| vs |L|`` (§V-B/C).
3. Iterate: |D| shrinks by η per round; the two estimators take steps in
   the ratio λ per the case's strategy, until |D| ≤ thr. The block
   answer is ``avg = kα + c`` (Alg. 2 line 12).

Step geometry (see DESIGN.md §2 for the interpretive choices):

* Cases 2/3 (consistent indicators, the common path): the estimators
  move toward each other; the l-estimator — believed closer to μ — takes
  the λ-shorter step. They meet at ``(c + λ·sketch0)/(1 + λ)``.
* Cases 1/4 (unbalanced sampling, rare): both move in the same
  direction, the l-estimator farther from μ taking the λ-longer step,
  extrapolating past sketch0 toward μ (Theorem 1's second picture).
* ``case3_literal=True`` reproduces §V-C Case 3 verbatim (both up,
  ``kδα = λ·δsketch``), which extrapolates past c by λ/(1−λ)× the gap.

Answers are optionally clamped to the sketch confidence interval
``sketch0 ± t_e·e`` — the modulation boundary of §VII-B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.config import ISLAConfig
from repro.core.leverage import theorem3_kc
from repro.core.moments import RegionMoments


@dataclass(frozen=True)
class BlockAnswer:
    """Outcome of Phase 2 on one block (diagnostics included).

    ``k`` and ``c`` are None when Case 5 returned sketch0 before
    Theorem 3 was evaluated.
    """

    partial: float
    case: int
    alpha: float
    q: float
    dev: float
    u: int
    v: int
    k: float | None
    c: float | None
    d0: float
    iters: int
    clamped: bool


def classify_case(d0: float, u: int, v: int) -> int:
    """Cases 1–4 of §V-C from the two deviation indicators (§V-B)."""
    if d0 < 0:
        return 1 if u < v else 2
    return 3 if u < v else 4


def iteration_upper_bound(d0: float, thr: float, eta: float = 0.5) -> int:
    """§VI-B bound: t = ⌈log_{1/η}(|D⁰|/thr)⌉ iterations to |D| ≤ thr."""
    if abs(d0) <= thr:
        return 0
    return math.ceil(math.log(abs(d0) / thr) / math.log(1.0 / eta))


def _answer(
    m_s: RegionMoments,
    m_l: RegionMoments,
    sketch0: float,
    cfg: ISLAConfig,
) -> BlockAnswer:
    """Run Algorithm 2 on one block (unclamped)."""
    u, v = m_s.n, m_l.n
    if u == 0 or v == 0:
        # One side of the distribution produced no samples — the data
        # boundaries give no dev signal; fall back to the sketch.
        return BlockAnswer(sketch0, 5, 0.0, 1.0, math.inf if v == 0 else 0.0,
                           u, v, None, None, 0.0, 0, False)
    dev = u / v
    lo, hi = cfg.dev_case5
    if lo < dev < hi:
        return BlockAnswer(sketch0, 5, 0.0, 1.0, dev, u, v, None, None, 0.0, 0, False)

    q = cfg.leverage_allocating_q(dev)
    k, c = theorem3_kc(m_s, m_l, q)
    d0 = c - sketch0
    if d0 == 0.0:
        return BlockAnswer(c, 5, 0.0, q, dev, u, v, k, c, 0.0, 0, False)
    case = classify_case(d0, u, v)

    d = d0
    sketch = sketch0
    t = 0.0  # t = k·α, the leverage modulation of the l-estimator
    thr = cfg.threshold
    lam, eta = cfg.lam, cfg.eta
    iters = 0
    while abs(d) > thr and iters < cfg.max_iters:
        delta = (1.0 - eta) * abs(d)  # |D| closes by this much this round
        if case == 2:
            # c, μ < sketch0: μ̂ up slightly (λ share), sketch down.
            ds = delta / (1.0 + lam)
            dt = lam * ds
            sketch -= ds
            t += dt
        elif case == 3:
            if cfg.case3_literal:
                # §V-C verbatim: both increase, kδα = λ·δsketch.
                ds = delta / (1.0 - lam)
                dt = lam * ds
                sketch += ds
                t += dt
            else:
                # Symmetric to Case 2: sketch up, μ̂ down slightly.
                ds = delta / (1.0 + lam)
                dt = lam * ds
                sketch += ds
                t -= dt
        elif case == 1:
            # Unbalanced sampling, c < sketch0 < μ: both up, μ̂ more.
            dt = delta / (1.0 - lam)
            ds = lam * dt
            sketch += ds
            t += dt
        else:  # case 4: c > sketch0 > μ: both down, μ̂ more (α negative).
            dt = delta / (1.0 - lam)
            ds = lam * dt
            sketch -= ds
            t -= dt
        d *= eta
        iters += 1

    avg = c + t
    alpha = t / k if k != 0.0 else 0.0
    return BlockAnswer(avg, case, alpha, q, dev, u, v, k, c, d0, iters, False)


def modulate_block(
    m_s: RegionMoments,
    m_l: RegionMoments,
    sketch0: float,
    cfg: ISLAConfig,
) -> BlockAnswer:
    """Phase 2 with the §VII-B sketch-confidence clamp applied."""
    ans = _answer(m_s, m_l, sketch0, cfg)
    if not cfg.clamp_to_sketch_ci:
        return ans
    radius = cfg.t_e * cfg.e
    lo, hi = sketch0 - radius, sketch0 + radius
    if ans.partial < lo or ans.partial > hi:
        return replace(ans, partial=min(max(ans.partial, lo), hi), clamped=True)
    return ans
