"""The §5 path coupling for scenario B, transcribed exactly.

For an adjacent pair write v = u + e_λ − e_δ, λ < δ (0-based here).
Let s₁, s₂ be the nonempty-bin counts of v and u.  Normalization forces
v_λ ≥ 2 (else u would not be non-increasing), λ < s₁, and either
s₁ = s₂ or (v_δ = 0, δ = s₁, s₂ = s₁ + 1).

**Removal coupling** (the delicate part the paper devotes §5 to):

* s₁ = s₂ = s: draw i uniform on the s nonempty bins of v and set
  i* = δ if i = λ, i* = λ if i = δ, i* = i otherwise.
* s₁ ≠ s₂: draw i* uniform on the s₂ nonempty bins of u; if i* = δ set
  i = λ; if i* = λ redraw i uniform on the s₁ nonempty bins of v;
  otherwise i = i*.  (One checks the marginal of i is uniform on [s₁].)

Claims 5.1 / 5.2 describe the resulting distance Δ(v ⊖ e_i, u ⊖ e_i*)
∈ {0, 1, 2}; aggregating, E[Δ*] ≤ 1 and Pr[Δ* = 0] ≥ 1/s₂ ≥ 1/n.

**Insertion** is the Lemma 3.3 coupling, which never increases the
distance, so the same two facts hold for (v°, u°) — exactly the
hypotheses of Path Coupling case 2 with ρ = 1, α = 1/n, D ≤ m, giving
Claim 5.3's τ(ε) = O(n·m²·ln ε⁻¹).

All of the above is machine-verified by exact enumeration in
:func:`verify_claim_51_52` / :func:`verify_claim53_facts` (experiment E9).
"""

from __future__ import annotations

import numpy as np

from repro.balls.load_vector import count_above, delta_distance, ominus, oplus
from repro.balls.right_oriented import iter_sources
from repro.balls.rules import SchedulingRule
from repro.coupling.scenario_a_coupling import (
    iter_adjacent_pairs,
    split_adjacent_pair,
)
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "removal_cases_b",
    "coupled_step_b",
    "exact_joint_outcomes_b",
    "expected_delta_b",
    "iter_coupled_laws_b",
    "verify_claim_51_52",
    "verify_claim53_facts",
]


def _nonempty(v: np.ndarray) -> int:
    return count_above(v, 0)


def removal_cases_b(
    v: np.ndarray, u: np.ndarray
) -> list[tuple[float, int, int]]:
    """Exact removal coupling law: list of (probability, i, i*) cases.

    Expects v = u + e_λ − e_δ with λ < δ (use
    :func:`~repro.coupling.scenario_a_coupling.split_adjacent_pair`
    first; this function raises if the orientation is wrong).
    """
    lam, delt, swapped = split_adjacent_pair(v, u)
    if swapped:
        raise ValueError("removal_cases_b expects v = u + e_λ − e_δ, λ < δ")
    s1 = _nonempty(v)
    s2 = _nonempty(u)
    cases: list[tuple[float, int, int]] = []
    if s1 == s2:
        s = s1
        for i in range(s):
            if i == lam:
                istar = delt
            elif i == delt:
                istar = lam
            else:
                istar = i
            cases.append((1.0 / s, i, istar))
    else:
        if not (s2 == s1 + 1 and delt == s1):
            raise AssertionError(
                f"inconsistent nonempty counts: s1={s1}, s2={s2}, δ={delt}"
            )
        for istar in range(s2):
            if istar == delt:
                cases.append((1.0 / s2, lam, istar))
            elif istar == lam:
                for i in range(s1):
                    cases.append((1.0 / (s2 * s1), i, istar))
            else:
                cases.append((1.0 / s2, istar, istar))
    return cases


def coupled_step_b(
    rule: SchedulingRule,
    v: np.ndarray,
    u: np.ndarray,
    seed: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one §5 coupled phase for an adjacent pair; returns (v°, u°)."""
    rng = as_generator(seed)
    lam, delt, swapped = split_adjacent_pair(v, u)
    if swapped:
        v, u = u, v
    n = v.shape[0]
    cases = removal_cases_b(v, u)
    probs = np.array([c[0] for c in cases])
    k = int(rng.choice(len(cases), p=probs / probs.sum()))
    _, i, istar = cases[k]
    vstar = ominus(v, i)
    ustar = ominus(u, istar)
    length = max(rule.source_length(vstar), rule.source_length(ustar))
    rs = rng.integers(0, n, size=length)
    v0 = oplus(vstar, rule.select_from_source(vstar, rs))
    u0 = oplus(ustar, rule.select_from_source(ustar, rule.phi(rs)))
    if swapped:
        v0, u0 = u0, v0
    return v0, u0


def exact_joint_outcomes_b(
    rule: SchedulingRule,
    v: np.ndarray,
    u: np.ndarray,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Exact joint law of (v°, u°) under the §5 coupling (small n, m)."""
    lam, delt, swapped = split_adjacent_pair(v, u)
    if swapped:
        v, u = u, v
    n = v.shape[0]
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for p_rm, i, istar in removal_cases_b(v, u):
        vstar = ominus(v, i)
        ustar = ominus(u, istar)
        length = max(rule.source_length(vstar), rule.source_length(ustar))
        p_src = 1.0 / float(n**length)
        for rs in iter_sources(n, length):
            v0 = oplus(vstar, rule.select_from_source(vstar, rs))
            u0 = oplus(ustar, rule.select_from_source(ustar, rule.phi(rs)))
            if swapped:
                key = (tuple(map(int, u0)), tuple(map(int, v0)))
            else:
                key = (tuple(map(int, v0)), tuple(map(int, u0)))
            out[key] = out.get(key, 0.0) + p_rm * p_src
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"coupled transition law sums to {total}, not 1")
    return out


def expected_delta_b(rule: SchedulingRule, v: np.ndarray, u: np.ndarray) -> float:
    """E[Δ(v°, u°)] under the §5 coupling, by exact enumeration."""
    law = exact_joint_outcomes_b(rule, v, u)
    return sum(
        p * delta_distance(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        for (a, b), p in law.items()
    )


def iter_coupled_laws_b(
    rule: SchedulingRule,
    n: int,
    m: int,
    *,
    canonical_only: bool = True,
):
    """Enumerable coupling-step API: adjacent pairs with their §5 joint law.

    Yields ``(v, u, law)`` with *law* from :func:`exact_joint_outcomes_b`.
    Defaults to canonical orientation only (v = u + e_λ − e_δ, λ < δ),
    which is how the §5 claims are stated and how the lemma certificates
    of :mod:`repro.verify` enumerate them.
    """
    for v, u in iter_adjacent_pairs(n, m):
        if canonical_only and split_adjacent_pair(v, u)[2]:
            continue
        yield v, u, exact_joint_outcomes_b(rule, v, u)


def verify_claim_51_52(n: int, m: int, *, tol: float = 1e-9) -> None:
    """Machine-check the removal-stage facts behind Claims 5.1 / 5.2.

    For every adjacent pair in Ω_m: the coupled removal yields distances
    in {0, 1, 2}, with E[Δ(v*, u*)] ≤ 1 and Pr[Δ(v*, u*) = 0] ≥ 1/s₂.
    """
    for v, u in iter_adjacent_pairs(n, m):
        lam, delt, swapped = split_adjacent_pair(v, u)
        if swapped:
            continue  # each unordered pair checked once in canonical form
        s2 = _nonempty(u)
        e = 0.0
        p0 = 0.0
        for p, i, istar in removal_cases_b(v, u):
            d = delta_distance(ominus(v, i), ominus(u, istar))
            if d not in (0, 1, 2):
                raise AssertionError(
                    f"Claims 5.1/5.2 violated: removal distance {d} for "
                    f"v={v.tolist()}, u={u.tolist()}, (i, i*)=({i}, {istar})"
                )
            e += p * d
            if d == 0:
                p0 += p
        if e > 1.0 + tol:
            raise AssertionError(
                f"E[Δ(v*, u*)] = {e} > 1 for v={v.tolist()}, u={u.tolist()}"
            )
        if p0 < 1.0 / s2 - tol:
            raise AssertionError(
                f"Pr[Δ(v*, u*) = 0] = {p0} < 1/s₂ = {1.0 / s2} for "
                f"v={v.tolist()}, u={u.tolist()}"
            )


def verify_claim53_facts(
    rule: SchedulingRule, n: int, m: int, *, tol: float = 1e-9
) -> tuple[float, float]:
    """Machine-check the full-phase hypotheses behind Claim 5.3.

    For every adjacent pair: E[Δ(v°, u°)] ≤ 1 and Pr[Δ(v°, u°) = 0] ≥
    1/n.  Returns (worst expectation, worst coalescence probability).
    """
    worst_e = 0.0
    worst_p0 = 1.0
    for v, u in iter_adjacent_pairs(n, m):
        lam, delt, swapped = split_adjacent_pair(v, u)
        if swapped:
            continue
        law = exact_joint_outcomes_b(rule, v, u)
        e = 0.0
        p0 = 0.0
        for (a, b), p in law.items():
            d = delta_distance(
                np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            )
            e += p * d
            if d == 0:
                p0 += p
        worst_e = max(worst_e, e)
        worst_p0 = min(worst_p0, p0)
        if e > 1.0 + tol:
            raise AssertionError(
                f"Claim 5.3 hypothesis violated: E[Δ°] = {e} > 1 for "
                f"v={v.tolist()}, u={u.tolist()}"
            )
        if p0 < 1.0 / n - tol:
            raise AssertionError(
                f"Claim 5.3 hypothesis violated: Pr[Δ° = 0] = {p0} < 1/n "
                f"for v={v.tolist()}, u={u.tolist()}"
            )
    return worst_e, worst_p0
