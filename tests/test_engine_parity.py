"""Engine-parity suite: the three engines agree on every registered spec.

Three layers of agreement, from mechanical to distributional:

* removal laws: ``quantile_batch`` must equal row-wise ``quantile`` and
  both must invert the ``pmf`` CDF;
* ExactEngine: kernels are row-stochastic for every registered spec and
  match an independently coded legacy-style constructor on n, m ≤ 6
  (the pre-engine per-process builders, reimplemented here as the
  reference);
* Scalar vs Vectorized: seeded KS test on the max-load sample at a
  fixed horizon from identical starts — the two engines consume
  randomness differently by design, so the check is distributional.

The batched kernels' whole-fleet search helpers are checked against
per-row searches on row subsets and boundary rows, and the kernels —
the synchronous (RBB) one included — against the row-by-row replay of
:mod:`repro.verify.differential`.

Plus the contract edges: ADAP(χ) is rejected by the vectorized engine
with a sequential-sampling reason, ``import repro`` raises no
DeprecationWarning and loads neither scipy's optimizer, integrator and
statistics nor networkx, and the RBB step takes no page faults per
step.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.balls.load_vector import LoadVector, ominus, oplus
from repro.balls.rules import ABKURule, SchedulingRule, UniformRule
from repro.engine import (
    BallRemoval,
    BinRemoval,
    ExactEngine,
    ScalarEngine,
    VectorizedEngine,
    WeightedRemoval,
    engine_support,
    registered_specs,
    scenario_a_spec,
)
from repro.engine.spec import open_spec, relocation_spec
from repro.utils.partitions import all_partitions

SPECS = registered_specs()


# ---------------------------------------------------------------------------
# Removal-law agreement: pmf / quantile / quantile_batch
# ---------------------------------------------------------------------------

LAWS = [
    BallRemoval(),
    BinRemoval(),
    WeightedRemoval(lambda load: float(load) ** 2 if load > 0 else 0.0,
                    name="w(l^2)"),
]


@pytest.mark.parametrize("law", LAWS, ids=[law.name for law in LAWS])
def test_quantile_batch_matches_scalar_quantile(law):
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(40):
        v = LoadVector.random(12, 6, rng).loads
        rows.append(v)
    V = np.array(rows)
    u = rng.random(V.shape[0])
    batch = law.quantile_batch(V, u)
    for r in range(V.shape[0]):
        assert batch[r] == law.quantile(V[r], float(u[r]))


@pytest.mark.parametrize("law", LAWS, ids=[law.name for law in LAWS])
def test_quantile_inverts_pmf_cdf(law):
    rng = np.random.default_rng(11)
    v = LoadVector.random(9, 5, rng).loads
    pmf = law.pmf(v)
    assert pmf.sum() == pytest.approx(1.0)
    # Empirical inversion at a fine uniform grid reproduces the pmf.
    grid = (np.arange(2000) + 0.5) / 2000
    counts = np.bincount([law.quantile(v, float(u)) for u in grid],
                         minlength=v.shape[0])
    assert np.abs(counts / 2000 - pmf).max() < 2e-3


# ---------------------------------------------------------------------------
# ExactEngine: row-stochastic on every registered spec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SPECS))
def test_exact_kernel_row_stochastic(name):
    spec = SPECS[name]
    ok, why = ExactEngine.supports(spec)
    assert ok, why
    chain = ExactEngine.kernel(spec, 4, 4)
    rows = chain.P.sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-12)
    assert (chain.P >= 0).all()


# ---------------------------------------------------------------------------
# ExactEngine vs the legacy per-process constructors (reimplemented)
# ---------------------------------------------------------------------------

def _legacy_closed_kernel(rule, n, m, removal):
    """The pre-engine closed-kernel construction, verbatim algorithm."""
    states = all_partitions(m, n)
    index = {s: k for k, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for k, s in enumerate(states):
        v = np.array(s, dtype=np.int64)
        if removal == "ball":
            probs = v.astype(np.float64) / m
        else:
            nonempty = int(np.searchsorted(-v, 0, side="left"))
            probs = np.zeros(n)
            probs[:nonempty] = 1.0 / nonempty
        for i in range(n):
            if probs[i] <= 0.0:
                continue
            vstar = ominus(v, i)
            q = rule.insertion_distribution(vstar)
            for j in range(n):
                if q[j] <= 0.0:
                    continue
                P[k, index[tuple(int(x) for x in oplus(vstar, j))]] += probs[i] * q[j]
    return states, P


def _legacy_open_kernel(rule, n, cap, removal):
    """The pre-engine bounded-open construction, verbatim algorithm."""
    states = []
    for k in range(cap + 1):
        states.extend(all_partitions(k, n))
    index = {s: k for k, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for k, s in enumerate(states):
        v = np.array(s, dtype=np.int64)
        m = int(v.sum())
        if m == 0:
            P[k, k] += 0.5
        else:
            if removal == "ball":
                probs = 0.5 * v.astype(np.float64) / m
            else:
                nonempty = int(np.searchsorted(-v, 0, side="left"))
                probs = np.zeros(n)
                probs[:nonempty] = 0.5 / nonempty
            for i in range(n):
                if probs[i] <= 0.0:
                    continue
                P[k, index[tuple(int(x) for x in ominus(v, i))]] += probs[i]
        if m >= cap:
            P[k, k] += 0.5
        else:
            q = rule.insertion_distribution(v)
            for j in range(n):
                if q[j] <= 0.0:
                    continue
                P[k, index[tuple(int(x) for x in oplus(v, j))]] += 0.5 * q[j]
    return states, P


@pytest.mark.parametrize("removal", ["ball", "bin"])
@pytest.mark.parametrize("n,m", [(3, 4), (4, 6)])
def test_exact_matches_legacy_closed_constructors(removal, n, m):
    from repro.markov.exact import scenario_a_kernel, scenario_b_kernel

    rule = ABKURule(2)
    states, P = _legacy_closed_kernel(rule, n, m, removal)
    new = (scenario_a_kernel if removal == "ball" else scenario_b_kernel)(rule, n, m)
    assert list(new.states) == list(states)
    assert np.allclose(new.P, P, atol=1e-14)


@pytest.mark.parametrize("removal", ["ball", "bin"])
def test_exact_matches_legacy_open_constructor(removal):
    from repro.markov.exact import open_bounded_kernel

    rule = ABKURule(2)
    states, P = _legacy_open_kernel(rule, 3, 5, removal)
    new = open_bounded_kernel(rule, 3, 5, removal=removal)
    assert list(new.states) == list(states)
    assert np.allclose(new.P, P, atol=1e-14)


def test_relocation_kernel_reduces_to_scenario_a_at_p_zero():
    rule = ABKURule(2)
    base = ExactEngine.kernel(scenario_a_spec(rule), 4, 5)
    reloc0 = ExactEngine.kernel(
        relocation_spec(rule, scenario="a", p_relocate=0.0), 4, 5
    )
    assert np.allclose(base.P, reloc0.P, atol=1e-14)
    # And with relocation on, mass moves but rows stay stochastic.
    reloc = ExactEngine.kernel(
        relocation_spec(rule, scenario="a", p_relocate=0.5), 4, 5
    )
    assert np.allclose(reloc.P.sum(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(reloc.P, base.P)


def test_exact_rejects_unbounded_open():
    from repro.engine.spec import open_spec

    spec = open_spec(ABKURule(2), removal="ball", max_balls=None)
    ok, why = ExactEngine.supports(spec)
    assert not ok
    assert "max_balls" in why
    with pytest.raises(ValueError, match="max_balls"):
        ExactEngine.kernel(spec, 3)


# ---------------------------------------------------------------------------
# Scalar vs Vectorized: distributional agreement (seeded KS)
# ---------------------------------------------------------------------------

def _start_for(spec, n=12, m=12):
    if spec.kind == "open" and spec.max_balls is not None:
        m = min(m, spec.max_balls)
    return LoadVector.all_in_one(m, n)


VEC_SPECS = sorted(
    name for name, spec in SPECS.items() if VectorizedEngine.supports(spec)[0]
)


@pytest.mark.statistical
@pytest.mark.parametrize("name", VEC_SPECS)
def test_scalar_vs_vectorized_ks_on_max_load(name):
    spec = SPECS[name]
    start = _start_for(spec)
    horizon, replicas = 150, 200
    scalar_max = np.empty(replicas)
    for k in range(replicas):
        p = ScalarEngine.make(spec, start, seed=10_000 + k)
        p.run(horizon)
        scalar_max[k] = float(p.loads[0])
    bp = VectorizedEngine.make(spec, start, replicas, seed=99)
    bp.run(horizon)
    vec_max = bp.max_loads().astype(np.float64)
    stat, pvalue = ks_2samp(scalar_max, vec_max)
    assert pvalue > 0.01, (
        f"{name}: scalar vs vectorized max-load distributions diverge "
        f"(KS stat={stat:.3f}, p={pvalue:.4f})"
    )


def test_vectorized_conserves_invariants():
    spec = SPECS["scenario_b"]
    start = LoadVector.all_in_one(9, 7)
    bp = VectorizedEngine.make(spec, start, 64, seed=3)
    bp.run(100)
    assert (bp.ball_counts() == 9).all()
    V = bp.loads
    assert (np.sort(V, axis=1)[:, ::-1] == V).all()  # rows stay normalized
    assert (V >= 0).all()


def test_vectorized_open_respects_cap():
    spec = SPECS["open_ball"]
    bp = VectorizedEngine.make(spec, LoadVector.all_in_one(4, 8), 64, seed=5)
    bp.run(200)
    assert (bp.ball_counts() <= spec.max_balls).all()
    assert (bp.loads >= 0).all()


def test_vectorized_relocation_counts_moves():
    spec = SPECS["relocation"]
    bp = VectorizedEngine.make(spec, LoadVector.all_in_one(16, 16), 32, seed=8)
    bp.run(50)
    assert bp.relocations > 0
    assert (bp.ball_counts() == 16).all()


def test_adaptive_rule_rejected_with_sequential_reason():
    spec = SPECS["scenario_a_adap"]
    ok, why = VectorizedEngine.supports(spec)
    assert not ok
    assert "sequential" in why
    with pytest.raises(TypeError, match="sequential"):
        VectorizedEngine.make(spec, LoadVector.all_in_one(4, 4), 8, seed=0)
    # The support matrix agrees with the per-engine probes.
    matrix = engine_support(spec)
    assert matrix["scalar"][0] and matrix["exact"][0]
    assert not matrix["vectorized"][0]


@pytest.mark.statistical
def test_vectorized_coalescence_matches_scalar_coupling_distribution():
    from repro.coupling.grand import (
        coalescence_time_spec,
        coalescence_times,
        coalescence_times_vectorized,
    )

    spec = SPECS["scenario_a"]
    v0 = LoadVector.all_in_one(8, 8)
    u0 = LoadVector.balanced(8, 8)
    scalar_times = coalescence_times(
        coalescence_time_spec, 80, spec, v0, u0, max_steps=50_000, seed=21
    ).astype(np.float64)
    vec_times = coalescence_times_vectorized(
        spec, v0, u0, 80, max_steps=50_000, seed=22
    ).astype(np.float64)
    assert (scalar_times > 0).all() and (vec_times > 0).all()
    stat, pvalue = ks_2samp(scalar_times, vec_times)
    assert pvalue > 0.01, f"coalescence-time KS stat={stat:.3f}, p={pvalue:.4f}"


def test_grand_coupling_spec_handles_relocation_and_open():
    from repro.coupling.grand import coalescence_time_spec

    reloc = SPECS["relocation"]
    t = coalescence_time_spec(
        reloc, LoadVector.all_in_one(6, 6), LoadVector.balanced(6, 6),
        max_steps=100_000, seed=4,
    )
    assert t > 0
    open_spec_ = SPECS["open_ball"]
    t2 = coalescence_time_spec(
        open_spec_, LoadVector.all_in_one(5, 8), LoadVector([0] * 8),
        max_steps=200_000, seed=6,
    )
    assert t2 > 0


# ---------------------------------------------------------------------------
# Synchronous step shape (RBB): property tests
# ---------------------------------------------------------------------------

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

RBB_NAMES = sorted(
    name for name, spec in SPECS.items() if spec.step.synchronous
)
RBB_VEC_NAMES = sorted(set(RBB_NAMES) & set(VEC_SPECS))


@st.composite
def rbb_start(draw, max_n: int = 6, max_load: int = 4):
    """A nonempty load vector on n ≥ 3 bins (the ring rule needs n ≥ 3)."""
    n = draw(st.integers(3, max_n))
    xs = draw(st.lists(st.integers(0, max_load), min_size=n, max_size=n))
    assume(sum(xs) > 0)
    return LoadVector(xs)


@pytest.mark.parametrize("name", RBB_NAMES)
@given(start=rbb_start(), seed=st.integers(0, 2**16), steps=st.integers(1, 25))
@settings(max_examples=20, deadline=None)
def test_rbb_scalar_conserves_balls(name, start, seed, steps):
    spec = SPECS[name]
    m = int(start.loads.sum())
    p = ScalarEngine.make(spec, start, seed=seed)
    p.run(steps)
    v = p.loads
    assert int(v.sum()) == m
    assert (np.sort(v)[::-1] == v).all() and (v >= 0).all()


@pytest.mark.parametrize("name", RBB_VEC_NAMES)
@given(start=rbb_start(), seed=st.integers(0, 2**16), steps=st.integers(1, 25))
@settings(max_examples=15, deadline=None)
def test_rbb_vectorized_conserves_balls(name, start, seed, steps):
    spec = SPECS[name]
    m = int(start.loads.sum())
    bp = VectorizedEngine.make(spec, start, 8, seed=seed)
    bp.run(steps)
    assert (bp.ball_counts() == m).all()
    V = bp.loads
    assert (np.sort(V, axis=1)[:, ::-1] == V).all()
    assert (V >= 0).all()


def _compositions_of(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_of(total - first, parts - 1):
            yield (first,) + rest


def _scatter_law(w, q, s):
    """Independent enumeration: law of sort_desc(w + Multinomial(s, q))."""
    law: dict = {}
    for c in _compositions_of(s, len(w)):
        p = float(math.factorial(s))
        for qi, ci in zip(q, c):
            if ci == 0:
                continue
            if qi <= 0.0:
                p = 0.0
                break
            p *= qi**ci / math.factorial(ci)
        if p == 0.0:
            continue
        key = tuple(sorted((wi + ci for wi, ci in zip(w, c)), reverse=True))
        law[key] = law.get(key, 0.0) + p
    return law


@st.composite
def scatter_case(draw, max_n: int = 5):
    n = draw(st.integers(2, max_n))
    w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    s = draw(st.integers(1, 4))
    perm = draw(st.permutations(list(range(n))))
    return w, weights, s, perm


@given(case=scatter_case())
@settings(max_examples=50, deadline=None)
def test_synchronous_scatter_permutation_equivariant(case):
    """Permuting (w, q) by the same relabeling leaves the sorted landing
    law unchanged — the bin-exchangeability the (R, n) multinomial
    scatter kernel relies on."""
    w, weights, s, perm = case
    q = np.asarray(weights, dtype=np.float64)
    q /= q.sum()
    law = _scatter_law(w, q, s)
    law_p = _scatter_law(
        [w[i] for i in perm], [float(q[i]) for i in perm], s
    )
    assert set(law) == set(law_p)
    for key, prob in law.items():
        assert law_p[key] == pytest.approx(prob, abs=1e-12)


@given(
    v=st.lists(st.integers(0, 3), min_size=3, max_size=4).filter(
        lambda xs: sum(xs) > 0
    ),
    seed=st.integers(0, 2**10),
)
@settings(max_examples=25, deadline=None)
def test_exact_synchronous_row_matches_independent_enumeration(v, seed):
    """ExactEngine's synchronous row equals the from-scratch scatter law."""
    spec = SPECS["rbb_twochoice"]
    w = np.sort(np.asarray(v, dtype=np.int64))[::-1]
    states, row = ExactEngine.transition_row(spec, w)
    released = w - (w > 0)
    s = int((w > 0).sum())
    q = spec.rule.insertion_distribution(released)
    law = _scatter_law([int(x) for x in released], [float(x) for x in q], s)
    for state, prob in zip(states, row):
        assert prob == pytest.approx(law.get(state, 0.0), abs=1e-12)


@pytest.mark.parametrize("name", RBB_VEC_NAMES)
def test_rbb_vectorized_state_roundtrip_is_bitwise(name):
    """A fleet restored from ``state_dict`` replays the exact trajectory:
    the synchronous scatter kernel's RNG consumption is fully captured
    by the checkpoint (the invariant RBB campaigns with --save-every
    lean on)."""
    spec = SPECS[name]
    start = LoadVector.all_in_one(12, 8)
    bp = VectorizedEngine.make(spec, start, 8, seed=42)
    bp.run(30)
    saved = bp.state_dict()
    bp.run(25)
    end = bp.loads.copy()
    bp2 = VectorizedEngine.make(spec, start, 8, seed=0)
    bp2.load_state(saved)
    bp2.run(25)
    assert np.array_equal(bp2.loads, end)


@pytest.mark.parametrize("name", RBB_VEC_NAMES)
@pytest.mark.parametrize("start", [
    LoadVector.balanced(24, 7),
    LoadVector([5, 3, 3, 1, 0, 0]),
    LoadVector.all_in_one(1, 4),
])
def test_rbb_batched_bitwise_vs_replay_rows(name, start):
    """The synchronous kernel lands on the one-ball-at-a-time replay.

    Every segment length ends on the replay's loads, RNG stream position
    and step count; the fuzz grid covers the all-in-one starts.
    """
    from repro.verify.differential import replay_rows

    spec = SPECS[name]
    for batch in (1, 3, 64):
        ref = replay_rows(spec, start, 5, batch, 40)
        b = VectorizedEngine.make(spec, start, 5, seed=batch)
        b.run_batched(40, batch=batch)
        np.testing.assert_array_equal(ref["V"], b.loads)
        assert ref["rng"] == b._rng.bit_generator.state
        assert (ref["t"], ref["relocations"]) == (b.t, b.relocations)


@pytest.mark.parametrize("rule", [UniformRule(), ABKURule(2), ABKURule(3)])
def test_rbb_insertion_quantile_batch_into_is_bitwise(rule):
    """The in-place quantile the RBB step uses equals the allocating one."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8192):
        u = rng.random(20_000)
        want = rule.insertion_quantile_batch(n, u)
        out = np.empty(u.size, dtype=np.int64)
        assert rule.insertion_quantile_batch_into(n, u.copy(), out) is out
        np.testing.assert_array_equal(out, want)
        # The base class's fallback writes the same indices.
        out[:] = -1
        SchedulingRule.insertion_quantile_batch_into(rule, n, u, out)
        np.testing.assert_array_equal(out, want)


def _fresh_python(code: str) -> str:
    """Run *code* in a new interpreter on this checkout's ``src``; its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults (ru_minflt) as Linux does")
def test_rbb_step_takes_no_page_faults_without_scipy():
    """The RBB step draws into scratch, so glibc never trims and re-faults.

    A fresh interpreter without scipy: importing scipy raises glibc's
    mmap and trim thresholds, which hid the per-step heap trim that
    fleet-sized temporaries cause (116,512 faults over these 1000 steps
    on a 2-vCPU Xeon VM when each step allocated its draw and quantile).
    """
    faults = _fresh_python("""
        import resource, sys
        from repro.balls.load_vector import LoadVector
        from repro.engine import VectorizedEngine, rbb_twochoice_spec

        p = VectorizedEngine.make(
            rbb_twochoice_spec(), LoadVector.balanced(8192, 8192), 4, seed=1)
        assert "scipy" not in sys.modules
        p.run(200)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        p.run(1000)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert int(faults) <= 1000


def test_rbb_walk_rejected_by_vectorized_with_sequential_reason():
    spec = SPECS["rbb_walk"]
    ok, why = VectorizedEngine.supports(spec)
    assert not ok
    assert "sequential" in why
    matrix = engine_support(spec)
    assert matrix["scalar"][0] and matrix["exact"][0]


def test_grand_coupling_rejects_synchronous_specs():
    from repro.coupling.grand import (
        coalescence_time_spec,
        coalescence_times_vectorized,
    )

    spec = SPECS["rbb_uniform"]
    v0 = LoadVector.all_in_one(4, 4)
    u0 = LoadVector.balanced(4, 4)
    with pytest.raises(ValueError, match="synchronous"):
        coalescence_time_spec(spec, v0, u0, max_steps=10, seed=0)
    with pytest.raises(ValueError, match="synchronous"):
        coalescence_times_vectorized(spec, v0, u0, 4, max_steps=10, seed=0)


# ---------------------------------------------------------------------------
# Batched kernels: buffer-reusing removal quantiles and fuzzkit parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", LAWS, ids=[law.name for law in LAWS])
def test_quantile_batch_into_matches_quantile_batch(law):
    """The whole-fleet search variant equals the allocating one.

    On a random fleet and on the nonempty rows of the block-boundary
    fleets of :func:`_search_fleets`, at random u, at the u extremes and
    at every ball rank of every row (so at a ball in each block's last
    bin, the ragged last block's included), on every row and on row
    subsets.
    """
    from repro.engine.vectorized import FleetSearch

    rng = np.random.default_rng(23)
    fleets = [np.array([LoadVector.random(10, 7, rng).loads for _ in range(25)])]
    fleets += [
        V[V.sum(axis=1) > 0]
        for name, V in sorted(_search_fleets().items())
        if name.startswith("blocks")
    ]
    last = np.nextafter(1.0, 0.0)

    def fleet_for(V):
        fleet = FleetSearch(*V.shape, bound=int(V.sum(axis=1).max()))
        fleet.rekey(V, int(V.max()) + 1)
        fleet.reblock(V)
        return fleet

    for V in fleets:
        R = V.shape[0]
        m = V.sum(axis=1)
        us = [rng.random(R), np.zeros(R), np.full(R, last)]
        # Ball k of each row (its last ball once k ≥ m).
        us += [np.minimum((k + 0.5) / m, last) for k in range(int(m.max()))]
        # int32 fleets (the narrowed batched layout) agree too.
        for Vd in (V, V.astype(np.int32)):
            fleet = fleet_for(Vd)
            for u in us:
                for rows in (None, np.arange(0, R, 2), np.array([R - 1])):
                    ids = slice(None) if rows is None else rows
                    np.testing.assert_array_equal(
                        law.quantile_batch_into(Vd, u[ids], fleet, rows),
                        law.quantile_batch(V[ids], u[ids]),
                    )


def test_batched_parity_via_fuzzkit():
    """Engine-parity view of the differential harness: one pinned config
    per spec kind through the bitwise batched/replay checks."""
    from tests import fuzzkit

    for spec, tweak in (
        ("scenario_a", {}),            # closed, ball removal
        ("open_bin", {"m": 5}),        # open, bin removal
        ("relocation", {}),            # closed + relocation coin
        ("rbb_uniform", {"steps": 40}),  # synchronous scatter
    ):
        cfg = fuzzkit.pinned_config(spec, **tweak)
        fuzzkit.assert_passes(cfg, "batched")
        fuzzkit.assert_passes(cfg, "replay")


# ---------------------------------------------------------------------------
# Whole-fleet searches: the batched kernels' helpers vs per-row references
# ---------------------------------------------------------------------------

def _search_fleets():
    """Descending fleets with the boundary rows the kernels meet.

    The ``blocks_n*`` fleets sit at the edges of ball removal's block
    sums (b = ⌊√n⌋ bins a block): n = 1, 2, 3, 4² = 16 and 4² ± 1, 34
    (a ragged last block of 4 bins) and 37 (one of 1 bin).  Each holds
    a crash row (all-zero trailing blocks), an all-ones row (a ball in
    every block's last bin), a random row and an empty row.
    """
    rng = np.random.default_rng(41)
    mixed = [LoadVector.random(9, 6, rng).loads for _ in range(5)]
    fleets = {
        "mixed": np.array(mixed),
        "all_equal": np.full((4, 5), 3),
        # Open fleets: empty rows between and around nonempty ones.
        "empty_rows": np.array(
            [[0, 0, 0, 0], [4, 1, 0, 0], [0, 0, 0, 0], [2, 2, 2, 1], [0, 0, 0, 0]]
        ),
        "n1": np.array([[5], [0], [2], [7]]),
    }
    for n in (1, 2, 3, 15, 16, 17, 34, 37):
        fleets[f"blocks_n{n}"] = np.array([
            LoadVector.all_in_one(n + 1, n).loads,
            np.ones(n, dtype=np.int64),
            LoadVector.random(2 * n, n, rng).loads,
            np.zeros(n, dtype=np.int64),
        ])
    return fleets


def _row_count(V, r, x, ge):
    """Reference ``#{j : V[r, j] ≥ x}`` (or ``> x``): the old per-row search."""
    n = V.shape[1]
    return n - int(np.searchsorted(V[r, ::-1], x, side="left" if ge else "right"))


@pytest.mark.parametrize("name", sorted(_search_fleets()))
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_counts_desc_matches_per_row_reference(name, dtype):
    """One key search per row set gives every row's flat Fact 3.2 boundary."""
    from repro.engine.vectorized import FleetSearch, _counts_desc

    V = _search_fleets()[name].astype(dtype)
    R, n = V.shape
    B = int(V.max()) + 1
    fleet = FleetSearch(R, n, bound=int(V.sum(axis=1).max()))
    fleet.rekey(V, B)
    subsets = [None, np.arange(R), np.arange(0, R, 2), np.array([R - 1])]
    for rows in subsets:
        ids = np.arange(R) if rows is None else rows
        for x in range(B):
            vals = np.full(ids.size, x, dtype=dtype)
            ge = _counts_desc(fleet, rows, vals, "right")
            gt = _counts_desc(fleet, rows, vals, "left")
            for k, r in enumerate(ids):
                assert ge[k] == r * n + _row_count(V, r, x, ge=True)
                assert gt[k] == r * n + _row_count(V, r, x, ge=False)


@pytest.mark.parametrize("law", [BallRemoval(), BinRemoval()], ids=["ball", "bin"])
@pytest.mark.parametrize("name", sorted(_search_fleets()))
def test_removal_into_on_row_subsets(law, name):
    """Whole-fleet removal inversion equals quantile_batch on the row copy."""
    from repro.engine.vectorized import FleetSearch

    V = _search_fleets()[name].astype(np.int32)
    R, n = V.shape
    fleet = FleetSearch(R, n, bound=int(V.sum(axis=1).max()))
    fleet.rekey(V, int(V.max()) + 1)
    fleet.reblock(V)
    nonempty = np.nonzero(V.sum(axis=1) > 0)[0]
    u = np.random.default_rng(5).random(R)
    for rows in (nonempty, nonempty[::2], nonempty[-1:]):
        np.testing.assert_array_equal(
            law.quantile_batch_into(V, u[rows], fleet, rows),
            law.quantile_batch(V[rows], u[rows]),
        )
    # The u extremes land on the first and the last ball of each row.
    for edge in (0.0, np.nextafter(1.0, 0.0)):
        ue = np.full(nonempty.size, edge)
        np.testing.assert_array_equal(
            law.quantile_batch_into(V, ue, fleet, nonempty),
            law.quantile_batch(V[nonempty], ue),
        )


@pytest.mark.parametrize("spec", ["scenario_a", "relocation", "open_ball"])
def test_block_sums_follow_the_loads(spec):
    """The block sums and the key the edits maintain equal fresh ones from V.

    A bounded fleet is keyed once, with B = bound + 1, so its key must
    read ``r·(bound + 1) − V[r, j]`` at every segment boundary.  Checked
    after ``run_batched``, after ``recovery_times`` at batch 1 and 64,
    and after ``load_state`` onto a fleet that had moved elsewhere;
    n = 37 ends in a ragged block of one bin.
    """
    n = 37
    m = 5 if SPECS[spec].kind == "open" else 60
    start = LoadVector.random(m, n, np.random.default_rng(2))

    def assert_fresh(bp):
        fleet = bp._fleet
        b = fleet.b
        fresh = np.stack(
            [bp.loads[:, c:c + b].sum(axis=1) for c in range(0, n, b)], axis=1
        )
        np.testing.assert_array_equal(fleet.S, fresh)
        B = bp._bound() + 1
        key = np.arange(bp.replicas)[:, None] * B - bp.loads
        np.testing.assert_array_equal(fleet.key.reshape(bp.loads.shape), key)

    bp = VectorizedEngine.make(SPECS[spec], start, 5, seed=4)
    assert_fresh(bp)
    bp.run_batched(300, batch=64)
    assert_fresh(bp)
    for batch in (1, 64):
        bp.recovery_times(0, 150, batch=batch)
        assert_fresh(bp)
    other = VectorizedEngine.make(SPECS[spec], start, 5, seed=5)
    other.run_batched(100, batch=7)
    other.load_state(bp.state_dict())
    assert_fresh(other)
    other.run_batched(50, batch=7)
    assert_fresh(other)


@pytest.mark.parametrize("spec", ["scenario_a", "scenario_b", "relocation"])
def test_forced_wide_scratch_bitwise(spec):
    """int32 loads, int64 search scratch: the kernels stay bitwise.

    With R = 3 and m = 1.5·10⁹ every load fits int32, but the fleet key
    and the prefix sums of the block sums reach (R − 1)·(m + 1), which
    does not.
    """
    from tests import fuzzkit

    cfg = fuzzkit.pinned_config(spec, n=4, m=1_500_000_000, replicas=3)
    fuzzkit.assert_passes(cfg, "batched")
    fuzzkit.assert_passes(cfg, "replay")
    bp = VectorizedEngine.make(
        SPECS[spec], LoadVector.all_in_one(cfg.m, cfg.n), cfg.replicas, seed=1
    )
    bp.run_batched(5, batch=2)
    assert bp.loads.dtype == np.int32
    fleet = bp._fleet
    assert fleet.dtype == fleet.key.dtype == np.int64
    # Only ball removal reads (so keeps) block sums.
    assert fleet.S is None if spec == "scenario_b" else fleet.S.dtype == np.int64


@pytest.mark.parametrize("spec, start", [
    (SPECS["scenario_a"], LoadVector.balanced(6, 12)),
    (SPECS["relocation"], LoadVector.balanced(30, 10)),
    (SPECS["open_ball"], LoadVector.empty(5)),
    (open_spec(ABKURule(2), removal="bin"), LoadVector.empty(3)),  # no cap
])
def test_batched_bitwise_while_loads_grow(spec, start):
    """Segments whose loads climb above the segment-start max stay bitwise.

    The fuzz grid starts from the all-in-one state, where no load ever
    exceeds the start; here the search key's bound B (the ball cap + 1,
    or for the uncapped open fleet the segment-start max + segment
    length + 1) is what keeps row blocks apart.  Each batch is compared
    with the row-by-row replay of the same slab.
    """
    from repro.verify.differential import replay_rows

    for batch in (1, 2, 7, 64):
        ref = replay_rows(spec, start, 6, batch, 200)
        b = VectorizedEngine.make(spec, start, 6, seed=batch)
        b.run_batched(200, batch=batch)
        np.testing.assert_array_equal(ref["V"], b.loads)
        assert ref["rng"] == b._rng.bit_generator.state
        assert (ref["t"], ref["relocations"]) == (b.t, b.relocations)


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize(
    "spec", ["scenario_a", "scenario_b", "relocation", "rbb_twochoice"]
)
def test_recovery_times_match_a_stepwise_scan(spec, batch):
    """``recovery_times`` equals the hitting times of a twin moved by ``step()``.

    The twin's ``max_loads()`` are read after every single step, so the
    batched scan over each segment's max-load history is checked
    against the definition of the hitting time.  A second call caps
    *max_steps* at the median hitting time, so some replicas report −1.
    """
    n, m, R, target = 8, 24, 12, 4
    start = LoadVector.all_in_one(m, n)
    twin = VectorizedEngine.make(SPECS[spec], start, R, seed=3)
    want = np.where(twin.max_loads() <= target, 0, -1)
    k = 0
    while (want < 0).any() and k < 100_000:
        k += 1
        twin.step()
        want[(want < 0) & (twin.max_loads() <= target)] = k
    cap = int(np.median(want))
    capped = np.where(want <= cap, want, -1)
    assert (want > 0).all() and (capped == -1).any()
    for max_steps, expect in ((k, want), (cap, capped)):
        bp = VectorizedEngine.make(SPECS[spec], start, R, seed=3)
        np.testing.assert_array_equal(
            bp.recovery_times(target, max_steps, batch=batch), expect
        )


def test_bounded_fleet_is_int32_from_construction():
    """Narrowed before any step; snapshots stay int64 and restore bitwise."""
    spec = SPECS["scenario_a"]
    start = LoadVector.all_in_one(40, 8)
    bp = VectorizedEngine.make(spec, start, 5, seed=3)
    assert bp.loads.dtype == np.int32
    bp.run(17)
    snap = bp.state_dict()
    assert snap["V"].dtype == np.int64
    fresh = VectorizedEngine.make(spec, start, 5, seed=99)
    fresh.load_state(snap)
    assert fresh.loads.dtype == np.int32
    np.testing.assert_array_equal(fresh.loads, bp.loads)
    assert fresh._rng.bit_generator.state == bp._rng.bit_generator.state
    bp.run(23)
    fresh.run(23)
    np.testing.assert_array_equal(fresh.loads, bp.loads)
    assert fresh.t == bp.t == 40
    # An uncapped open fleet has no bound to narrow under.
    uncapped = open_spec(ABKURule(2), removal="bin")
    assert VectorizedEngine.make(uncapped, start, 2).loads.dtype == np.int64


def test_load_state_rejects_corrupt_fleet():
    """A snapshot outside the state space fails with the invariant named."""
    bp = VectorizedEngine.make(
        SPECS["scenario_a"], LoadVector.all_in_one(8, 4), 2, seed=0
    )
    good = bp.state_dict()
    corrupt = dict(good, V=np.array([[9, 3, 0, 0], [1, 2, 5, 0]]))
    with pytest.raises(ValueError, match="non-increasing"):
        bp.load_state(corrupt)
    with pytest.raises(ValueError, match="sum to m=8"):
        bp.load_state(dict(good, V=np.array([[9, 3, 0, 0], [5, 2, 1, 0]])))
    with pytest.raises(ValueError, match="non-negative"):
        bp.load_state(dict(good, V=np.array([[9, 0, 0, -1], [5, 2, 1, 0]])))
    # The rejected snapshots left the fleet alone.
    bp.run_batched(3)
    assert (bp.loads >= 0).all() and (bp.ball_counts() == 8).all()

    spec = SPECS["open_ball"]
    op = VectorizedEngine.make(spec, LoadVector.all_in_one(2, 4), 2, seed=0)
    with pytest.raises(ValueError, match=f"max_balls={spec.max_balls}"):
        op.load_state(dict(op.state_dict(), V=np.array([[4, 3, 0, 0], [1, 0, 0, 0]])))
    with pytest.raises(ValueError, match="max_balls"):
        VectorizedEngine.make(spec, LoadVector.all_in_one(spec.max_balls + 1, 4), 2)


# ---------------------------------------------------------------------------
# Import hygiene
# ---------------------------------------------------------------------------

def test_import_repro_does_not_warn():
    # `import repro` must stay quiet.  Restore the module cache
    # afterwards so class identities stay stable for other tests.
    saved = {m: sys.modules.pop(m) for m in list(sys.modules)
             if m == "repro" or m.startswith("repro.")}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            importlib.import_module("repro")
        dep = [w for w in caught if issubclass(w.category, DeprecationWarning)
               and "repro" in str(w.message)]
        assert dep == []
    finally:
        for m in [m for m in sys.modules
                  if m == "repro" or m.startswith("repro.")]:
            sys.modules.pop(m)
        sys.modules.update(saved)


def test_campaign_imports_skip_scipy_and_networkx(tmp_path):
    """Importing repro and running campaigns loads no scipy solver or networkx.

    The checks that need them import them when called, and still work
    from their public names in the same process.
    """
    _fresh_python(f"""
        import sys
        import numpy as np

        def heavy():
            names = ("scipy.optimize", "scipy.integrate", "scipy.stats", "networkx")
            return [m for m in names if m in sys.modules]

        import repro, repro.cli, repro.experiments.campaign
        assert heavy() == [], heavy()
        from repro.experiments.campaign import run_campaign

        for i, kw in enumerate([
            dict(engine="scalar"),
            dict(engine="vectorized", scenario="a"),
            dict(engine="vectorized", scenario="rbb_twochoice"),
        ]):
            res = run_campaign(out={str(tmp_path)!r} + f"/{{i}}", n=8, m=32,
                               replicas=4, probe_every=5, processes=1, seed=3, **kw)
            assert len(res["times"]) == 4 and heavy() == [], (kw, heavy())

        from repro.edgeorient import EdgeOrientationMetric
        from repro.fluid import solve_static_fluid
        from repro.markov import FiniteMarkovChain, is_irreducible, wasserstein_distance

        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert wasserstein_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), flip) == 1.0
        assert is_irreducible(FiniteMarkovChain([0, 1], flip))
        assert 0.0 < solve_static_fluid(2, 1.0).tail(1) < 1.0
        EdgeOrientationMetric(4).check_gamma_distances()
    """)
