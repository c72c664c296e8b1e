"""Vectorized execution engine: R replicas advanced per whole-array step.

The scaling experiments run many independent replicas of the same
process.  Rather than looping replicas in Python, this engine keeps an
(R, n) matrix of normalized load rows and advances *all* replicas per
step with whole-array NumPy operations — the "vectorize the loop over
replicas" idiom of the HPC guides.  Under ball or bin removal a
sequential step is a handful of numpy calls whatever R is, none of
which passes over the whole (R, n) matrix: only an open fleet without
a ball cap rebuilds its search key, once per segment of up to *batch*
phases.

The Fact 3.2 updates vectorize through counting comparisons: in a
descending row, the *first* index of the value-v run is ``#{entries >
v}`` and the *last* is ``#{entries ≥ v} − 1``.  One stepping path,
:meth:`VectorizedProcess._advance`, moves a fleet (``step``, ``run``
and ``recovery_times`` cut its phases into segments): its kernels
answer those counts for every row at once with one binary search over
a flat ascending key of the whole fleet (:class:`FleetSearch`), which
lands on the flat position of each edit directly.  Ball removal finds
each row's sampled ball through per-row block sums of b ≈ √n bins,
kept in step with every edit: O(R·√n) per step.

What vectorizes — and what cannot:

* **Removal** — every :class:`~repro.engine.spec.RemovalLaw` with a
  ``quantile_batch`` (ball 𝒜, nonempty-bin ℬ, and the §7 weighted
  w(ℓ) laws all have one), so scenario B and custom-removal variants
  now run batched, not just ABKU-on-A.
* **Insertion** — only rules whose insertion index is an
  *inverse-transform* draw independent of the loads (ABKU[d]:
  ``floor(n·u^{1/d})``).  ADAP(χ) samples sequentially with a
  state-dependent stopping rule, so it is rejected by
  :meth:`VectorizedEngine.supports` and stays on the scalar path.
* **Relocation / open steps** — masked whole-array updates: rows whose
  coin or load-gap condition fails are simply excluded from the fancy-
  indexed write.  A decremented fullest bin still exceeds any valid
  relocation target (gap ≥ 2), so the two Fact 3.2 edits commute
  row-wise.
* **Synchronous (RBB) steps** — the whole fleet advances with *one*
  inverse-transform scatter per step: a single ``rng.random(Σ s_r)``
  draw over every released ball in the fleet, mapped through the rule's
  quantile and added in place (equal in law to per-row
  ``Multinomial(s_r, q)``); the counts s_r are one search of the
  :class:`FleetSearch` key, and a row sort of that key re-sorts the
  fleet — no ``bincount``, no per-ball Python loop.  Requires a
  load-independent insertion law (same eligibility as the
  inverse-transform insertion path).

A sequential segment of T phases draws one uniform slab
``rng.random((T, k, R))`` (k = 2 closed, 4 with relocation, 3 open),
so the trajectory does not depend on how phases are cut into segments,
and :func:`repro.verify.differential.replay_rows` replays each replica
bitwise on a plain row through the scalar Fact 3.2 primitives, sharing
no search code with the kernels; a synchronous step's draw is
replayed one ball per uniform.  The scalar engine draws in its own
order, so scalar-vs-vectorized parity is distributional (KS tests in
the engine-parity suite).
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro import obs
from repro.balls.load_vector import LoadVector
from repro.engine.spec import ProcessSpec
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["VectorizedProcess", "VectorizedEngine"]


class FleetSearch:
    """Scratch for whole-fleet searches over a descending (R, n) fleet.

    ``key`` is the flat key ``key[r·n + j] = r·B − V[r, j]``.  Rows are
    descending, so each row's block ascends; with every load in
    ``[0, B)`` row r's block lies in ``(r·B − B, r·B]``, below every
    later row's, so the whole key ascends.  A search for ``r·B − x``
    therefore stays inside row r, and one ``searchsorted`` call answers
    a Fact 3.2 count for any set of rows at once (:func:`_counts_desc`).
    The kernels keep ``key`` in step with each ±1 edit in O(R) (the
    synchronous step, by sorting it).  A bounded fleet keys once
    (:meth:`rekey`) with B = bound + 1, where the loads are replaced
    wholesale; an open fleet without a ball cap rekeys once per segment.

    ``S`` holds per-row block sums: ``S[r, c]`` is the sum of row r's
    bins ``c·b`` to ``c·b + b − 1`` (the last block ragged), with
    b = ⌊√n⌋.  It is None until :meth:`reblock` builds it, which the
    process does only for removal laws that read it
    (``RemovalLaw.block_sums``) and only where the loads are replaced
    wholesale; the kernels keep it in step with each edit in O(R),
    beside the key (:meth:`block`).  Ball
    removal asks it for row totals (:meth:`totals`) and for the bin
    holding ball k of each row (:meth:`ball_bins`): one search over the
    flat prefix sums of ``S`` picks the block, one count inside that
    block picks the bin, so no O(R·n) pass is left in a step.

    Every array is int32 iff ``R·(bound + 1) < 2³¹`` and int64
    otherwise, where *bound* caps every row sum (None: no cap).  Every
    needle is cast to that dtype (:meth:`needles`): numpy would
    otherwise upcast a whole int32 haystack for an int64 needle on
    every call.
    """

    def __init__(self, R: int, n: int, bound: int | None):
        wide = bound is None or R * (bound + 1) >= 2**31
        self.dtype = np.dtype(np.int64 if wide else np.int32)
        #: Flat index of each row's bin 0 and of its last bin.
        self.start = np.arange(R) * n
        self.last = self.start + (n - 1)
        self.key = np.empty(R * n, dtype=self.dtype)
        self.offset = np.zeros(R, dtype=self.dtype)
        self.b = max(1, math.isqrt(n))
        self.S: np.ndarray | None = None
        # Prefix sums of the flat S with a leading 0 (see totals()).
        self._pre: np.ndarray | None = None
        blocks = -(-n // self.b)
        #: Flat index into ``S`` of each row's block 0.
        self.bstart = np.arange(R) * blocks
        # (r·n + j + shift[r]) // b = r·blocks + j // b, the flat block
        # of row r's bin j, since shift[r] = r·(blocks·b − n).
        self._shift = self.bstart * self.b - self.start
        self._span = np.arange(self.b)[:, None]

    def rekey(self, V: np.ndarray, B: int) -> None:
        """Rebuild ``key`` from *V*; loads must stay below *B* until the next rekey."""
        self.offset = np.arange(V.shape[0], dtype=self.dtype) * B
        np.subtract(self.offset[:, None], V, out=self.key.reshape(V.shape))

    def reblock(self, V: np.ndarray) -> None:
        """(Re)build ``S`` from *V* (construction and restored snapshots only)."""
        edges = np.arange(0, V.shape[1], self.b)
        if self.S is None:
            self.S = np.empty((V.shape[0], edges.size), dtype=self.dtype)
            self._pre = np.zeros(self.S.size + 1, dtype=self.dtype)
        np.add.reduceat(V, edges, axis=1, dtype=self.dtype, out=self.S)

    def first(self, rows: np.ndarray | None) -> np.ndarray:
        """Flat index of bin 0 of each of *rows* (None: every row)."""
        return _take(self.start, rows)

    def needles(self, rows: np.ndarray | None, vals) -> np.ndarray:
        """Key values ``r·B − vals`` of *rows*, in the key's dtype."""
        return np.subtract(_take(self.offset, rows), vals, dtype=self.dtype)

    def block(self, rows: np.ndarray | None, pos: np.ndarray) -> np.ndarray:
        """Flat index into ``S`` of the block holding flat bin *pos* of each of *rows*."""
        j = pos + _take(self._shift, rows)
        j //= self.b
        return j

    def totals(self, rows: np.ndarray | None) -> np.ndarray:
        """Balls in each of *rows*, read off fresh prefix sums of ``S``.

        The prefix sums stay for :meth:`ball_bins`, which must follow
        with no edit in between.
        """
        pre = self._pre
        np.add.accumulate(self.S.reshape(-1), dtype=self.dtype, out=pre[1:])
        b0 = _take(self.bstart, rows)
        return pre[b0 + self.S.shape[1]] - pre[b0]

    def ball_bins(
        self, V: np.ndarray, rows: np.ndarray | None, k: np.ndarray
    ) -> np.ndarray:
        """Row-local bin holding ball *k* (0-based) of each of *rows*.

        Row r's balls are ``pre[b0]`` up to ``pre[b0 + blocks]`` of the
        prefix sums :meth:`totals` left, so one search for
        ``pre[b0] + k`` lands on the block holding the ball without
        leaving row r; inside that block (its bins gathered, clipped at
        the row's last bin) the bin is the count of cumulative sums at
        or below the ball's rank in the block.
        """
        pre = self._pre
        b0 = _take(self.bstart, rows)
        ball = np.add(pre[b0], k, dtype=self.dtype)
        # pre[1:] holds each block's end: the ends ≤ ball count the
        # blocks before the one holding it.
        blk = pre[1:].searchsorted(ball, side="right")
        rank = ball - pre[blk]
        lo = (blk - b0) * self.b
        # The blocks as (b, rows) columns: accumulate and count run
        # down axis 0, over contiguous rows of the gather.
        idx = self._span + (self.first(rows) + lo)
        np.minimum(idx, _take(self.last, rows), out=idx)
        cs = np.add.accumulate(V.reshape(-1)[idx], dtype=self.dtype)
        return lo + (cs <= rank).sum(axis=0)


def _take(a: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """*a*'s entries for *rows* (None: all of *a*)."""
    return a if rows is None else a[rows]


def _counts_desc(
    fleet: FleetSearch, rows: np.ndarray | None, vals, side: str
) -> np.ndarray:
    """Flat ``r·n + #{j : V[r, j] ≥ vals}`` (``'right'``) or ``> vals`` (``'left'``).

    One binary search over ``fleet.key`` for every row r of *rows*
    (None: every row) at once.  ``key ≤ r·B − x`` iff ``V ≥ x`` inside
    row r, and every earlier row's keys lie below the needle, so the
    ⊖ edit (last index of the value-x run) is the ``'right'`` result −
    1 and the ⊕ edit (first index) is the ``'left'`` result itself.
    """
    return np.searchsorted(fleet.key, fleet.needles(rows, vals), side=side)


class VectorizedProcess:
    """R independent replicas of a spec, stepped as one (R, n) matrix."""

    def __init__(
        self,
        spec: ProcessSpec,
        start: Union[LoadVector, np.ndarray, list],
        replicas: int,
        *,
        seed: SeedLike = None,
    ):
        ok, why = VectorizedEngine.supports(spec)
        if not ok:
            raise TypeError(f"spec {spec.name!r} is not vectorizable: {why}")
        replicas = check_positive_int("replicas", replicas)
        if not isinstance(start, LoadVector):
            start = LoadVector(start)
        self.spec = spec
        self.rule = spec.rule
        self._law = spec.removal
        self._rng = as_generator(seed)
        self._m = int(start.m)
        if spec.kind == "closed" and self._m < 1:
            raise ValueError("need at least one ball")
        self._check_rows(start.loads[None, :])
        # Loads narrow to int32 when the ball-count bound proves they
        # fit, halving the memory traffic of the whole-fleet passes;
        # :meth:`state_dict` re-canonicalizes to int64.
        bound = self._bound()
        narrow = bound is not None and bound < np.iinfo(np.int32).max
        self._V = np.tile(start.loads, (replicas, 1)).astype(
            np.int32 if narrow else np.int64
        )
        self._R = replicas
        self._n = start.n
        self._t = 0
        self.relocations = 0
        # Synchronous specs scatter against a fixed insertion pmf
        # (supports() guarantees the rule is load-independent); every
        # kernel searches and writes into FleetSearch scratch.
        self._q: np.ndarray | None = None
        if spec.step.synchronous:
            self._q = spec.rule.insertion_distribution(
                np.zeros(self._n, dtype=np.int64)
            )
            # Per-step scratch (at most R·n balls are released per step).
            # Fleet-sized temporaries freed every step make glibc trim
            # and re-fault heap pages on every step unless something
            # else (such as importing scipy) has raised its thresholds.
            self._nonempty = np.empty((replicas, self._n), dtype=bool)
            self._u = np.empty(replicas * self._n)
            self._flat = np.empty(replicas * self._n, dtype=np.int64)
        self._fleet = FleetSearch(replicas, self._n, bound)
        self._index()

    # -- state access ---------------------------------------------------------

    @property
    def replicas(self) -> int:
        """Number of replicas R."""
        return self._R

    @property
    def n(self) -> int:
        """Bins per replica."""
        return self._n

    @property
    def m(self) -> int:
        """Balls per replica (constant for closed specs; -1 for open)."""
        return self._m if self.spec.kind == "closed" else -1

    @property
    def t(self) -> int:
        """Phases executed."""
        return self._t

    @property
    def loads(self) -> np.ndarray:
        """The live (R, n) descending load matrix (read-only use)."""
        return self._V

    def ball_counts(self) -> np.ndarray:
        """Per-replica ball count (varies for open specs)."""
        return self._V.sum(axis=1)

    def max_loads(self) -> np.ndarray:
        """Per-replica max load (column 0)."""
        return self._V[:, 0].copy()

    def tail(self, levels: int) -> np.ndarray:
        """Mean tail profile s_i (i = 0..levels) pooled over replicas."""
        out = np.empty(levels + 1)
        for i in range(levels + 1):
            out[i] = float((self._V >= i).mean())
        return out

    # -- stepping ---------------------------------------------------------------

    def step(self) -> None:
        """Advance every replica by one phase."""
        self._advance(1)

    def _step_synchronous(self) -> None:
        """One RBB step for the whole fleet: release, scatter, keyed re-sort.

        Each row releases one ball from each of its s_r nonempty bins,
        counted by one search of the row offsets over the current key
        (``key < r·B`` iff ``V > 0``).  All released balls then re-place
        through one inverse-transform scatter: a single
        ``rng.random(Σ s_r)`` draw mapped through the rule's quantile,
        one ball per uniform (``np.add.at`` with a scalar of V's dtype,
        numpy's fast path) — equal in law to per-row
        ``Multinomial(s_r, q)`` but one RNG call for the entire fleet
        (``benchmarks/bench_e16_rbb.py``).  The re-sort sorts the key
        rebuilt from V and reads V back, so the key stays current.
        """
        V = self._V
        fleet = self._fleet
        s = fleet.key.searchsorted(fleet.offset)
        s -= fleet.start
        np.subtract(V, np.greater(V, 0, out=self._nonempty), out=V)
        total = int(s.sum())
        # The draw, the quantile and the row offsets work in the scratch
        # buffers and the scatter and the re-sort run in place, so only
        # ``repeat`` allocates a fleet-sized array per step.
        if total > 0:
            u = self._rng.random(total, out=self._u[:total])
            flat = self.rule.insertion_quantile_batch_into(
                self._n, u, self._flat[:total]
            )
            flat += np.repeat(fleet.start, s)
            np.add.at(V.reshape(-1), flat, V.dtype.type(1))
        key = fleet.key.reshape(V.shape)
        np.subtract(fleet.offset[:, None], V, out=key)
        key.sort(axis=1)
        np.subtract(fleet.offset[:, None], key, out=V)

    def _bound(self) -> int | None:
        """Cap on every row sum, hence every load (None: unbounded open)."""
        return self._m if self.spec.kind == "closed" else self.spec.max_balls

    def _index(self) -> None:
        """Rebuild the search scratch from the loads (construction, :meth:`load_state`).

        Every load of a bounded fleet stays below B = bound + 1, so its
        key is built here once and the kernels keep it in step; an
        uncapped open fleet is keyed per segment in :meth:`_advance`.
        """
        bound = self._bound()
        if bound is not None:
            self._fleet.rekey(self._V, bound + 1)
        if self._law.block_sums:
            self._fleet.reblock(self._V)

    def _advance(self, T: int, hist: np.ndarray | None = None) -> None:
        """Advance the fleet one segment of T phases: the one stepping path.

        The sequential shapes pre-draw the segment's whole uniform
        stream in one ``rng.random((T, k, R))`` call and run the fused
        kernels, so any cut of a run into segments consumes the same
        doubles; the synchronous shape draws per step (the scatter size
        Σ s_r is state-dependent).  When *hist* is given (shape (T, R)),
        row i receives the per-replica max load after phase i — what
        ``recovery_times`` scans for hitting times.
        """
        if self._q is not None:
            for i in range(T):
                self._step_synchronous()
                self._t += 1
                if hist is not None:
                    hist[i] = self._V[:, 0]
            return
        if self._bound() is None:
            # A load grows by at most one per phase, so B bounds every
            # load of the segment.
            self._fleet.rekey(self._V, int(self._V[:, 0].max()) + T + 1)
        if self.spec.kind == "closed":
            self._advance_closed(T, hist)
        else:
            self._advance_open(T, hist)

    def _edit(self, rows: np.ndarray | None, at: np.ndarray, delta: int) -> None:
        """v ⊖ e (*delta* −1) or v ⊕ e (+1) in *rows* (None: every row).

        *at* holds the flat index of the sampled bin in each row; the
        edit lands at the last (⊖) or first (⊕) index of that bin's
        value-run, found by one key search (:func:`_counts_desc`), and
        the key and the block sums follow the load in O(R).
        """
        Vf = self._V.reshape(-1)
        vals = Vf[at]
        if delta < 0:
            pos = _counts_desc(self._fleet, rows, vals, "right")
            pos -= 1
        else:
            pos = _counts_desc(self._fleet, rows, vals, "left")
        Vf[pos] += delta
        fleet = self._fleet
        fleet.key[pos] -= delta
        if fleet.S is not None:
            fleet.S.reshape(-1)[fleet.block(rows, pos)] += delta

    def _advance_closed(self, T: int, hist: np.ndarray | None = None) -> None:
        """T fused closed phases: one slab draw, no per-row Python loop.

        Per step the removal inversion searches the whole fleet at once
        (:meth:`RemovalLaw.quantile_batch_into`; ball removal through
        the block sums), and each Fact 3.2 edit is one search over the
        fleet key (:meth:`_edit`) — a handful of numpy calls per phase
        whatever R is, and for ball and bin removal no O(R·n) pass.
        """
        p = self.spec.p_relocate
        k = 4 if p > 0 else 2
        U = self._rng.random((T, k, self._R))
        V = self._V
        first = self._fleet.start
        law = self._law
        n = self._n
        rule = self.rule
        for i in range(T):
            u = U[i]
            rm = law.quantile_batch_into(V, u[0], self._fleet)
            self._edit(None, first + rm, -1)
            ins = rule.insertion_quantile_batch(n, u[1])
            self._edit(None, first + ins, +1)
            if p > 0:
                coin = u[2] < p
                target = first + rule.insertion_quantile_batch(n, u[3])
                gap_ok = (V[:, 0] - V.reshape(-1)[target]) >= 2
                sel = np.nonzero(coin & gap_ok)[0]
                if sel.size:
                    self._edit(sel, first[sel], -1)
                    self._edit(sel, target[sel], +1)
                    self.relocations += int(sel.size)
            self._t += 1
            if hist is not None:
                hist[i] = V[:, 0]

    def _advance_open(self, T: int, hist: np.ndarray | None = None) -> None:
        """T open phases on one pre-drawn (T, 3, R) uniform slab.

        The same searches as :meth:`_advance_closed` on the row subsets
        the coins select, with the row counts tracked in O(R) per phase
        instead of re-summed.
        """
        U = self._rng.random((T, 3, self._R))
        V = self._V
        first = self._fleet.start
        counts = V.sum(axis=1)
        cap = self.spec.max_balls
        law = self._law
        n = self._n
        rule = self.rule
        for i in range(T):
            u = U[i]
            coin = u[0] < 0.5
            rows = np.nonzero(coin & (counts > 0))[0]
            if rows.size:
                rm = law.quantile_batch_into(V, u[1, rows], self._fleet, rows)
                self._edit(rows, first[rows] + rm, -1)
                counts[rows] -= 1
            ins = ~coin
            if cap is not None:
                ins &= counts < cap
            rows = np.nonzero(ins)[0]
            if rows.size:
                idx = rule.insertion_quantile_batch(n, u[2, rows])
                self._edit(rows, first[rows] + idx, +1)
                counts[rows] += 1
            self._t += 1
            if hist is not None:
                hist[i] = V[:, 0]

    def _obs_account(self, steps: int) -> None:
        """Bulk-count *steps* fleet phases (only called when obs is enabled)."""
        reg = obs.metrics()
        reg.counter("batch.steps").inc(steps)
        reg.counter("batch.replica_phases").inc(steps * self._R)

    def _get_probe(self, target_max_load: int | None = None):
        """Lazily built fleet probe (observed runs with probes on only).

        With a *target_max_load* (the ``recovery_times`` campaign) the
        probe carries a whole-fleet recovery monitor at that target;
        plain ``run()`` sweeps use the default Theorem 1 envelope for
        closed specs and no monitor for open ones (no fixed m).
        """
        probe = getattr(self, "_fleet_probe", None)
        if probe is None:
            from repro.obs.probes import (
                FleetProbe,
                ThresholdMonitor,
                max_load_recovery_monitor,
            )

            series = f"batch/{self.spec.name}"
            monitors: tuple = ()
            if target_max_load is not None:
                from repro.coupling.recovery import theorem1_bound

                bound = theorem1_bound(self._m) if self._m >= 2 else None
                monitors = (ThresholdMonitor(
                    "max_load_recovery", series, target_max_load,
                    bound_step=bound,
                    extra={"n": self._n, "m": self._m, "replicas": self._R},
                ),)
            elif self.spec.kind == "closed":
                monitors = (max_load_recovery_monitor(series, self._n, self._m),)
            probe = FleetProbe(series, monitors=monitors)
            self._fleet_probe = probe
        return probe

    # -- checkpoint/resume -----------------------------------------------------

    def state_dict(self) -> dict:
        """Full fleet state for checkpoint/resume.

        The (R, n) load matrix, the RNG's ``bit_generator.state``, the
        step count, the relocation counter, and — when the lazily built
        fleet probe exists — its estimator/monitor state.
        """
        state: dict = {
            # Canonical int64 whatever the live width (int32 for
            # bounded fleets), so checkpoints do not depend on it.
            "V": self._V.astype(np.int64, copy=True),
            "rng": self._rng.bit_generator.state,
            "t": self._t,
            "relocations": self.relocations,
        }
        probe = getattr(self, "_fleet_probe", None)
        if probe is not None:
            state["probe"] = probe.state_dict()
        return state

    def _check_rows(self, V: np.ndarray) -> None:
        """Reject a load matrix outside the spec's state space.

        The kernels rely on these invariants (the search key's row
        offsets assume every load lies in ``[0, bound]``), so a corrupt
        snapshot fails here with the broken invariant named.
        """
        sums = V.sum(axis=1)
        checks = [(
            (V[:, 1:] > V[:, :-1]).any(axis=1) | (V[:, -1] < 0),
            "fleet rows must be non-increasing and non-negative",
        )]
        cap = self.spec.max_balls
        if self.spec.kind == "closed":
            checks.append(
                (sums != self._m, f"closed fleet rows must sum to m={self._m}")
            )
        elif cap is not None:
            checks.append(
                (sums > cap, f"open fleet rows must stay <= max_balls={cap}")
            )
        for bad, invariant in checks:
            if bad.any():
                r = int(np.argmax(bad))
                raise ValueError(f"{invariant}; row {r} (sum {sums[r]}) breaks it")

    def load_state(self, state: dict, *, probe_target: int | None = None) -> None:
        """Restore a :meth:`state_dict` snapshot onto this fleet.

        The fleet must have been constructed with the same (R, n) shape.
        *probe_target* mirrors the ``recovery_times`` target so the
        rebuilt probe carries the same whole-fleet monitor layout the
        checkpointed one had (monitor envelopes then restore exactly
        from the snapshot).
        """
        V = np.asarray(state["V"], dtype=np.int64)
        if V.shape != self._V.shape:
            raise ValueError(
                f"checkpoint fleet shape {V.shape} != process shape {self._V.shape}"
            )
        self._check_rows(V)
        self._V[:] = V
        self._index()
        self._rng.bit_generator.state = state["rng"]
        self._t = int(state["t"])
        self.relocations = int(state.get("relocations", 0))
        if "probe" in state:
            self._get_probe(probe_target).load_state(state["probe"])

    def run(self, steps: int) -> "VectorizedProcess":
        """Advance all replicas *steps* phases; returns self."""
        return self.run_batched(steps)

    def run_batched(self, steps: int, *, batch: int = 128) -> "VectorizedProcess":
        """Advance all replicas *steps* phases, *batch* per Python call.

        One :meth:`_advance` call per segment of at most *batch* phases,
        with the segment's uniforms pre-drawn in a single RNG call and
        the ⊕/⊖ edits fused into reusable scratch (no (R, n)
        intermediates).  The trajectory does not depend on *batch*.
        Segments are cut at probe-decimation boundaries
        (:func:`repro.obs.probes.probe_cut`), so observed runs emit the
        same decimated probe sequence at every *batch*.  The
        differential harness (:mod:`repro.verify.differential`) pins
        the result bitwise to a row-by-row replay of the same slab.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        batch = check_positive_int("batch", batch)
        if not obs.enabled():
            left = steps
            while left > 0:
                T = min(batch, left)
                self._advance(T)
                left -= T
            return self
        from repro.obs.probes import probe_cut

        with obs.span("batch/run_batched", steps=steps, replicas=self._R,
                      spec=self.spec.name, batch=batch):
            every = obs.probe_interval()
            probe = self._get_probe() if every > 0 else None
            end = self._t + steps
            while self._t < end:
                cut = probe_cut(self._t, min(self._t + batch, end), every)
                self._advance(cut - self._t)
                if probe is not None and self._t % every == 0:
                    probe.observe(self._t, self._V)
        self._obs_account(steps)
        return self

    def recovery_times(
        self,
        target_max_load: int,
        max_steps: int,
        *,
        checkpointer=None,
        resume: dict | None = None,
        batch: int = 1,
    ) -> np.ndarray:
        """Per-replica first time max load ≤ target (−1 where cap hit).

        Replicas that have recovered keep running (the matrix advances
        as a whole); only their hitting times are frozen.  Under
        observability, the recovered fraction and fleet-mean max load
        are recorded at power-of-two checkpoints (series
        ``batch/recovered_fraction``, ``batch/max_load_mean``).

        *checkpointer* (duck-typed: ``maybe_save(step, payload_fn)``)
        is offered a snapshot after each step's emissions; the payload's
        ``"loop"`` entry plus :meth:`state_dict` is exactly what a later
        call must pass back as *resume* (after :meth:`load_state`) to
        continue the identical trajectory.  Metrics stay deterministic
        because this loop accounts once at the end with the absolute
        ``executed`` count.

        *batch* (≥ 1) caps the segment length: the fleet advances
        through :meth:`_advance` in segments cut at every probe and
        ``save_every`` boundary, and the hitting times are read off the
        segment's max-load history as first-hit rows.  Segment ends are
        the only steps where the full matrix is needed (probe snapshots,
        checkpoint payloads); everything per-step — hitting times,
        power-of-two records — replays from that history.  Every
        *batch* gives the same ``times``, ``timeseries.jsonl`` bytes and
        committed checkpoints; at ``batch=1`` every step is a segment
        end.  The one visible difference is crash granularity: save
        *opportunities* (where ``REPRO_CRASH_AT=step:K`` may fire) exist
        only at segment boundaries, so an injected kill lands at the
        first boundary ≥ K instead of exactly K.  After whole-fleet
        recovery mid-segment the matrix and RNG sit a few phases past
        the hitting step; that overshoot is unobservable — no probe,
        record or checkpoint is emitted past it.
        """
        batch = check_positive_int("batch", batch)
        observing = obs.enabled()
        every = obs.probe_interval() if observing else 0
        probe = self._get_probe(target_max_load) if every > 0 else None
        if resume is not None:
            times = np.asarray(resume["times"], dtype=np.int64).copy()
            done = np.asarray(resume["done"], dtype=bool).copy()
            executed = int(resume["executed"])
            k0 = int(resume["k"])
        else:
            times = np.full(self._R, -1, dtype=np.int64)
            done = self._V[:, 0] <= target_max_load
            times[done] = 0
            executed = 0
            k0 = 0
        save_every = int(getattr(checkpointer, "save_every", 0) or 0)
        hist = np.empty((batch, self._R), dtype=self._V.dtype)
        k = k0
        while k < max_steps and not done.all():
            end = min(k + batch, max_steps)
            if every > 0:
                end = min(end, k + every - k % every)
            if save_every > 0:
                end = min(end, k + save_every - k % save_every)
            T = end - k
            self._advance(T, hist=hist[:T])
            # One pass over the segment's history: a replica's hitting
            # time is the step of its first row at or under the target.
            hit = hist[:T] <= target_max_load
            newly = hit.any(axis=0) & ~done
            times[newly] = k + 1 + hit.argmax(axis=0)[newly]
            done |= newly
            completed_at = int(times.max()) if done.all() else None
            executed = end if completed_at is None else completed_at
            if observing:
                # Replay the segment's records in step order, up to the
                # whole-fleet hitting step.  Only the segment end can be
                # a probe boundary (by the cut above), where the live
                # matrix *is* that step's state.
                kk = 1 << int(k).bit_length()  # the first power of two past k
                while kk < executed:
                    self._record_progress(kk, times, hist[kk - k - 1])
                    kk <<= 1
                if probe is not None and executed % every == 0:
                    probe.observe(self._t, self._V)
                if kk == executed:
                    self._record_progress(kk, times, hist[kk - k - 1])
            k = end
            if checkpointer is not None and (
                completed_at is None or completed_at == end
            ):
                # Mid-segment completion skips the boundary offer: the
                # live state past the hitting step must not be
                # snapshotted.
                snap = executed
                checkpointer.maybe_save(
                    snap,
                    lambda: {
                        "engine": self.state_dict(),
                        "loop": {
                            "k": snap,
                            "executed": snap,
                            "times": times.copy(),
                            "done": done.copy(),
                        },
                    },
                )
            if completed_at is not None:
                break
        if observing:
            self._obs_account(executed)
            obs.record_sample(
                "batch/recovered_fraction", executed, float(done.mean())
            )
        return times

    @staticmethod
    def _record_progress(kk: int, times: np.ndarray, max_loads: np.ndarray) -> None:
        """Step *kk*'s power-of-two samples: the share of replicas whose
        hitting time is at most *kk*, and the fleet-mean max load."""
        recovered = (times >= 0) & (times <= kk)
        obs.record_sample("batch/recovered_fraction", kk, float(recovered.mean()))
        obs.record_sample("batch/max_load_mean", kk, float(max_loads.mean()))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(spec={self.spec.name!r}, R={self._R}, "
            f"n={self._n}, m={self._m}, t={self._t})"
        )


class VectorizedEngine:
    """Whole-array engine for specs with inverse-transform insertion laws."""

    name = "vectorized"

    @staticmethod
    def supports(spec: ProcessSpec) -> tuple[bool, str]:
        """A spec vectorizes iff its rule's insertion index is a single
        inverse-transform draw and its removal law batches.  Synchronous
        specs only need the rule half (the release set is state-driven,
        so the removal law is never sampled)."""
        if getattr(spec.rule, "insertion_quantile_batch", None) is None:
            return False, (
                f"rule {spec.rule.name!r} needs sequential sampling "
                "(no load-independent inverse-transform insertion law)"
            )
        if spec.step.synchronous:
            return True, "whole-fleet inverse-transform scatter per step"
        if not spec.removal.batchable:
            return False, f"removal law {spec.removal.name!r} has no vectorized quantile"
        return True, "whole-array (R, n) stepper"

    @staticmethod
    def make(
        spec: ProcessSpec,
        start: Union[LoadVector, np.ndarray, list],
        replicas: int,
        *,
        seed: SeedLike = None,
    ) -> VectorizedProcess:
        """Instantiate the (R, n) batch simulator for *spec*."""
        return VectorizedProcess(spec, start, replicas, seed=seed)

    @staticmethod
    def sample_transitions(
        spec: ProcessSpec,
        state: Union[LoadVector, np.ndarray, list],
        draws: int,
        *,
        steps: int = 1,
        seed: SeedLike = None,
    ) -> list[tuple[int, ...]]:
        """Statistical-acceptance hook: *draws* i.i.d. end states.

        Runs *draws* as independent replicas of one batch process for
        *steps* phases and reads the per-replica end rows.  The
        chi-square battery of :mod:`repro.verify` compares these
        against :meth:`ExactEngine.transition_row`.
        """
        proc = VectorizedProcess(spec, state, draws, seed=seed)
        proc.run(steps)
        return [tuple(int(x) for x in row) for row in proc.loads]
