"""Repeated Balls-into-Bins: the scalar synchronous-step simulator.

RBB (Becchetti et al., *Self-Stabilizing Repeated Balls-into-Bins*;
Los–Sauerwald, *Tight Bounds for Repeated Balls-into-Bins*) iterates a
*synchronous* step over a closed system of m balls in n bins: every
nonempty bin releases one ball, and the released balls re-place in
parallel, each drawing i.i.d. from the placement rule's insertion
distribution on the post-release state.

In normalized (descending) coordinates one step is three array ops:

1. release — the nonempty bins are exactly indices 0..s-1, so
   ``v[:s] -= 1`` (the result is still descending);
2. scatter — the s released balls land as one
   ``Multinomial(s, rule.insertion_distribution(w))`` draw over
   normalized indices (balls sharing an index share the actual bin);
3. re-sort descending.

This is the reference path every other engine's synchronous kernel is
validated against; :class:`RBBProcess` subclasses
:class:`~repro.balls.process.DynamicAllocationProcess`, so ``run`` /
``run_until`` probe decimation, trajectory recording and
checkpoint/resume (``state_dict``/``load_state``) all come from the
shared driver machinery.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.balls.load_vector import LoadVector, count_above
from repro.balls.process import DynamicAllocationProcess
from repro.utils.rng import SeedLike

__all__ = ["RBBProcess"]


class RBBProcess(DynamicAllocationProcess):
    """Scalar simulator of a synchronous-step (RBB) :class:`ProcessSpec`."""

    #: One multinomial scatter per step.
    _obs_rng_per_phase = 1

    def __init__(
        self,
        spec,
        state: Union[LoadVector, np.ndarray, list],
        *,
        seed: SeedLike = None,
    ):
        if not spec.step.synchronous:
            raise ValueError(
                f"RBBProcess runs synchronous specs; {spec.name!r} is sequential"
            )
        super().__init__(state, seed=seed)
        self.spec = spec
        self.rule = spec.rule
        self._obs_name = spec.name
        self._m = int(self._v.sum())
        # Load-independent rules (uniform/ABKU[d], advertised by the
        # insertion_quantile_batch hook) have one fixed insertion pmf;
        # load-dependent rules re-evaluate it on each post-release state.
        self._q: np.ndarray | None = None
        if self.rule.insertion_quantile_batch is not None:
            self._q = self.rule.insertion_distribution(self._v)

    def step(self) -> None:
        v = self._v
        s = count_above(v, 0)
        v[:s] -= 1
        q = self._q if self._q is not None else self.rule.insertion_distribution(v)
        if s > 0:
            v += self._rng.multinomial(s, q)
            v[::-1].sort()
        self._t += 1

    def _obs_account(self, steps: int) -> None:
        # The synchronous shape touches whole arrays, not Fact 3.2
        # pairs, so only phases/draws are meaningful here.
        from repro import obs

        reg = obs.metrics()
        name = self._obs_name
        reg.counter(f"{name}.phases").inc(steps)
        reg.counter(f"{name}.rng_draws").inc(steps * self._obs_rng_per_phase)

    def _get_probe(self):
        """Chain probe with the RBB self-stabilization recovery monitor."""
        probe = getattr(self, "_chain_probe", None)
        if probe is None:
            from repro.obs.probes import ChainProbe, rbb_recovery_monitor

            series = f"{self._obs_name}/chain"
            probe = ChainProbe(
                series, monitors=(rbb_recovery_monitor(series, self.n, self.m),)
            )
            self._chain_probe = probe
        return probe
