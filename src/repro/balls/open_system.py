"""Open systems: the §7 extension where the number of balls varies.

The paper's concluding example: start from any state and repeatedly,
with probability ½ remove a ball chosen i.u.r. (if any exist), and with
probability ½ allocate a new ball with the scheduling rule.  The number
of balls performs a lazy ±1 random walk, so the system is *open*.

The paper observes its coupling approach still bounds the time until two
copies started from different states have almost the same distribution —
e.g. a copy started empty vs. a copy started with m arbitrarily placed
balls.  Experiment E10 measures exactly that coalescence under the
shared-randomness coupling (same insert/remove coin, coupled removal
uniform, shared rule source).

Two removal flavours are supported, mirroring scenarios A and B: the
process is :func:`repro.engine.spec.open_spec` (``removal='ball'``
removes a uniform ball, ``removal='bin'`` removes from a uniform
nonempty bin; a removal on the empty state is a no-op, matching the
paper's "remove a random *existing* ball").  Simulate it with
``ScalarEngine.make(open_spec(rule, removal=…), state, seed=…)``; the
vectorized and exact engines run the same spec batched / as a dense
kernel.
"""

from __future__ import annotations

from typing import Literal, Union

import numpy as np

from repro.balls.load_vector import LoadVector
from repro.balls.rules import SchedulingRule
from repro.engine.spec import open_spec
from repro.utils.rng import SeedLike, as_generator

__all__ = ["coupled_open_coalescence"]

RemovalKind = Literal["ball", "bin"]


def coupled_open_coalescence(
    rule: SchedulingRule,
    start_x: Union[LoadVector, np.ndarray, list],
    start_y: Union[LoadVector, np.ndarray, list],
    *,
    removal: RemovalKind = "ball",
    max_steps: int = 10_000_000,
    seed: SeedLike = None,
) -> int:
    """Coalescence time of two open-system copies on shared randomness.

    Both copies see the same insert/remove coin, the same removal
    uniform (quantile-coupled) and the same rule randomness (the
    identity Φ of Lemma 3.4 — realized by a shared generator consumed in
    lockstep via explicit sources).  Returns the first step at which the
    load vectors coincide, or -1 if not within *max_steps*.

    Delegates to :func:`repro.coupling.grand.coalescence_time_spec`,
    the spec-generic grand coupling.
    """
    from repro.coupling.grand import coalescence_time_spec

    rng = as_generator(seed)
    return coalescence_time_spec(
        open_spec(rule, removal=removal),
        start_x,
        start_y,
        max_steps=max_steps,
        seed=rng,
    )
