"""Algorithm 1 — Online Model Selection via switching-aware bandit learning.

One instance controls one edge.  The time horizon is partitioned into blocks
of increasing length (:mod:`repro.core.blocks`); the model is sampled once
per block from the Tsallis-entropy OMD distribution over cumulative
importance-weighted loss estimates, and held fixed within the block.  This
bounds the number of model switches by the number of blocks ``K_i`` while
still balancing exploration and exploitation, giving the Theorem-1 regret
``O((u_i N)^{2/3} T^{1/3} + u_i^2 + ln T)`` *including* switching cost.

Bookkeeping is per block, so the policy also supports *delayed feedback*
(ground-truth labels arriving several slots after inference, paper Step
2.3): ``select`` may run ahead into newer blocks while earlier blocks'
losses are still outstanding; each block folds into the estimator the
moment its last slot loss arrives.  With zero delay this reduces exactly to
the paper's Algorithm 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import BlockSchedule, build_schedule
from repro.core.estimators import ImportanceWeightedEstimator
from repro.core.tsallis import tsallis_inf_probabilities
from repro.obs.events import BlockBoundaryEvent
from repro.policies.selection import SelectionPolicy
from repro.utils.validation import check_simplex

__all__ = ["OnlineModelSelection"]


@dataclass
class _BlockRecord:
    """State of one opened block awaiting (possibly delayed) observations."""

    model: int
    probabilities: np.ndarray
    length: int
    loss_sum: float = 0.0
    observed: int = 0
    lost: int = 0
    closed: bool = field(default=False)


class OnlineModelSelection(SelectionPolicy):
    """The paper's Algorithm 1 for a single edge.

    Parameters
    ----------
    num_models:
        Number of candidate models ``N``.
    horizon:
        Number of time slots ``T``.
    switch_cost:
        The edge's effective switching cost (``u_i`` scaled by the
        experiment's switching-cost weight); larger values yield longer
        blocks and therefore fewer switches.
    rng:
        Random stream used for the per-block model sampling.
    """

    name = "Ours"

    def __init__(
        self,
        num_models: int,
        horizon: int,
        switch_cost: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(num_models)
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if switch_cost < 0:
            raise ValueError(f"switch_cost must be non-negative, got {switch_cost}")
        self.horizon = horizon
        self.switch_cost = switch_cost
        self._rng = rng
        self._schedule = build_schedule(horizon, switch_cost, num_models)
        self._estimator = ImportanceWeightedEstimator(num_models)
        self._blocks: dict[int, _BlockRecord] = {}
        self._latest_block = -1
        self._selection_counts = np.zeros(num_models, dtype=int)

    @property
    def schedule(self) -> BlockSchedule:
        """The Theorem-1 block schedule in force."""
        return self._schedule

    @property
    def selection_counts(self) -> np.ndarray:
        """Number of slots each model has been hosted so far (copy)."""
        return self._selection_counts.copy()

    @property
    def probability_history(self) -> list[np.ndarray]:
        """Sampling distribution used at the start of each opened block."""
        return [
            self._blocks[b].probabilities.copy() for b in sorted(self._blocks)
        ]

    @property
    def pending_blocks(self) -> int:
        """Opened blocks still waiting for (delayed) observations."""
        return sum(1 for record in self._blocks.values() if not record.closed)

    def select(self, t: int) -> int:
        """Return the model for slot ``t``, resampling only at block starts."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"slot {t} outside horizon [0, {self.horizon})")
        block = self._schedule.block_of_slot(t)
        if block not in self._blocks:
            self._open_block(block, t)
        model = self._blocks[block].model
        self._selection_counts[model] += 1
        return model

    def pending_block(self, t: int) -> int | None:
        """The block ``select(t)`` would have to open, or ``None``.

        Every engine's slot loop uses this, through
        :func:`~repro.sim.vector.batch_block_opens`, to collect the edges
        whose block boundaries coincide at slot ``t`` so a single
        :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch` call can
        solve all of their OMD steps at once.
        """
        if not 0 <= t < self.horizon:
            raise ValueError(f"slot {t} outside horizon [0, {self.horizon})")
        block = self._schedule.block_of_slot(t)
        return None if block in self._blocks else block

    def cumulative_estimates(self) -> np.ndarray:
        """Read-only view of the current ``C_hat`` vector (no copy).

        This is the exact array the next :meth:`select` would feed to the
        Tsallis solve; batch drivers stack one row per edge from it.
        """
        return self._estimator.cumulative_view()

    def block_eta(self, block: int) -> float:
        """The learning rate the schedule assigns to ``block``."""
        return float(self._schedule.etas[block])

    def open_block_with(
        self, block: int, t: int, probabilities: np.ndarray, *, validated: bool = False
    ) -> int:
        """Lines 4-5 given a precomputed OMD distribution (batch opens).

        The distribution must be exactly what the scalar solve would have
        produced (the batched solver guarantees this bitwise); sampling the
        block model still happens here, on this edge's own RNG stream, so
        per-stream draw order is untouched.  Pass ``validated=True`` when
        the caller already ran the simplex postcondition on ``probabilities``
        (both Tsallis solvers do) — the check never alters values, so
        skipping the re-check is behavior-neutral.  Returns the sampled
        block model.
        """
        if block != self._latest_block + 1:
            raise RuntimeError(
                f"slots must be visited in order: at block {block}, "
                f"expected {self._latest_block + 1}"
            )
        if not validated:
            probabilities = check_simplex(
                probabilities, f"block {block} sampling distribution"
            )
        model = int(self._rng.choice(self.num_models, p=probabilities))
        length = int(self._schedule.lengths[block])
        self._blocks[block] = _BlockRecord(
            model=model,
            probabilities=probabilities,
            length=length,
        )
        self._latest_block = block
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                BlockBoundaryEvent(
                    t=t,
                    edge=self.trace_edge,
                    block=block,
                    length=length,
                    eta=self.block_eta(block),
                    model=model,
                )
            )
        return model

    def observe_block(self, block: int, slot_losses: list[float]) -> None:
        """Fold one whole block's slot losses in a single call (line 7, bulk).

        Bitwise-identical to calling :meth:`observe` once per slot in slot
        order on a freshly opened block: the loss sum accumulates left to
        right as Python floats, and the block closes (folding into the
        estimator) exactly when the last slot's loss lands.  Because this
        replaces the per-slot ``select`` calls too, it also accounts the
        block's slots in :attr:`selection_counts`.  Batch drivers pair it
        with :meth:`open_block_with`; a block that already received partial
        per-slot feedback must finish through :meth:`observe`.
        """
        record = self._blocks.get(block)
        if record is None:
            raise RuntimeError(f"observed block {block} before it was opened")
        if record.closed or record.observed or record.lost:
            raise RuntimeError(
                f"block {block} already has slot feedback; finish it through "
                "observe()"
            )
        if len(slot_losses) != record.length:
            raise ValueError(
                f"block {block} spans {record.length} slots, got "
                f"{len(slot_losses)} losses"
            )
        total = record.loss_sum
        for loss in slot_losses:
            if not math.isfinite(loss):
                raise ValueError(f"loss must be finite, got {loss!r}")
            total += float(loss)
        record.loss_sum = total
        record.observed = record.length
        self._selection_counts[record.model] += record.length
        self._close_block(record)

    def observe(self, t: int, model: int, loss: float) -> None:
        """Accumulate a (possibly delayed) slot loss into its block (line 7)."""
        self._check_model(model)
        if not math.isfinite(loss):
            raise ValueError(f"loss must be finite, got {loss!r}")
        block = self._schedule.block_of_slot(t)
        record = self._blocks.get(block)
        if record is None:
            raise RuntimeError(f"observed slot {t} before its block was opened")
        if model != record.model:
            raise ValueError(
                f"observed loss for model {model}, but block {block} hosts "
                f"model {record.model}"
            )
        if record.closed:
            raise RuntimeError(f"block {block} already received all its losses")
        record.loss_sum += float(loss)
        record.observed += 1
        if record.observed + record.lost == record.length:
            self._close_block(record)

    def observe_lost(self, t: int, model: int) -> None:
        """Account a slot whose feedback was dropped (fault injection).

        The block's schedule position is consumed (the slot happened), but
        its loss never folds into the estimator — the block closes once
        every slot is either observed or lost, and an entirely-lost block
        leaves the cumulative estimates untouched, keeping the
        importance-weighted estimator unbiased over observed slots.
        """
        super().observe_lost(t, model)
        block = self._schedule.block_of_slot(t)
        record = self._blocks.get(block)
        if record is None:
            raise RuntimeError(f"lost slot {t} before its block was opened")
        if model != record.model:
            raise ValueError(
                f"lost feedback for model {model}, but block {block} hosts "
                f"model {record.model}"
            )
        if record.closed:
            raise RuntimeError(f"block {block} already received all its losses")
        record.lost += 1
        if record.observed + record.lost == record.length:
            self._close_block(record)

    def _open_block(self, block: int, t: int) -> None:
        """Lines 3-5: compute the OMD distribution and sample the block model.

        Under delayed feedback the cumulative estimates may still miss
        outstanding blocks — the distribution is simply computed from what
        has arrived, the standard delayed-bandit semantics.  The solver
        already ran the simplex postcondition, so the opening skips the
        re-check.
        """
        probabilities = tsallis_inf_probabilities(
            self._estimator.cumulative, self.block_eta(block)
        )
        self.open_block_with(block, t, probabilities, validated=True)

    def _close_block(self, record: _BlockRecord) -> None:
        """Lines 8-9: fold the complete block loss into the estimator.

        A block whose every slot lost its feedback folds nothing — the OMD
        distribution for later blocks is computed from observed blocks only.
        """
        if record.observed > 0:
            # The block's distribution is our own Tsallis solve, already past
            # its simplex postcondition — skip the defensive re-validation.
            self._estimator.update(
                record.model, record.loss_sum, record.probabilities, trusted=True
            )
        record.closed = True
