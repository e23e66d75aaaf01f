"""Online reference maintainers: ring-buffer windows over a curve stream.

A streaming detector scores each arriving curve against a *reference
sample* that must itself evolve with the stream.  This module provides
the two canonical maintenance policies as preallocated ring buffers:

* :class:`SlidingWindow` — keep exactly the last ``capacity`` items;
  every arrival evicts the oldest item once the buffer is full.  The
  reference tracks the recent past, so it adapts to drift by itself at
  the cost of forgetting long-range structure.
* :class:`ReservoirWindow` — Vitter's Algorithm R: once full, the
  ``t``-th arrival replaces a uniformly random slot with probability
  ``capacity / t``, so the buffer is always a uniform sample of
  *everything* seen so far.  The reference stays representative of the
  whole history (robust to bursts) but dilutes drift; pair it with a
  drift monitor that triggers :meth:`~ReferenceWindow.reset`.

Both policies write in place into one preallocated ``(capacity, ...)``
buffer.  :meth:`~ReferenceWindow.observe` offers one item and reports
the mutation as a :class:`WindowUpdate` — the slot touched, the
inserted item and a copy of the evicted one.
:meth:`~ReferenceWindow.extend` takes a whole chunk and returns only
the slots it wrote, which is all a per-slot cache (the FUNTA
tangent-angle ring of :mod:`repro.streaming.online`) needs; the sliding
window writes the chunk in one step.  Reservoir eviction is seeded and
reproducible: an integer ``random_state`` (optionally spawned through a
shared :class:`~repro.engine.ExecutionContext` master seed) always
replays the same eviction schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.random import check_random_state
from repro.utils.validation import check_int

__all__ = ["WindowUpdate", "ReferenceWindow", "SlidingWindow", "ReservoirWindow"]


@dataclass(frozen=True)
class WindowUpdate:
    """One window mutation, as reported by :meth:`ReferenceWindow.observe`.

    Attributes
    ----------
    slot:
        Buffer row written, or ``None`` when the arrival was skipped
        (a full reservoir rejects ``1 - capacity/t`` of arrivals).
    inserted:
        The stored item (a view into the buffer row) when ``slot`` is
        set, else ``None``.
    evicted:
        A copy of the item the insert overwrote, or ``None`` while the
        window is still growing (or when the arrival was skipped).
    """

    slot: int | None
    inserted: np.ndarray | None
    evicted: np.ndarray | None

    @property
    def skipped(self) -> bool:
        return self.slot is None


class ReferenceWindow:
    """Base ring-buffer window; subclasses choose the eviction policy.

    The buffer is allocated lazily on the first item offered, taking
    its item shape from that first item — windows therefore work for
    raw curves ``(m,)``/``(m, p)`` and for feature vectors ``(d,)``
    alike.  ``values`` exposes the filled region in *physical slot
    order* (a view, no copy); :meth:`ordered_values` materializes the
    insertion-age order when a deterministic logical order is needed.
    """

    def __init__(self, capacity: int):
        self.capacity = check_int(capacity, "window capacity", minimum=2)
        self._values: np.ndarray | None = None
        self.size = 0
        self.n_seen = 0

    # ------------------------------------------------------------------ storage
    def _ensure_buffer(self, item: np.ndarray) -> np.ndarray:
        item = np.asarray(item, dtype=np.float64)
        if item.ndim < 1:
            raise ValidationError("window items must be arrays (curve or feature rows)")
        if self._values is None:
            self._values = np.empty((self.capacity, *item.shape))
        elif item.shape != self._values.shape[1:]:
            raise ValidationError(
                f"window item shape {item.shape} does not match the buffer "
                f"item shape {self._values.shape[1:]}"
            )
        return item

    @property
    def values(self) -> np.ndarray:
        """Filled buffer rows, physical slot order (a view, not a copy)."""
        if self._values is None:
            return np.empty((0,))
        return self._values[: self.size]

    @property
    def full(self) -> bool:
        return self.size == self.capacity

    def ordered_slots(self) -> np.ndarray:
        """Physical slots sorted oldest → newest (subclass-defined)."""
        return np.arange(self.size)

    def ordered_values(self) -> np.ndarray:
        """The window contents oldest → newest (a gathered copy)."""
        return self.values[self.ordered_slots()]

    def reset(self) -> None:
        """Empty the window (buffer and RNG state are kept).

        The re-reference action of the drift path: the next arrivals
        refill the buffer from the post-drift regime.
        """
        self.size = 0
        self.n_seen = 0

    # ------------------------------------------------------------------ policy
    def _choose_slot(self) -> int | None:
        raise NotImplementedError

    def observe(self, item) -> WindowUpdate:
        """Offer one item to the window; returns the mutation applied."""
        item = self._ensure_buffer(item)
        self.n_seen += 1
        if self.size < self.capacity:
            slot = self.size
            self._values[slot] = item
            self.size += 1
            return WindowUpdate(slot, self._values[slot], None)
        slot = self._choose_slot()
        if slot is None:
            return WindowUpdate(None, None, None)
        evicted = self._values[slot].copy()
        self._values[slot] = item
        return WindowUpdate(slot, self._values[slot], evicted)

    def extend(self, items) -> np.ndarray:
        """Offer a chunk of items in arrival order; returns the slots written.

        The window ends in the state that :meth:`observe` on each item
        in turn leaves; the returned slots are the distinct rows whose
        contents changed, each once.  This base version is that loop, so
        policies with per-arrival draws (the reservoir) keep them.
        """
        items = self._check_chunk(items)
        updates = [self.observe(item) for item in items]
        return np.unique([u.slot for u in updates if not u.skipped]).astype(np.intp)

    def _check_chunk(self, items) -> np.ndarray:
        items = np.asarray(items, dtype=np.float64)
        if items.ndim < 2:
            raise ValidationError("window chunks must be arrays of items, one per row")
        if items.shape[0]:
            self._ensure_buffer(items[0])
        return items

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(capacity={self.capacity}, size={self.size}, "
            f"n_seen={self.n_seen})"
        )


class SlidingWindow(ReferenceWindow):
    """Keep the last ``capacity`` items; evict strictly oldest-first.

    Once full, arrival ``t`` overwrites slot ``t mod capacity`` — the
    slot holding the oldest item — so the buffer is the true trailing
    window of the stream at every step.

    Sliding windows shard under round-robin dispatch: when a global
    stream is dealt to N shard windows of capacity ``C/N`` (arrival
    ``g`` to shard ``g mod N``, see :meth:`split`), the union of the
    shard contents is exactly the last ``C`` global arrivals.
    """

    def _choose_slot(self) -> int:
        # n_seen was already incremented by observe: arrival t
        # (0-indexed, t = n_seen - 1) lands in slot t mod capacity.
        return (self.n_seen - 1) % self.capacity

    def extend(self, items) -> np.ndarray:
        """One write for a whole chunk (see :meth:`ReferenceWindow.extend`).

        Arrival ``t`` always lands in slot ``t mod capacity`` (while the
        window grows, ``size == n_seen``), so the slots follow from
        ``n_seen`` alone; of a chunk longer than the window only the last
        ``capacity`` items survive, and only those are written.
        """
        items = self._check_chunk(items)
        n = items.shape[0]
        if not n:
            return np.empty(0, dtype=np.intp)
        kept = items[max(n - self.capacity, 0):]
        first = self.n_seen + n - kept.shape[0]
        slots = (first + np.arange(kept.shape[0])) % self.capacity
        self._values[slots] = kept
        self.n_seen += n
        self.size = min(self.size + n, self.capacity)
        return slots

    def ordered_slots(self) -> np.ndarray:
        if not self.full:
            return np.arange(self.size)
        head = self.n_seen % self.capacity  # oldest item lives here
        return (head + np.arange(self.capacity)) % self.capacity

    # ------------------------------------------------------------------ sharding
    def split(self, n_shards: int) -> "list[SlidingWindow]":
        """Deal this window into ``n_shards`` round-robin shard windows.

        Shard ``i`` ends up exactly as if it had received the global
        arrivals ``g mod n_shards == i`` all along (capacity
        ``capacity / n_shards``, which must divide and leave at least 2
        slots per shard).
        """
        n_shards = check_int(n_shards, "n_shards", minimum=1)
        if self.capacity % n_shards:
            raise ValidationError(
                f"window capacity {self.capacity} must divide evenly across "
                f"{n_shards} shards"
            )
        shard_cap = self.capacity // n_shards
        if shard_cap < 2:
            raise ValidationError(
                f"window capacity {self.capacity} leaves {shard_cap} slots per "
                f"shard; every shard window needs >= 2"
            )
        shards = [SlidingWindow(shard_cap) for _ in range(n_shards)]
        total = self.n_seen
        for i, shard in enumerate(shards):
            shard.n_seen = (total - i + n_shards - 1) // n_shards
            shard.size = min(shard.n_seen, shard_cap)
        for g in range(total - self.size, total):
            item = self._values[g % self.capacity]
            shard = shards[g % n_shards]
            if shard._values is None:
                shard._values = np.empty((shard_cap, *item.shape))
            shard._values[(g // n_shards) % shard_cap] = item
        return shards


class ReservoirWindow(ReferenceWindow):
    """Uniform reservoir sample of the whole stream (Algorithm R).

    Parameters
    ----------
    capacity:
        Reservoir size.
    random_state:
        Seed / generator for the replacement draws.  An int seed makes
        the whole eviction schedule reproducible.
    context:
        Optional :class:`~repro.engine.ExecutionContext`; when given
        together with a seed, the eviction stream is *spawned* from the
        master seed (``context.spawn_generators``), so several windows
        sharing one experiment seed still consume statistically
        independent streams.
    """

    def __init__(self, capacity: int, random_state=None, context=None):
        super().__init__(capacity)
        if context is not None:
            self._rng = context.spawn_generators(random_state, 1)[0]
        else:
            self._rng = check_random_state(random_state)

    def _choose_slot(self) -> int | None:
        # Arrival number t (1-indexed) keeps a slot with prob capacity/t.
        j = int(self._rng.integers(0, self.n_seen))
        return j if j < self.capacity else None

    def ordered_slots(self) -> np.ndarray:
        # A reservoir has no meaningful age order; slot order is the
        # canonical deterministic order.
        return np.arange(self.size)

    # ------------------------------------------------------------------ sharding
    def split(self, n_shards: int, random_state=None) -> "list[ReservoirWindow]":
        """Deal this reservoir into ``n_shards`` shard reservoirs.

        A seeded shuffle followed by a round-robin deal: each shard gets
        a uniform subsample (capacity ``capacity / n_shards``, which
        must divide and leave >= 2 slots) and a proportional share of
        ``n_seen``, so every shard is itself a valid Algorithm-R state
        over ``1 / n_shards`` of the history.  ``random_state`` defaults
        to this window's own eviction stream, so a seeded reservoir
        splits reproducibly.
        """
        n_shards = check_int(n_shards, "n_shards", minimum=1)
        if self.capacity % n_shards:
            raise ValidationError(
                f"window capacity {self.capacity} must divide evenly across "
                f"{n_shards} shards"
            )
        shard_cap = self.capacity // n_shards
        if shard_cap < 2:
            raise ValidationError(
                f"window capacity {self.capacity} leaves {shard_cap} slots per "
                f"shard; every shard window needs >= 2"
            )
        rng = self._rng if random_state is None else check_random_state(random_state)
        order = rng.permutation(self.size)
        shards = []
        for i in range(n_shards):
            shard = ReservoirWindow(shard_cap, random_state=rng.integers(2**32))
            picks = order[i::n_shards][:shard_cap]
            shard.n_seen = (self.n_seen - i + n_shards - 1) // n_shards
            if picks.size:
                items = self.values[np.sort(picks)]
                shard._values = np.empty((shard_cap, *items.shape[1:]))
                shard._values[: items.shape[0]] = items
                shard.size = items.shape[0]
            shards.append(shard)
        return shards
