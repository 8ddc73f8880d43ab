"""Seeded inputs: catalogues, query lists and update streams.

Everything a workload feeds the program is drawn here from the ``--seed``
argument, before any timing starts; the program only ever receives the
generated arrays.  Query focals are chosen by properties of the data that
do not depend on the algorithm under test, so two versions of the program
are always asked the same questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import independent_dataset
from repro.live import UpdateOp

__all__ = [
    "catalogue",
    "skyband",
    "skyline_size",
    "ranked_rows",
    "region_producing_rows",
    "dominated_by_all",
    "BatchShape",
    "UpdateStream",
]

#: Weight vectors sampled to decide whether a focal reaches the top-k anywhere.
PROBE_WEIGHTS = 4000


def catalogue(
    cardinality: int,
    dimensionality: int,
    rng: np.random.Generator,
    skyline: tuple[int, int] | None = None,
) -> np.ndarray:
    """An independent (uniform) catalogue's values, as in the paper's synthetic runs.

    With ``skyline=(low, high)``, draws are repeated until the skyline has
    between ``low`` and ``high`` records.  Exact query cost grows with the
    skyline, whose size varies by a quarter between draws; fixing its band
    keeps one session's work comparable to another's.
    """
    while True:
        seed = int(rng.integers(2**31))
        values = np.array(independent_dataset(cardinality, dimensionality, seed=seed).values)
        if skyline is None or skyline[0] <= skyline_size(values) <= skyline[1]:
            return values


def skyband(values: np.ndarray, k: int) -> np.ndarray:
    """Rows with fewer than ``k`` dominators (the k-skyband), strongest first.

    Scanned by descending attribute sum: a dominator always has the larger
    sum, and a record outside the band has ``k`` dominators inside it that
    also dominate whatever it dominates, so testing against the band so far
    decides membership.
    """
    rows: list[int] = []
    band = np.empty((0, values.shape[1]))
    for row in np.argsort(-values.sum(axis=1), kind="stable"):
        record = values[row]
        dominators = np.count_nonzero(
            np.all(band >= record, axis=1) & np.any(band > record, axis=1)
        )
        if dominators < k:
            rows.append(int(row))
            band = np.vstack([band, record])
    return np.asarray(rows, dtype=int)


def skyline_size(values: np.ndarray) -> int:
    """Records no other record dominates."""
    return len(skyband(values, 1))


def ranked_rows(values: np.ndarray) -> np.ndarray:
    """Row indices by descending attribute sum (rank 0 is the strongest)."""
    return np.argsort(-values.sum(axis=1), kind="stable")


def region_producing_rows(
    values: np.ndarray, k: int, candidates: np.ndarray, rng: np.random.Generator
) -> list[int]:
    """The ``candidates`` that rank within the top-``k`` for some sampled weight.

    A witness weight vector proves the answer is non-empty, so every chosen
    query produces regions; the test reads only the data, never the
    algorithm under test.  Only the k-skyband can reach the top-k, so the
    scores are taken over it alone.
    """
    weights = rng.dirichlet(np.ones(values.shape[1]), size=PROBE_WEIGHTS)
    band = skyband(values, k)
    scores = weights @ values[band].T
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1]
    reaches = set(band[(scores >= kth[:, None]).any(axis=0)].tolist())
    return [int(row) for row in candidates if int(row) in reaches]


def dominated_by_all(values: np.ndarray, focals: np.ndarray) -> np.ndarray:
    """Rows strictly dominated by every focal: updates there change no answer."""
    mask = np.ones(values.shape[0], dtype=bool)
    for focal in np.atleast_2d(focals):
        mask &= np.all(values <= focal, axis=1) & np.any(values < focal, axis=1)
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class BatchShape:
    """Operations in one update batch.

    ``hot`` inserts land next to a watched focal and damage its answer;
    ``warm`` inserts jitter records of the query pool; ``cold`` inserts are
    dominated by every watched focal, so rules 1–4 carry answers past them.
    A batch with hot inserts first deletes as many earlier hot inserts
    (keeping the hot region stationary); the other deletes take the oldest
    warm or cold inserts, then cold original records.
    """

    hot: int = 0
    warm: int = 0
    cold: int = 0
    deletes: int = 0

    @property
    def size(self) -> int:
        return self.hot + self.warm + self.cold + self.deletes


@dataclass
class UpdateStream:
    """A seeded, state-following stream of update batches.

    The stream learns the ids the engine assigned to its inserts through
    :meth:`applied`, so its deletes always name live records; the same seed
    and the same assigned ids give the same stream.
    """

    rng: np.random.Generator
    hot_focals: np.ndarray
    pattern: list[BatchShape]
    warm_pool: np.ndarray
    cold_pool: np.ndarray
    cold_ids: list[int]
    jitter: float = 0.03
    #: Largest relative drop of a hot insert's one lowered attribute.
    hot_drop: float = 0.002
    warm_jitter: float = 0.2
    batches: int = 0
    _hot_live: list[int] = field(default_factory=list)
    _fifo: list[int] = field(default_factory=list)
    _pending: list[str] = field(default_factory=list)
    _next_cold: int = 0
    _hot_made: int = 0

    def _hot_values(self) -> np.ndarray:
        """A point incomparable with the next watched focal: a competitor.

        It is raised on every attribute but one and lowered by at most
        ``hot_drop`` on that one.  With the default drop no existing record
        dominates it either, so it damages the watched answer for every
        ``k`` — and every other answer it is a competitor of.
        """
        focal = self.hot_focals[self._hot_made % len(self.hot_focals)]
        self._hot_made += 1
        d = focal.shape[0]
        factors = 1.0 + self.jitter * self.rng.random(d)
        lowered = int(self.rng.integers(d))
        factors[lowered] = 1.0 - self.hot_drop * (0.2 + 0.8 * self.rng.random())
        return focal * factors

    def _warm_values(self) -> np.ndarray:
        base = self.warm_pool[int(self.rng.integers(len(self.warm_pool)))]
        return base * (1.0 + self.warm_jitter * (self.rng.random(base.shape[0]) - 0.5))

    def _cold_values(self) -> np.ndarray:
        base = self.cold_pool[int(self.rng.integers(len(self.cold_pool)))]
        return base * (0.9 + 0.05 * self.rng.random(base.shape[0]))

    def next_batch(self) -> list[UpdateOp]:
        """The next batch; call :meth:`applied` with its assigned ids."""
        shape = self.pattern[self.batches % len(self.pattern)]
        ops: list[UpdateOp] = []
        kinds: list[str] = []
        for kind, count, make in (
            ("hot", shape.hot, self._hot_values),
            ("warm", shape.warm, self._warm_values),
            ("cold", shape.cold, self._cold_values),
        ):
            for _ in range(count):
                ops.append(UpdateOp.insert(make()))
                kinds.append(kind)
        # Only a batch that brings a hot insert removes the previous one, so
        # batches without hot inserts leave the watched answers alone.
        hot_deletes = min(shape.hot, shape.deletes, len(self._hot_live))
        victims = [self._hot_live.pop(0) for _ in range(hot_deletes)]
        for _ in range(shape.deletes - hot_deletes):
            if self._fifo:
                victims.append(self._fifo.pop(0))
            else:
                victims.append(self.cold_ids[self._next_cold])
                self._next_cold += 1
        ops.extend(UpdateOp.delete(victim) for victim in victims)
        self._pending = kinds
        self.batches += 1
        return ops

    def applied(self, assigned_ids: list[int]) -> None:
        """Record the ids the engine gave the last batch's inserts."""
        for kind, record_id in zip(self._pending, assigned_ids):
            (self._hot_live if kind == "hot" else self._fifo).append(int(record_id))
        self._pending = []
