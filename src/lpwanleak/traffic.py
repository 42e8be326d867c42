"""Slotted Poisson traffic model for event-driven LPWAN uplinks.

Time is divided into intervals of ``slots`` consecutive slots. Every slot
carries an independent Poisson message count at the baseline rate. An
anomalous interval has exactly one slot (uniformly placed) whose rate is
boosted by the anomaly intensity; anomalies occur independently per
interval with probability ``anomaly_rate``.

A :class:`Run` stores an immutable batch of intervals column-wise (numpy
arrays). Counts always include dummy messages added by an obfuscator;
``dummy_counts`` records the dummy share so that honest accounting stays
possible while an attacker is only ever handed the summed counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ACTIONS",
    "IntervalModel",
    "Run",
    "as_rng",
    "draw_anomaly_flags",
    "gen_run",
    "run_to_csv",
    "RUN_CSV_HEADER",
    "write_csv",
]

# Obfuscation action labels, in wire order (CSV uses the strings, Run stores codes).
ACTIONS = ("none", "waterfilled", "fake-anomaly")

RUN_CSV_HEADER = "interval,slot,count,dummy_count,is_anomaly,anomaly_slot,obf_action"


def _action_codes(action) -> np.ndarray:
    """``action`` as an array; a value that is no index into ACTIONS is a ValueError.
    An integer column costs one min and one max."""
    action = np.asarray(action)
    if action.dtype.kind in "iu":
        ok = not action.size or (action.min() >= 0 and action.max() < len(ACTIONS))
    else:
        ok = np.isin(action, range(len(ACTIONS))).all()
    if not ok:
        raise ValueError("action codes must be 0, 1 or 2 (indices into ACTIONS)")
    return action


def as_rng(seed) -> np.random.Generator:
    """Normalize ``seed`` to a numpy Generator.

    Accepts a Generator (returned as is), an int, or a sequence of ints
    (derived-seed form, e.g. ``(base_seed, interval_index)``).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class IntervalModel:
    """Single-timescale traffic model.

    slots: slots per interval (at least 2, so a sample variance exists).
    base_rate: expected messages per baseline slot (> 0, finite).
    intensity: anomalous slot rate divided by the baseline rate (>= 1, finite).
    anomaly_rate: per-interval probability of an anomaly, in [0, 1].

    The anomalous slot rate b must keep (slots * b)^2 finite: that is the
    largest product the dispersion algebra of the obfuscator forms.
    """

    slots: int
    base_rate: float
    intensity: float
    anomaly_rate: float

    def __post_init__(self):
        if self.slots < 2:
            raise ValueError(f"slots must be >= 2, got {self.slots}")
        if not 0 < self.base_rate < math.inf:
            raise ValueError(f"base_rate must be > 0 and finite, got {self.base_rate}")
        if not 1 <= self.intensity < math.inf:
            raise ValueError(f"intensity must be >= 1 and finite, got {self.intensity}")
        reach = self.slots * self.anomaly_slot_rate
        if not math.isfinite(reach * reach):
            raise ValueError(f"intensity * base_rate = {self.anomaly_slot_rate} is too large "
                             f"for {self.slots} slots: (slots * rate)^2 overflows")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ValueError(f"anomaly_rate must be in [0, 1], got {self.anomaly_rate}")

    @property
    def anomaly_slot_rate(self) -> float:
        """Rate of the boosted slot in an anomalous interval."""
        return self.intensity * self.base_rate


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class Run:
    """Immutable batch of intervals, stored column-wise.

    counts, dummy_counts: (n, slots) int arrays.
    is_anomaly: (n,) bool. anomaly_slot: (n,) int, -1 for baseline intervals.
    action: (n,) int codes indexing ACTIONS.
    Runs compare by identity; compare the columns to compare contents.
    """

    __slots__ = ("counts", "dummy_counts", "is_anomaly", "anomaly_slot", "action")

    def __init__(self, counts, dummy_counts, is_anomaly, anomaly_slot, action):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] < 2:
            raise ValueError("counts must be (n, slots>=2)")
        n, s = counts.shape
        dummy_counts = np.asarray(dummy_counts, dtype=np.int64)
        is_anomaly = np.asarray(is_anomaly, dtype=bool)
        anomaly_slot = np.asarray(anomaly_slot, dtype=np.int64)
        action = _action_codes(action).astype(np.int8, copy=False)
        if dummy_counts.shape != (n, s) or is_anomaly.shape != (n,) \
                or anomaly_slot.shape != (n,) or action.shape != (n,):
            raise ValueError("column shapes inconsistent")
        if np.any(dummy_counts < 0) or np.any(dummy_counts > counts):
            raise ValueError("dummy_counts must satisfy 0 <= dummy <= count")
        if np.any(is_anomaly != (anomaly_slot >= 0)) or np.any(anomaly_slot >= s):
            raise ValueError("anomaly_slot must be in [0, slots) for anomalies, -1 otherwise")
        self.counts = _readonly(counts)
        self.dummy_counts = _readonly(dummy_counts)
        self.is_anomaly = _readonly(is_anomaly)
        self.anomaly_slot = _readonly(anomaly_slot)
        self.action = _readonly(action)

    @property
    def slots(self) -> int:
        return self.counts.shape[1]

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, i: slice) -> "Run":
        if not isinstance(i, slice):
            raise TypeError("a Run supports slicing only")
        return Run(self.counts[i], self.dummy_counts[i], self.is_anomaly[i],
                   self.anomaly_slot[i], self.action[i])


def draw_anomaly_flags(model: IntervalModel, n_intervals: int, rng) -> np.ndarray:
    """The anomaly coins of ``n_intervals`` intervals, one uniform draw each.

    :func:`gen_run` makes this its first draw, so a caller that needs only
    a run's labels can take them from the same seed and stop here.
    """
    return as_rng(rng).random(n_intervals) < model.anomaly_rate


def gen_run(model: IntervalModel, n_intervals: int, seed) -> Run:
    """Draw ``n_intervals`` independent intervals as one vectorized batch.

    Deterministic given ``seed``. The batch consumes a single generator in
    a fixed order (anomaly coins from :func:`draw_anomaly_flags`, baseline
    matrix, slot choices, anomalous counts), so ``is_anomaly`` depends on
    the seed and the anomaly rate only, never on the slot rates.
    """
    if n_intervals < 0:
        raise ValueError("n_intervals must be >= 0")
    rng = as_rng(seed)
    n, s = n_intervals, model.slots
    flags = draw_anomaly_flags(model, n, rng)
    counts = rng.poisson(model.base_rate, (n, s))
    slots = rng.integers(0, s, n)
    boosted = rng.poisson(model.anomaly_slot_rate, n)
    counts[flags, slots[flags]] = boosted[flags]
    anomaly_slot = np.where(flags, slots, -1)
    return Run(counts, np.zeros((n, s), dtype=np.int64), flags, anomaly_slot,
               np.zeros(n, dtype=np.int8))


def write_csv(file, comment: str | None, header: str, rows: Iterable[str]) -> None:
    """Write a CSV: comment, header, then rows, one line each.

    ``file`` is an open text file, which is left open. Each line of
    ``comment`` (if given) becomes a '#'-prefixed line. ``rows`` are the
    formatted lines, without their newline; the caller owns the column layout.
    """
    if comment:
        file.writelines(f"# {line}\n" for line in comment.splitlines())
    file.write(header + "\n")
    file.writelines(f"{row}\n" for row in rows)


def run_to_csv(run: Run, file, comment: str | None = None) -> None:
    """Write a run in long form, one row per (interval, slot).

    ``file`` is an open text file. ``comment`` (if given) is
    emitted first as a '#'-prefixed provenance line, then a
    ``# shape intervals=N slots=S`` line that lets a consumer detect a
    truncated dump.
    """
    shape = f"shape intervals={len(run)} slots={run.slots}"
    labels = [f"{int(anom)},{slot if anom else ''},{ACTIONS[code]}" for anom, slot, code
              in zip(run.is_anomaly.tolist(), run.anomaly_slot.tolist(), run.action.tolist())]
    rows = (f"{i},{j},{c},{d},{tail}"
            for i, (counts, dummies, tail) in enumerate(
                zip(run.counts.tolist(), run.dummy_counts.tolist(), labels))
            for j, (c, d) in enumerate(zip(counts, dummies)))
    write_csv(file, f"{comment.strip()}\n{shape}" if comment else shape,
              RUN_CSV_HEADER, rows)
