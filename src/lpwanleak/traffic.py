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

import contextlib
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
    "run_from_csv",
    "RUN_CSV_HEADER",
    "to_timestamps",
    "write_csv",
]

# Obfuscation action labels, in wire order (CSV uses the strings, Run stores codes).
ACTIONS = ("none", "waterfilled", "fake-anomaly")
_ACTION_CODE = {name: i for i, name in enumerate(ACTIONS)}

RUN_CSV_HEADER = "interval,slot,count,dummy_count,is_anomaly,anomaly_slot,obf_action"


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
        action = np.asarray(action, dtype=np.int8)
        if dummy_counts.shape != (n, s) or is_anomaly.shape != (n,) \
                or anomaly_slot.shape != (n,) or action.shape != (n,):
            raise ValueError("column shapes inconsistent")
        if np.any(dummy_counts < 0) or np.any(dummy_counts > counts):
            raise ValueError("dummy_counts must satisfy 0 <= dummy <= count")
        if np.any(is_anomaly != (anomaly_slot >= 0)) or np.any(anomaly_slot >= s):
            raise ValueError("anomaly_slot must be in [0, slots) for anomalies, -1 otherwise")
        if np.any(action < 0) or np.any(action >= len(ACTIONS)):
            raise ValueError("unknown action code")
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

    def __eq__(self, other):
        if not isinstance(other, Run):
            return NotImplemented
        return (np.array_equal(self.counts, other.counts)
                and np.array_equal(self.dummy_counts, other.dummy_counts)
                and np.array_equal(self.is_anomaly, other.is_anomaly)
                and np.array_equal(self.anomaly_slot, other.anomaly_slot)
                and np.array_equal(self.action, other.action))

    __hash__ = None


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


def _text_file(file, mode: str):
    # a path is opened here and closed on exit; a file object is left open
    if hasattr(file, "write") or hasattr(file, "read"):
        return contextlib.nullcontext(file)
    return open(file, mode, encoding="utf-8", newline="")


def write_csv(file, comment: str | None, header: str, rows: Iterable[str]) -> None:
    """Write a CSV: comment, header, then rows, one line each.

    ``file`` is a path or a text file object. Each line of ``comment`` (if
    given) becomes a '#'-prefixed line. ``rows`` are the formatted lines,
    without their newline; the caller owns the column layout.
    """
    with _text_file(file, "w") as fh:
        if comment:
            fh.writelines(f"# {line}\n" for line in comment.splitlines())
        fh.write(header + "\n")
        fh.writelines(f"{row}\n" for row in rows)


def _shape_comment(n: int, slots: int) -> str:
    return f"shape intervals={n} slots={slots}"


def run_to_csv(run: Run, file, comment: str | None = None) -> None:
    """Write a run in long form, one row per (interval, slot).

    ``file`` is a path or a text file object. ``comment`` (if given) is
    emitted first as a '#'-prefixed provenance line, then a
    ``# shape intervals=N slots=S`` line that lets the reader detect a
    truncated dump.
    """
    shape = _shape_comment(len(run), run.slots)
    labels = [f"{int(anom)},{slot if anom else ''},{ACTIONS[code]}" for anom, slot, code
              in zip(run.is_anomaly.tolist(), run.anomaly_slot.tolist(), run.action.tolist())]
    rows = (f"{i},{j},{c},{d},{tail}"
            for i, (counts, dummies, tail) in enumerate(
                zip(run.counts.tolist(), run.dummy_counts.tolist(), labels))
            for j, (c, d) in enumerate(zip(counts, dummies)))
    write_csv(file, f"{comment.strip()}\n{shape}" if comment else shape,
              RUN_CSV_HEADER, rows)


def run_from_csv(file) -> Run:
    """Read a run written by :func:`run_to_csv`.

    Comment and blank lines are skipped, except a ``# shape`` line: when
    present, the rows must span exactly the shape it declares, so a dump
    cut after a whole interval is rejected. A dump without one loads with
    the shape its rows span. Fields are split on commas as written, without
    CSV quoting. Every (interval, slot) cell must appear exactly once and
    all rows of an interval must carry the same labels; anything else
    raises ValueError.
    """
    with _text_file(file, "r") as fh:
        lines = fh.read().splitlines()
    shapes = [ln for ln in lines if ln.startswith("#") and ln[1:].split()[:1] == ["shape"]]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0] != RUN_CSV_HEADER:
        raise ValueError("not a run CSV: bad or missing header")
    body = rows[1:]
    if not body:
        raise ValueError("run CSV has no data rows")
    if any(ln.count(",") != 6 for ln in body):
        raise ValueError("run CSV rows must have 7 fields")
    fields = ",".join(body).split(",")  # row-major, 7 per row
    try:
        cols = np.array([fields[0::7], fields[1::7], fields[2::7], fields[3::7],
                         fields[4::7], [f or "-1" for f in fields[5::7]],
                         [_ACTION_CODE[f] for f in fields[6::7]]], dtype=np.int64).T
    except KeyError as exc:
        raise ValueError(f"unknown obf_action {exc.args[0]!r}") from None
    i, j = cols[:, 0], cols[:, 1]
    if i.min() < 0 or j.min() < 0:
        raise ValueError("run CSV has a negative interval or slot index")
    n, s = int(i.max()) + 1, int(j.max()) + 1
    if np.any(np.bincount(i * s + j, minlength=n * s) != 1):
        raise ValueError("run CSV must hold every (interval, slot) cell exactly once")
    if shapes and shapes != ["# " + _shape_comment(n, s)]:
        raise ValueError(f"run CSV rows hold {n} intervals x {s} slots, "
                         f"but its shape line reads {shapes}")
    if np.any((cols[:, 4] != 0) & (cols[:, 4] != 1)):
        raise ValueError("is_anomaly must be 0 or 1")
    counts = np.empty((n, s), dtype=np.int64)
    dummy = np.empty((n, s), dtype=np.int64)
    counts[i, j] = cols[:, 2]
    dummy[i, j] = cols[:, 3]
    labels = np.empty((n, 3), dtype=np.int64)  # is_anomaly, anomaly_slot, action
    labels[i] = cols[:, 4:]
    if np.any(labels[i] != cols[:, 4:]):
        raise ValueError("rows of one interval disagree on its labels")
    return Run(counts, dummy, labels[:, 0].astype(bool), labels[:, 1], labels[:, 2])


def to_timestamps(run: Run, slot_width: float = 1.0, start: float = 0.0) -> np.ndarray:
    """Flatten a run to message timestamps (seconds), deterministically.

    The c messages of a slot are evenly spaced inside it, so flooring the
    timestamps back onto the slot grid reproduces the counts exactly.
    """
    if not slot_width > 0:
        raise ValueError("slot_width must be > 0")
    flat = run.counts.ravel()
    k = np.repeat(np.arange(flat.size), flat)  # flat slot index of each message
    c = flat[k]
    j = np.arange(k.size) - np.repeat(np.cumsum(flat) - flat, flat)  # index in its slot
    return (start + k * slot_width) + slot_width * (j + 0.5) / c
