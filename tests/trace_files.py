"""Trace fixtures: a run flattened to message timestamps, and the trace CSV
that ``lpwanleak analyze`` reads.
"""

import numpy as np

from lpwanleak import write_csv
from lpwanleak.cli import _TRACE_CSV_HEADER


def to_timestamps(run, slot_width: float = 1.0, start: float = 0.0) -> np.ndarray:
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


def write_trace_csv(path, timestamps, device: str = "dev0", comment=None) -> None:
    """Write timestamps in the `timestamp_s,device_id` format analyze reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, comment, _TRACE_CSV_HEADER,
                  (f"{t!r},{device}" for t in np.asarray(timestamps, dtype=float).tolist()))
