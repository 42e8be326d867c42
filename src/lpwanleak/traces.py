"""Discrete-time trace model: priors, additive mechanisms, posterior, metrics.

A message trace is a strictly increasing tuple of timestamps inside an
observation window. Time is discretized to a tick so priors have finite
support and every quantity here is exactly enumerable at small scale.
An obfuscation mechanism maps a real trace R to an observed trace X by
adding dummy messages (always X >= R as sets; nothing is ever removed), and
the attacker inverts it through Bayes:

    p(R | X) = prior(R) * q(X | R) / sum over R' subset of X of prior(R') * q(X | R')

Two leakage metrics are computed from that posterior, by exhaustive
enumeration when the instance is small and by seeded Monte-Carlo otherwise:
average error of an optimal guessing attacker under a distance function,
and conditional entropy of the real trace given the observation (bits).
"""

from __future__ import annotations

import itertools
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .attacker import _mean_se, chi_square_threshold, run_dispersion
from .traffic import as_rng

__all__ = [
    "TracePrior",
    "Mechanism",
    "IdentityMechanism",
    "FillToMechanism",
    "TableMechanism",
    "CardinalityDistance",
    "AnomalyCountDistance",
    "InconsistentObservationError",
    "posterior_table",
    "enumerate_observables",
    "optimal_guess",
    "average_error",
    "average_error_mc",
    "conditional_entropy",
    "conditional_entropy_mc",
    "Fixture",
    "load_fixture",
]

# subset enumeration guard: 2^20 candidate sets
_MAX_OBSERVED_FOR_SUBSETS = 20


class InconsistentObservationError(ValueError):
    """No real trace with positive prior mass can produce the observation."""


def _ts(trace) -> tuple[float, ...]:
    # canonical timestamp-tuple form of any iterable of timestamps
    ts = tuple(sorted(float(t) for t in trace))
    if len(set(ts)) != len(ts):
        raise ValueError("duplicate timestamps in trace")
    return ts


class TracePrior:
    """Finite-support prior over real traces.

    support: mapping from trace (an iterable of timestamps) to
    probability. Probabilities must be non-negative and sum to 1 within
    1e-9; zero-mass entries are dropped. Timestamps must sit on the tick
    grid relative to the window start.
    """

    def __init__(self, support: Mapping, window: tuple[float, float], tick: float = 1.0):
        ta, tb = float(window[0]), float(window[1])
        if tb < ta:
            raise ValueError("window end precedes start")
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.window = (ta, tb)
        self.tick = float(tick)
        table: dict[tuple[float, ...], float] = {}
        for trace, p in support.items():
            p = float(p)
            if p < 0:
                raise ValueError(f"negative prior mass {p}")
            if p == 0.0:
                continue
            ts = _ts(trace)
            for t in ts:
                if not ta <= t <= tb:
                    raise ValueError(f"timestamp {t} outside window [{ta}, {tb}]")
                steps = (t - ta) / self.tick
                if abs(steps - round(steps)) > 1e-9:
                    raise ValueError(f"timestamp {t} is off the {self.tick}s tick grid")
            if ts in table:
                raise ValueError(f"duplicate support trace {ts}")
            table[ts] = p
        total = math.fsum(table.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"prior masses sum to {total}, expected 1")
        self._traces = tuple(sorted(table))
        self._probs = np.array([table[t] for t in self._traces])
        self._table = table

    @property
    def support(self) -> tuple[tuple[float, ...], ...]:
        """Support traces in lexicographic order."""
        return self._traces

    def mass(self, trace) -> float:
        return self._table.get(_ts(trace), 0.0)

    def entropy_bits(self) -> float:
        p = self._probs
        return float(-np.sum(p * np.log2(p)))


class Mechanism(ABC):
    """Additive obfuscation channel q(X | R).

    Subclasses implement ``outputs`` only: it defines q(X | R) for the
    posterior, the exact enumeration and the sampler alike. Every output
    must contain the conditioning real trace as a subset.
    """

    @abstractmethod
    def outputs(self, real) -> list[tuple[tuple[float, ...], float]]:
        """[(observed, q)] pairs with positive q, masses summing to 1."""


class IdentityMechanism(Mechanism):
    """No dummies: X = R with certainty."""

    def outputs(self, real):
        return [(_ts(real), 1.0)]


class FillToMechanism(Mechanism):
    """Deterministically pad every real trace up to a fixed target set.

    The output is the union of the real trace and the target, so the
    superset invariant holds even for reals outside the target.
    """

    def __init__(self, target: Iterable[float]):
        self.target = _ts(target)

    def outputs(self, real):
        return [(tuple(sorted(set(self.target) | set(_ts(real)))), 1.0)]


class TableMechanism(Mechanism):
    """Explicit q(X | R) table.

    rows: mapping real trace -> mapping observed trace -> probability.
    Each row must sum to 1 within 1e-9 and every observed trace must
    contain its real trace.
    """

    def __init__(self, rows: Mapping):
        table: dict[tuple, list[tuple[tuple, float]]] = {}
        for real, outs in rows.items():
            r = _ts(real)
            row: dict[tuple, float] = {}
            for obs, q in outs.items():
                q = float(q)
                if q < 0:
                    raise ValueError(f"negative mechanism mass {q}")
                if q == 0.0:
                    continue
                x = _ts(obs)
                if not set(x).issuperset(r):
                    raise ValueError(f"mechanism output {x} does not contain real trace {r}")
                row[x] = row.get(x, 0.0) + q
            total = math.fsum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"mechanism row for {r} sums to {total}, expected 1")
            table[r] = sorted(row.items())
        self._rows = table

    def outputs(self, real):
        r = _ts(real)
        if r not in self._rows:
            raise ValueError(f"mechanism has no row for real trace {r}")
        return list(self._rows[r])


class CardinalityDistance:
    """d(R, R') = absolute difference in message counts."""

    def __init__(self):
        # message count per tuple already checked, so a guess loop does not
        # re-sort the same traces on every call
        self._sizes: dict[tuple, int] = {}

    def _size(self, trace) -> int:
        if isinstance(trace, tuple) and trace in self._sizes:
            return self._sizes[trace]
        n = len(_ts(trace))
        if isinstance(trace, tuple):
            self._sizes[trace] = n
        return n

    def __call__(self, a, b) -> float:
        return float(abs(self._size(a) - self._size(b)))


class AnomalyCountDistance:
    """d(R, R') = absolute difference in the number of flagged intervals.

    Each trace is binned into slots of ``slot_width`` seconds anchored at
    the window start, grouped into intervals of ``slots`` slots, and each
    complete interval is flagged by the dispersion test at level alpha.
    Empty intervals are never flagged.
    """

    def __init__(self, window: tuple[float, float], slot_width: float, slots: int,
                 alpha: float = 0.05):
        if slot_width <= 0:
            raise ValueError("slot_width must be positive")
        ta, tb = float(window[0]), float(window[1])
        span = slots * slot_width
        n_intervals = int(math.floor(round((tb - ta) / span, 9)))
        if n_intervals < 1:
            raise ValueError("window shorter than one interval")
        self.window = (ta, tb)
        self.slot_width = float(slot_width)
        self.slots = int(slots)
        self.n_intervals = n_intervals
        self.threshold = chi_square_threshold(slots, alpha)
        self._cache: dict[tuple, int] = {}

    def _flag_count(self, ts: tuple[float, ...]) -> int:
        if ts in self._cache:
            return self._cache[ts]
        total_slots = self.n_intervals * self.slots
        idx = np.floor_divide(np.asarray(ts, dtype=float) - self.window[0],
                              self.slot_width).astype(np.int64)
        # messages past the last full interval are ignored
        idx = idx[(idx >= 0) & (idx < total_slots)]
        counts = np.bincount(idx, minlength=total_slots).reshape(self.n_intervals, self.slots)
        _, _, d = run_dispersion(counts)
        flags = int(np.count_nonzero((self.slots - 1) * d > self.threshold))  # nan: never flagged
        self._cache[ts] = flags
        return flags

    def __call__(self, a, b) -> float:
        return float(abs(self._flag_count(_ts(a)) - self._flag_count(_ts(b))))


def _subsets_lex(ts: tuple[float, ...]) -> list[tuple[float, ...]]:
    """All subsets of a timestamp tuple, lexicographically sorted."""
    if len(ts) > _MAX_OBSERVED_FOR_SUBSETS:
        raise ValueError(f"observed trace too large to enumerate subsets ({len(ts)} messages)")
    subs = []
    for k in range(len(ts) + 1):
        subs.extend(itertools.combinations(ts, k))
    return sorted(subs)


def _joint_weights(prior: TracePrior, mech: Mechanism, obs: tuple) -> tuple[dict, float]:
    """({R: prior(R) * q(X|R)} over support traces contained in X, p(X)).

    Raises InconsistentObservationError when nothing in the support can
    have produced the observation.
    """
    weights: dict[tuple, float] = {}
    have = set(obs)
    for r in prior.support:
        if not have.issuperset(r):
            continue
        w = prior._table[r] * next((q for x, q in mech.outputs(r) if x == obs), 0.0)
        if w > 0:
            weights[r] = w
    normalizer = math.fsum(weights.values())
    if normalizer <= 0.0:
        raise InconsistentObservationError(
            f"no prior trace can produce observation {obs}")
    return weights, normalizer


def posterior_table(prior: TracePrior, mech: Mechanism, observed) -> dict[tuple, float]:
    """p(R | observed) by Bayes, over the support traces R contained in the
    observation (every other trace has posterior zero).

    Raises InconsistentObservationError when nothing in the support can
    have produced the observation.
    """
    weights, normalizer = _joint_weights(prior, mech, _ts(observed))
    return {r: w / normalizer for r, w in weights.items()}


def _exact_joint(prior: TracePrior, mech: Mechanism) -> dict[tuple, dict[tuple, float]]:
    """{X: {R: prior(R) q(X|R)}} over all reachable observations."""
    joint: dict[tuple, dict[tuple, float]] = {}
    for r in prior.support:
        p = prior._table[r]
        for x, q in mech.outputs(r):
            row = joint.setdefault(x, {})
            row[r] = row.get(r, 0.0) + p * q
    return joint


def enumerate_observables(prior: TracePrior, mech: Mechanism) -> dict[tuple, float]:
    """Marginal p(X) over every reachable observation."""
    return {x: sum(row.values()) for x, row in _exact_joint(prior, mech).items()}


def _best_guess(weights: Mapping[tuple, float], obs: tuple, dist) -> tuple[tuple, float]:
    """Subset R' of obs minimizing sum over R of weights[R] d(R, R'), and that sum.

    Ties go to the lexicographically smallest subset.
    """
    best, best_cost = None, math.inf
    for cand in _subsets_lex(obs):
        cost = math.fsum(w * dist(r, cand) for r, w in weights.items())
        if cost < best_cost:
            best, best_cost = cand, cost
    return best, best_cost


def optimal_guess(prior: TracePrior, mech: Mechanism, observed, dist) -> tuple[tuple, float]:
    """Best guess for one observation and its expected distance.

    Minimizes sum over R of prior(R) q(X|R) d(R, R') over all subsets R' of
    the observation; ties go to the lexicographically smallest subset. The
    returned cost is normalized by p(X), i.e. the attacker's conditional
    expected error.
    """
    obs = _ts(observed)
    weights, normalizer = _joint_weights(prior, mech, obs)
    best, cost = _best_guess(weights, obs, dist)
    return best, cost / normalizer


def average_error(prior: TracePrior, mech: Mechanism, dist, method: str = "auto") -> float:
    """Expected distance achieved by an optimal guessing attacker.

    Enumerates every reachable observation and every guess; "auto" and
    "exact" both mean this, as for :func:`conditional_entropy`.
    :func:`average_error_mc` is the sampled estimate.
    """
    if method not in ("auto", "exact"):
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    for x, weights in _exact_joint(prior, mech).items():
        total += _best_guess(weights, x, dist)[1]
    return total


def _sample_pairs(prior: TracePrior, mech: Mechanism, budget: int, rng):
    """Draw (real, observed) pairs: (pair index per sample, the distinct
    (support index, observation id) pairs, observations).

    The stream is one choice of every real, then one choice of outputs per
    distinct real that has more than one, reals in ascending order, each
    real's samples in ascending sample order. Pairs are listed by real,
    then by output position.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    r_idx = rng.choice(len(prior.support), size=budget, p=prior._probs)
    p_idx = np.empty(budget, dtype=np.int64)
    pairs: list[tuple[int, int]] = []
    ids: dict[tuple, int] = {}
    # one stable sort groups the samples by real, keeping sample order; on
    # indices of 16 bits or fewer numpy sorts by radix
    counts = np.bincount(r_idx)
    order = np.argsort(r_idx.astype(np.min_scalar_type(len(prior.support) - 1)), kind="stable")
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts):
        rows = order[ends[i] - counts[i]:ends[i]]
        outs = mech.outputs(prior.support[int(i)])
        picks = (np.zeros(rows.size, dtype=np.int64) if len(outs) == 1 else
                 rng.choice(len(outs), size=rows.size, p=np.array([q for _, q in outs])))
        lut = np.zeros(len(outs), dtype=np.int64)
        for k in np.flatnonzero(np.bincount(picks)):
            lut[k] = len(pairs)
            pairs.append((int(i), ids.setdefault(outs[int(k)][0], len(ids))))
        p_idx[rows] = lut[picks]
    return p_idx, pairs, list(ids)


def _sample_mean(p_idx: np.ndarray, pairs: list[tuple[int, int]], value) -> tuple[float, float]:
    """Mean of value(r, x) over the samples and its SE, one call per pair."""
    return _mean_se([value(r, x) for r, x in pairs], p_idx)


def average_error_mc(prior: TracePrior, mech: Mechanism, dist,
                     budget: int = 100_000, seed=0) -> tuple[float, float]:
    """Monte-Carlo average error with its standard error."""
    p_idx, pairs, observations = _sample_pairs(prior, mech, budget, as_rng(seed))
    guess = [optimal_guess(prior, mech, x, dist)[0] for x in observations]
    return _sample_mean(p_idx, pairs, lambda r, x: dist(prior.support[r], guess[x]))


def conditional_entropy(prior: TracePrior, mech: Mechanism, method: str = "auto") -> float:
    """Entropy (bits) of the real trace given the observation.

    Exact value is sum over X of p(X) H(p(R|X)); conditional_entropy_mc
    averages -log2 p(R|X) over sampled pairs, which has the same
    expectation. "auto" is exact: every mechanism enumerates its outputs.
    """
    if method not in ("auto", "exact"):
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    for weights in _exact_joint(prior, mech).values():
        norm = math.fsum(weights.values())
        for w in weights.values():
            if w > 0:
                total -= w * math.log2(w / norm)
    return total


def conditional_entropy_mc(prior: TracePrior, mech: Mechanism,
                           budget: int = 100_000, seed=0) -> tuple[float, float]:
    """Monte-Carlo conditional entropy (bits) with its standard error."""
    p_idx, pairs, observations = _sample_pairs(prior, mech, budget, as_rng(seed))
    post = [posterior_table(prior, mech, x) for x in observations]

    def surprisal(r: int, x: int) -> float:
        p = post[x].get(prior.support[r], 0.0)
        if p <= 0.0:
            raise InconsistentObservationError(
                "sampled real trace has zero posterior; mechanism and prior disagree")
        return -math.log2(p)

    return _sample_mean(p_idx, pairs, surprisal)


@dataclass(frozen=True)
class Fixture:
    """A loaded prior/mechanism test instance; the tick and window are the prior's."""

    prior: TracePrior
    mechanism: Mechanism
    name: str = ""


def _mechanism_from_spec(spec, prior: TracePrior) -> Mechanism:
    if spec == "identity":
        return IdentityMechanism()
    if spec == "fill-to":
        # default target: union of every timestamp in the prior support
        target = sorted({t for r in prior.support for t in r})
        return FillToMechanism(target)
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "fill-to":
            return FillToMechanism(spec["target"])
        if kind == "table":
            return TableMechanism({tuple(row["real"]): {tuple(o["observed"]): o["q"]
                                                        for o in row["outputs"]}
                                   for row in spec["rows"]})
        raise ValueError(f"unknown mechanism type {kind!r}")
    raise ValueError(f"unknown mechanism spec {spec!r}")


def load_fixture(source) -> Fixture:
    """Load a prior/mechanism fixture from a JSON file path, file object,
    or already-parsed dict.

    Schema: {"tick": float, "window": [ta, tb],
             "prior": [{"trace": [t, ...], "p": float}, ...],
             "mechanism": "identity" | "fill-to"
                          | {"type": "fill-to", "target": [t, ...]}
                          | {"type": "table", "rows": [{"real": [...],
                             "outputs": [{"observed": [...], "q": p}, ...]}, ...]}}
    """
    if isinstance(source, dict):
        doc = source
        name = str(doc.get("name", ""))
    elif hasattr(source, "read"):
        doc = json.load(source)
        name = str(doc.get("name", ""))
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
        name = str(doc.get("name", str(source)))
    tick = float(doc.get("tick", 1.0))
    window = (float(doc["window"][0]), float(doc["window"][1]))
    support = {tuple(entry["trace"]): entry["p"] for entry in doc["prior"]}
    prior = TracePrior(support, window, tick)
    mech = _mechanism_from_spec(doc["mechanism"], prior)
    for r in prior.support:
        mech.outputs(r)  # a table without a row for a prior trace raises here
    return Fixture(prior, mech, name)
