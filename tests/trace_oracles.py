"""Reference form of the trace Monte-Carlo sampler, one real at a time.

This is the form ``lpwanleak.traces`` used before the samples were grouped
in one pass; the tests hold the package to it bit for bit, and with it to
the layout of the sampler's random stream.
"""

import numpy as np


def flatnonzero_sample_pairs(prior, mech, budget: int, rng):
    """(support indices, observation ids, observations), each real's rows
    found by comparing the whole sample against it."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    r_idx = rng.choice(len(prior.support), size=budget, p=prior._probs)
    x_idx = np.empty(budget, dtype=np.int64)
    ids: dict[tuple, int] = {}
    for i in np.unique(r_idx):
        rows = np.flatnonzero(r_idx == i)
        outs = mech.outputs(prior.support[int(i)])
        picks = (np.zeros(rows.size, dtype=np.int64) if len(outs) == 1 else
                 rng.choice(len(outs), size=rows.size, p=np.array([q for _, q in outs])))
        for k in np.unique(picks):
            x_idx[rows[picks == k]] = ids.setdefault(outs[int(k)][0], len(ids))
    return r_idx, x_idx, list(ids)

