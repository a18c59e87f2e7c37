"""REP005 fixture: ``ufunc.at`` scatters outside the allowed module.

Linted with ``parity_reference_module`` naming a file that does not
exist, so every ``np.add.at`` / ``np.maximum.at`` call here is flagged.
"""

import numpy as np


def segment_sum(values, segment_ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, segment_ids, values)  # REP005: scatter in a hot path
    return out


def segment_max(values, segment_ids, num_segments):
    out = np.full((num_segments,), -np.inf)
    np.maximum.at(out, segment_ids, values)  # REP005: scatter in a hot path
    return out


def scatter_add(out, index, values):
    np.add.at(out, index, values)  # REP005: no exempt fallback any more
    return out


def reduceat_sum(values, starts):
    return np.add.reduceat(values, starts)  # clean: not a ufunc.at scatter
