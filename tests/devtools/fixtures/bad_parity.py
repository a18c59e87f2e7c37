"""REP005 fixture: a fast segment module breaking the registry contract.

Linted with ``parity_fast_module="bad_parity.py"`` and
``ops_module="bad_opreg.py"``: every export must be a registered op,
dispatch must go through the registry (no inline backend compares), and
``ufunc.at`` scatters stay out of the fast module altogether.
"""

import numpy as np

__all__ = ["segment_sum", "segment_max", "segment_mean", "scatter_add"]
# REP005: segment_mean is exported but not registered in bad_opreg.py.


def segment_sum(values, segment_ids, num_segments):
    if active_backend() == "fast":  # REP005: inline backend branch
        out = np.zeros((num_segments,) + values.shape[1:])
        np.add.at(out, segment_ids, values)  # REP005: scatter in a hot path
        return out
    return values


def segment_max(values, segment_ids, num_segments):
    out = np.full((num_segments,), -np.inf)
    np.maximum.at(out, segment_ids, values)  # REP005: scatter in a hot path
    return out


def scatter_add(out, index, values):
    np.add.at(out, index, values)  # REP005: no exempt fallback any more
    return out


def active_backend():
    return "fast"
