"""Independent oracles used by the test suite.

The brute force below enumerates every valid profile (2 security levels x
4 levels for the other 11 blocks, 2 * 4**11 = 8,388,608 assignments) with plain
outer sums. It shares no code path with the greedy scan it checks.
"""

import numpy as np

from edgelca.model import FunctionalBlock, valid_levels

PROFILE_SPACE_SIZE = 2 * 4**11

#: Characters `str.splitlines` ends a line at that `.iotprof` and the data
#: CSVs read as line content; only LF, CRLF and a lone CR break a line.
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def brute_force_extrema(table):
    """Exhaustive (min sum-of-low, max sum-of-up) over all valid profiles.

    Returns (min_assignments, min_low, max_assignments, max_up) where the
    assignment dicts map block -> level.
    """
    blocks = list(FunctionalBlock)
    level_sets = [valid_levels(b) for b in blocks]
    dims = [len(ls) for ls in level_sets]

    def extremum(component, reduce_fn, arg_fn):
        sums = np.zeros(1)
        for block, levels in zip(blocks, level_sets):
            per_level = np.array(
                [getattr(table.lookup(block, lv), component) for lv in levels]
            )
            sums = (sums[:, None] + per_level[None, :]).ravel()
        assert sums.size == PROFILE_SPACE_SIZE
        idx = arg_fn(sums)
        choice = np.unravel_index(idx, dims)
        assignments = {
            b: level_sets[i][choice[i]] for i, b in enumerate(blocks)
        }
        return assignments, reduce_fn(sums)

    min_assign, min_low = extremum("low", np.min, np.argmin)
    max_assign, max_up = extremum("up", np.max, np.argmax)
    return min_assign, float(min_low), max_assign, float(max_up)
