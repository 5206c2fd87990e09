"""Reference block-completion walk for the layout tests.

The walk as the session first wrote it: at each payload-chunk boundary it
counts each group's routed bits and yields every block that boundary
completes, group I before group II. It is slow on purpose and must not be
optimised; `noisekey.session._block_layout` has to give the same sequence,
and `GroupStreams.blocks` each group's blocks in it. It builds its own key
mask, so it shares no routing code with the package.
"""

from __future__ import annotations

import numpy as np

from noisekey.grouping import CommonKey


def completed_blocks(stream: np.ndarray, key: CommonKey, block_bits: int):
    """Yield (group, per-group index, routed bits) in wire completion order."""
    # Stream bit i goes to group I iff key bit i mod key.length is 1.
    mask = np.tile(key.bits == 1, -(-len(stream) // key.length))[: len(stream)]
    routed = {1: stream[mask], 2: stream[~mask]}
    prefix_ones = np.cumsum(mask)
    done = {1: 0, 2: 0}
    for chunk_end in range(block_bits, len(stream) + 1, block_bits):
        have = {1: int(prefix_ones[chunk_end - 1])}
        have[2] = chunk_end - have[1]
        for group in (1, 2):
            while (done[group] + 1) * block_bits <= have[group]:
                j = done[group]
                yield group, j, routed[group][j * block_bits : (j + 1) * block_bits]
                done[group] += 1
