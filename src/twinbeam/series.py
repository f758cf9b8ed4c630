"""Series handed out one block at a time.

synth.colored_gaussian_series shapes a channel as its blocks are read,
fileio.read_trace reads a trace channel back block by block, and
dsp.welch_psd averages either as it reads it, so no stage holds a whole
series.  Each reads it through BlockSeries.blocks(), which checks its length.
"""

import numpy as np


class BlockSeries:
    """A series of `length` samples, computed or read one block at a time.

    blocks() returns the iterator of its consecutive blocks.  The series
    that synth and fileio make compute or read each block as it is taken,
    so they can be read once, by blocks() or by array().
    """

    def __init__(self, length, blocks):
        self.length = length
        self._blocks = blocks

    def __len__(self):
        return self.length

    def blocks(self):
        """The iterator of the consecutive blocks, in order; RuntimeError if they
        hold more or fewer than `length` samples, as on a second read."""
        count = 0
        for block in self._blocks:
            count += len(block)
            if count > self.length:
                raise RuntimeError(f"series blocks hold more than its {self.length} samples")
            yield block
        if count != self.length:
            raise RuntimeError(f"series blocks hold {count} of its {self.length} samples: "
                               "blocks already read?")

    def array(self):
        """The whole series as one new float64 array."""
        out = np.empty(self.length)
        start = 0
        for block in self.blocks():
            out[start:start + len(block)] = block
            start += len(block)
        return out
