"""CAF014 true positive: an eager-size message per peer, per iteration.

The loop trip grows with the image count P, so the rank injects O(P)
latency-bound tiny messages where one aggregated transfer (or a single
collective) would do — the §4.2 eager-protocol message-rate hazard.
"""

import numpy as np


def scatter_flags(img):
    co = img.allocate_coarray(img.nranks)
    for peer in range(img.nranks):
        # 8 bytes per message, img.nranks messages: O(P) injections.
        co.write_section(peer, slice(img.rank, img.rank + 1), np.ones(1))  # expected: CAF014
    img.sync_all()
