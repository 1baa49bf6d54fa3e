"""A rank's segment costs the host what the run touches: kernel pages, 4 KiB
at a time, not numpy's hugepage-advised allocation."""

import gc
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.gasnet.core import GasnetWorld
from repro.gasnet.segment import make_segment

from tests.gasnet.conftest import SEGMENT_BYTES, gasnet_run


def test_segment_is_zero_filled_writable_and_not_numpys():
    seg = make_segment(3 << 20)
    assert seg.dtype == np.uint8 and seg.ndim == 1 and seg.nbytes == 3 << 20
    assert not seg.any()
    assert seg.flags.writeable and seg.flags.c_contiguous
    assert seg.flags.owndata is False  # the kernel's pages, not an allocator's
    seg[-8:].view(np.uint64)[0] = 2**64 - 1
    assert seg[-1] == 255 and not seg[:-8].any()
    # The array pins its mapping: it cannot be unmapped from under it.
    region = seg.base.obj
    assert isinstance(region, mmap.mmap)
    with pytest.raises(BufferError):
        region.close()


def test_attach_builds_the_segment_and_the_world_keeps_it():
    def program(g, ctx):
        assert g.segment.nbytes == SEGMENT_BYTES and not g.segment.any()
        assert g.segment.flags.owndata is False
        g.put((ctx.rank + 1) % ctx.nranks, 4096 * ctx.rank, np.full(16, ctx.rank + 1, np.uint8))

    cluster, _ = gasnet_run(program, 4)
    gc.collect()
    world = GasnetWorld.get(cluster)
    for rank in range(4):
        seg = world.segments[(rank + 1) % 4]
        assert (seg[4096 * rank : 4096 * rank + 16] == rank + 1).all()


# The child reads its own high-water mark from /proc: ``ru_maxrss`` survives
# fork + exec, so under a 300 MB pytest process it would report the parent's.
_RSS_CHILD = """
import numpy as np
from repro.apps.randomaccess import run_randomaccess
from repro.caf import run_caf

def program(img):
    return run_randomaccess(img, table_bits_per_image=6, updates_per_image=64, batches=1)

for _ in range(4):
    run_caf(program, 32, backend="gasnet")
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) // 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ra_x32_on_gasnet_stays_under_150_mb():
    """Four runs, each 32 segments of 64 MiB with a few KiB touched. With
    numpy-owned segments on a THP=``madvise`` host every first touch zeroed
    2 MiB: 105 MB after one run, 230+ after four (``NUMPY_MADVISE_HUGEPAGE=0``
    on that commit reads what this one does, ~45 MB). On a THP=``never``
    host the bound holds either way."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("NUMPY_MADVISE_HUGEPAGE", None)
    out = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD], env=env, check=True, capture_output=True, text=True
    )
    assert int(out.stdout.split()[-1]) < 150
