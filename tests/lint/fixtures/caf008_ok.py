"""CAF008 near-misses: finish entered directly or via a named block."""


def with_block(img, owner, task):
    with img.finish():
        img.spawn(owner, task)


def named_block(img, owner, task):
    fb = img.finish()
    with fb:
        img.spawn(owner, task)


def other_finish(recorder, cluster, failure):
    # Not CAF's finish(team=None): that takes at most one positional.
    recorder.finish(cluster, failure)
