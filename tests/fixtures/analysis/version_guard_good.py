"""GOOD: every memo read is version-guarded, entry-validated, or fresh."""

from repro.distance.oracle import BoundedBitsCache


class PinnedBallServer:
    def __init__(self, compiled):
        self._compiled = compiled
        self._bits = BoundedBitsCache(128)
        self._pinned_version = compiled.version

    def _check_version(self):
        if self._pinned_version != self._compiled.version:
            self._bits.clear()
            self._pinned_version = self._compiled.version

    def ball(self, source, bound):
        self._check_version()
        key = (source, bound)
        hit = self._bits.get(key)
        if hit is None:
            hit = self._compiled.ball_bits(source, bound)
            self._bits.put(key, hit)
        return hit


def validated_fixpoint(parent_static, child_static, ancestor_memo):
    # Entry-validation idiom: the cached tuple embeds its inputs and the
    # read path rejects mismatches, so no version compare is needed.
    entry = ancestor_memo.get((parent_static, child_static))
    if entry is not None and (
        entry[0] != parent_static or entry[1] != child_static
    ):
        entry = None
    return entry


def local_memo_only(compiled, sources, bound):
    # A function-local memo cannot outlive the snapshot it was filled from.
    balls = {}
    out = []
    for source in sources:
        ball = balls.get(source)
        if ball is None:
            ball = compiled.ball_bits(source, bound)
            balls[source] = ball
        out.append(ball)
    return out
