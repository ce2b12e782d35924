"""BAD: memo reads with no snapshot-version guard anywhere on the path."""

from repro.distance.oracle import BoundedBitsCache


class StaleBallServer:
    def __init__(self, compiled):
        self._compiled = compiled
        self._bits = BoundedBitsCache(128)

    def ball(self, source, bound):
        key = (source, bound)
        hit = self._bits.get(key)
        if hit is None:
            hit = self._compiled.ball_bits(source, bound)
            self._bits.put(key, hit)
        return hit


def seeded_fixpoint(pattern, ancestor_memo):
    entry = ancestor_memo.get((pattern, 1))
    if entry is None:
        entry = (0, 0, 0, {})
        ancestor_memo.put((pattern, 1), entry)
    return entry[2]
