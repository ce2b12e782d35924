"""BAD public surface: returns raw interned-id bitsets to the caller.

Analyzed under a synthetic ``src/repro/api/...`` path by the tests, since
the decode-boundary rule is scoped to public-surface modules.
"""


class LeakySurface:
    def __init__(self, session):
        self._session = session
        self._mat_bits = {}

    def matched(self, pattern_node):
        # Raw bitset over interned ids: meaningless outside this snapshot.
        return self._mat_bits[pattern_node]

    def ball(self, source, bound):
        return self._session.descendants_within_bits(source, bound)

    def names_and_raw(self, pattern_node):
        # Decoding one value does not launder the raw bitset returned
        # beside it.
        names = select_members(self._names, self._mat_bits[pattern_node])
        return sorted(names), self._mat_bits[pattern_node]
