"""GOOD public surface: decodes interned bitsets before they escape."""


class DecodedSurface:
    def __init__(self, session, compiled):
        self._session = session
        self._compiled = compiled
        self._mat_bits = {}

    def matched(self, pattern_node):
        return self._compiled.decode(self._mat_bits[pattern_node])

    def ball(self, source, bound):
        bits = self._session.descendants_within_bits(source, bound)
        return self._compiled.decode(bits)

    def names(self, pattern_node):
        return sorted(select_members(self._names, self._mat_bits[pattern_node]))

    def count(self, pattern_node):
        return self._mat_bits[pattern_node].bit_count()

    def same(self, other):
        return self._mat_bits == other._mat_bits
