"""The one memo of built objects, keyed by the exact content of their input.

Four builders share it, each key led by the builder's name:
``nestohedron.face_poset`` on the building set's vertex count and tubes;
bar(P) with its half of a gluing's certificate
(``smallcover.GluedManifold.complex``) on the poset's dimension and
faces; ``subdivision.lemma_subdivision`` on the graph's vertex count and
adjacency masks with the apex; and ``subdivision.subdivide_pseudomanifold``
on the complex's dimension, vertex and face columns, the graph and the
apex exactly as passed.  A key is admitted on its second sight: the first
call that returns records only the key, counted at its input's size, and
the second stores the result, counted at the size its builder gives, so a
one-off input is never retained.  A poset counts its faces, their
incidences and its coordinate table, before it has computed the last
two; bar(P) counts its cells and the faces of its key; a subdivision
counts its complex's cells.  The least recently used entries are evicted
so that the memo never holds more than CELL_BUDGET cells, the budget
being read from ``errors`` on every call.  A call that raises stores
nothing, so a stored bar(P) has passed its half of the certificate, and
a hit does not rerun it.  No other verdict is memoised here: a gluing's
coset tables are certified on every gluing, and
``verify_lemma_conditions`` and ``condition_star_check`` run on every
call.  Callers of a memoised input share one result, so ``FacePoset``
and ``ColouredSubdivision`` are never changed after they are built.
"""

from collections import OrderedDict

from . import errors


class _Memo:
    """Results keyed by input content, admitted on a key's second sight and
    evicted least recently used beyond CELL_BUDGET cells in all."""

    def __init__(self):
        self.entries = OrderedDict()   # key -> (cells, result or None)
        self.cells = 0

    def clear(self):
        self.entries.clear()
        self.cells = 0

    def fetch(self, key, input_cells, build, cells):
        """The stored result for ``key``, or ``build()``; a first sight
        records the key at ``input_cells``, a second stores the result at
        ``cells(result)``."""
        budget = errors.CELL_BUDGET
        self._trim(budget)
        seen = self.entries.get(key)
        if seen is not None and seen[1] is not None:
            self.entries.move_to_end(key)
            return seen[1]
        result = build()
        if seen is None:
            size, kept = input_cells, None
        else:
            size, kept = cells(result), result
        # the build may have evicted the key through a nested fetch
        old = self.entries.pop(key, None)
        if old is not None:
            self.cells -= old[0]
        if size <= budget:
            self.entries[key] = (size, kept)
            self.cells += size
            self._trim(budget)
        return result

    def _trim(self, budget):
        while self.cells > budget:
            self.cells -= self.entries.popitem(last=False)[1][0]


_MEMO = _Memo()
