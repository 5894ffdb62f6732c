"""In-memory spans recorded around the calls hostbench makes into each layer.

A span is ``[name, start_ns, end_ns, parent, cell, pass]``; ``parent`` is
the row index of the enclosing span (-1 at the top).  Rows stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Spans:
    """Span log of one traced run."""

    COLUMNS = ("name", "start_ns", "end_ns", "parent", "cell", "pass")

    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []
        #: identifiers stamped on every row recorded while they are set
        self.cell = ""
        self.pass_no = -1

    @contextmanager
    def span(self, name: str):
        row = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self.rows.append([name, 0, 0, parent, self.cell, self.pass_no])
        self._open.append(row)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.rows[row][1] = start
            self.rows[row][2] = end

    def self_times(self) -> list[int]:
        """Per row: the span's duration minus what its child spans cover."""
        out = [end - start for _n, start, end, *_ in self.rows]
        for _n, start, end, parent, *_ in self.rows:
            if parent >= 0:
                out[parent] -= end - start
        return out


class NoSpans:
    """The untraced run: ``span()`` costs one call and records nothing."""

    cell = ""
    pass_no = -1
    _null = nullcontext()

    def span(self, name: str):
        return self._null
