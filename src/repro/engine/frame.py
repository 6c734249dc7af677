"""Intermediate results ("frames") flowing between plan operators.

A frame is a bag of rows with a header of :class:`FrameCol` entries.  Each
header entry remembers its *binding* (the table alias that produced it) and
its *sources* — for columns produced by NATURAL-join coalescing, the set of
original (binding, column) pairs it merged.  This lets qualified references
resolve through natural joins, and implements the paper's assumption A8
observation that a natural join replaces common attributes by a single
output attribute whose value may come from either input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ExecutionError


class FrameCol(NamedTuple):
    """One column of a frame header.

    A named tuple, so a header (a tuple of these) hashes and compares in
    C — the subplan cache interns headers by value.

    Attributes:
        binding: Table alias that produced the column, or ``None`` for a
            coalesced natural-join column.
        name: Column name (lower-case).
        sources: Original (binding, name) pairs this column answers for.
    """

    binding: str | None
    name: str
    sources: tuple[tuple[str, str], ...] = ()

    def answers(self, binding: str, name: str) -> bool:
        """True if a qualified reference ``binding.name`` resolves here."""
        if self.binding is not None:
            return self.binding == binding and self.name == name
        return (binding, name) in self.sources


class Layout:
    """A frame header interned for one subplan-cache batch (DESIGN.md §5g).

    Every frame the cached executor builds over an equal header shares
    one layout: a column reference resolves once per header instead of
    once per frame, and content interning keys a frame by the small
    ``token`` rather than hashing its header again.  A token means
    nothing outside the :class:`~repro.engine.subplan.SubplanCache`
    that issued it.
    """

    __slots__ = ("header", "token", "resolved")

    def __init__(self, header: tuple[FrameCol, ...], token: int):
        self.header = header
        self.token = token
        #: The resolve memo every frame of this layout shares.
        self.resolved: dict = {}


@dataclass
class Frame:
    """A bag of rows with a rich header."""

    header: list[FrameCol]
    rows: list[tuple] = field(default_factory=list)
    #: Memo of successful ``resolve`` lookups — expression evaluation
    #: resolves the same references once per row, and headers never
    #: change after construction, so the index is computed once.
    _resolve_memo: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The interned header this frame was built over, and the dataset-
    #: local id of its content (cached executor only; ``None`` on the
    #: uncached reference path).
    layout: Layout | None = field(default=None, repr=False, compare=False)
    content_id: int | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of(
        cls, layout: Layout, rows: list[tuple], content_id: int | None
    ) -> "Frame":
        """A frame over an interned header, sharing its resolve memo."""
        frame = object.__new__(cls)
        frame.header = layout.header
        frame.rows = rows
        frame._resolve_memo = layout.resolved
        frame.layout = layout
        frame.content_id = content_id
        return frame

    def resolve(self, binding: str | None, name: str) -> int:
        """Index of the column answering to ``binding.name`` (or bare name).

        Unqualified names must be unambiguous; coalesced (natural-join)
        columns shadow the per-side originals, as in SQL.
        """
        memo_key = (binding, name)
        cached = self._resolve_memo.get(memo_key)
        if cached is not None:
            return cached
        index = self._resolve(binding, name)
        self._resolve_memo[memo_key] = index
        return index

    def _resolve(self, binding: str | None, name: str) -> int:
        name = name.lower()
        if binding is not None:
            binding = binding.lower()
            matches = [
                i for i, col in enumerate(self.header) if col.answers(binding, name)
            ]
        else:
            matches = [i for i, col in enumerate(self.header) if col.name == name]
            if len(matches) > 1:
                coalesced = [
                    i
                    for i, col in enumerate(self.header)
                    if col.name == name and col.binding is None
                ]
                if len(coalesced) == 1:
                    return coalesced[0]
        if not matches:
            target = f"{binding}.{name}" if binding else name
            raise ExecutionError(f"column {target!r} not found in frame")
        if len(matches) > 1:
            target = f"{binding}.{name}" if binding else name
            raise ExecutionError(f"ambiguous column reference {target!r}")
        return matches[0]

    def bindings(self) -> set[str]:
        """All bindings visible in this frame (including coalesce sources)."""
        out: set[str] = set()
        for col in self.header:
            if col.binding is not None:
                out.add(col.binding)
            for src_binding, _ in col.sources:
                out.add(src_binding)
        return out

    def columns_of_binding(self, binding: str) -> list[int]:
        """Indices of columns answering for ``binding`` (for ``t.*``)."""
        binding = binding.lower()
        out = []
        for i, col in enumerate(self.header):
            if col.binding == binding:
                out.append(i)
            elif col.binding is None and any(b == binding for b, _ in col.sources):
                out.append(i)
        return out
