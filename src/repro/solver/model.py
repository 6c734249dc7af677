"""Models: satisfying assignments with typed decoding."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.solver.terms import VarInfo


class SymbolTable:
    """Interns string values to integers, per pool, *rank-preserving*.

    Variables in the same pool share an interning table so that equality
    constraints between them are meaningful, and codes are assigned so
    that **numeric code order equals lexicographic string order** within
    the pool — order comparisons (``grade >= 'B'``) translate directly
    into integer atoms and agree with the engine's string comparisons.
    New strings get the midpoint code between their lexicographic
    neighbours (gap halving); pools own disjoint id bands, so accidental
    cross-pool comparisons can never hold.
    """

    _POOL_STRIDE = 1 << 42
    _GAP = 1 << 20

    def __init__(self):
        #: pool -> sorted list of (value, code)
        self._pools: dict[str, list[tuple[str, int]]] = {}
        self._codes: dict[str, dict[str, int]] = {}
        self._reverse: dict[int, str] = {}
        self._fresh_counts: dict[str, int] = {}
        #: pool -> id band (cached: band lookup is on the intern hot path)
        self._bands: dict[str, int] = {}
        #: Frozen per-pool candidate universes (see freeze_universes).
        self._universes: dict[str, tuple[int, tuple[int, ...]]] | None = None
        self._universe_fresh = 0
        #: True while the interning dicts are shared with another table
        #: (copy-on-write); any mutation materialises private copies.
        self._shared = False

    def _band(self, pool: str) -> int:
        band = self._bands.get(pool)
        if band is None:
            if self._shared:
                self._materialize()
            band = (len(self._pools) + 1) * self._POOL_STRIDE
            self._pools[pool] = []
            self._codes[pool] = {}
            self._bands[pool] = band
        return band

    def copy(self) -> "SymbolTable":
        """An independent table with the same interned state.

        Used by the generator's declaration snapshots: every dataset spec
        of a query interns the same schema-domain values in the same
        order, so a warm table is copied instead of re-interned (codes
        are identical by construction).

        The copy is copy-on-write: the interning dicts are shared until
        either table interns something new (most solves only look up
        values that are already present), at which point the mutating
        side takes private copies.
        """
        clone = SymbolTable.__new__(SymbolTable)
        self._shared = True
        clone._pools = self._pools
        clone._codes = self._codes
        clone._reverse = self._reverse
        clone._shared = True
        clone._fresh_counts = dict(self._fresh_counts)
        clone._bands = dict(self._bands)
        # Frozen universes are immutable once computed; share them.
        clone._universes = self._universes
        clone._universe_fresh = self._universe_fresh
        return clone

    def _materialize(self) -> None:
        """Take private copies of the shared interning dicts."""
        self._pools = {pool: list(entries) for pool, entries in self._pools.items()}
        self._codes = {pool: dict(codes) for pool, codes in self._codes.items()}
        self._reverse = dict(self._reverse)
        self._shared = False

    def intern(self, pool: str, value: str) -> int:
        band = self._band(pool)
        codes = self._codes[pool]
        if value in codes:
            return codes[value]
        if self._shared:
            self._materialize()
            codes = self._codes[pool]
        entries = self._pools[pool]
        position = bisect.bisect_left(entries, (value, 0))
        if not entries:
            code = band
        elif position == 0:
            code = entries[0][1] - self._GAP
        elif position == len(entries):
            code = entries[-1][1] + self._GAP
        else:
            low = entries[position - 1][1]
            high = entries[position][1]
            if high - low < 2:
                raise OverflowError(
                    f"interning gap exhausted in pool {pool!r} at {value!r}"
                )
            code = (low + high) // 2
        entries.insert(position, (value, code))
        codes[value] = code
        self._reverse[code] = value
        return code

    def fresh(self, pool: str) -> int:
        """Intern a new synthetic value for ``pool`` (e.g. ``dept_name~3``)."""
        count = self._fresh_counts.get(pool, 0) + 1
        self._fresh_counts[pool] = count
        return self.intern(pool, f"{pool.rsplit('.', 1)[-1]}~{count}")

    def decode(self, code: int) -> str:
        return self._reverse[code]

    def known_codes(self, pool: str) -> list[int]:
        self._band(pool)
        # Rank-preserving interning: entries are sorted by value, and code
        # order equals value order, so the codes are already sorted.
        return [code for _, code in self._pools[pool]]

    def freeze_universes(self, fresh_count: int) -> None:
        """Pre-intern search fresh values and cache candidate universes.

        Domain construction wants, per pool, ``known codes + fresh_count
        synthetic values``.  Tables that get copied for many sibling
        solves (the generator's declaration snapshots) pay that cost once
        here: the fresh values are interned now, the fresh counters are
        rolled back so each solve re-derives the same names, and the
        resulting code list is cached keyed by pool size — any later
        intern (a query literal, an order witness) grows the pool and
        transparently invalidates the cache for that pool.
        """
        if (
            self._universes is not None
            and fresh_count == self._universe_fresh
            and len(self._universes) == len(self._pools)
            and all(
                len(self._pools.get(pool, ())) == size
                for pool, (size, _) in self._universes.items()
            )
        ):
            # Nothing interned since the last freeze (common when a
            # snapshot is layered on a restored snapshot): still valid.
            return
        universes: dict[str, tuple[int, tuple[int, ...]]] = {}
        for pool in list(self._pools):
            base = self._fresh_counts.get(pool, 0)
            for _ in range(fresh_count):
                self.fresh(pool)
            self._fresh_counts[pool] = base
            entries = self._pools[pool]
            universes[pool] = (len(entries), tuple(c for _, c in entries))
        self._universes = universes
        self._universe_fresh = fresh_count

    def frozen_universe(self, pool: str, fresh_count: int):
        """The cached universe for ``pool``, or None when stale/absent."""
        universes = self._universes
        if universes is None or fresh_count != self._universe_fresh:
            return None
        cached = universes.get(pool)
        if cached is None:
            return None
        size, codes = cached
        if len(self._pools.get(pool, ())) != size:
            return None
        return codes


@dataclass
class Model:
    """A satisfying assignment.

    Attributes:
        assignment: Variable name -> integer value (interned for strings).
        infos: Variable metadata used for decoding.
        symbols: The symbol table that interned the string values.
    """

    assignment: dict[str, int]
    infos: dict[str, VarInfo]
    symbols: SymbolTable
    stats: dict = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.assignment

    def raw(self, name: str) -> int:
        """The integer value of a variable."""
        return self.assignment[name]

    def value(self, name: str):
        """The typed (decoded) value of a variable."""
        code = self.assignment[name]
        info = self.infos.get(name)
        if info is not None and info.kind == "str":
            return self.symbols.decode(code)
        return code

    def typed_assignment(self) -> dict[str, object]:
        """The whole model with string codes decoded."""
        return {name: self.value(name) for name in self.assignment}
