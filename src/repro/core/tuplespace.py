"""Tuple-slot allocation and SQL-to-constraint translation.

This is the implementation of the paper's variable scheme (Section V-A):
each occurrence of a relation maps to an index in a per-base-relation
array of constraint tuples; ``cvcMap(rel.attr)`` becomes
``table[index].column``, one solver variable per attribute.  The space can
grow — extra slots are added to satisfy foreign keys when a referenced
attribute is nullified (Section V-B), and the aggregation procedure
allocates three slots per occurrence (Algorithm 4).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.core.attrs import Attr
from repro.errors import GenerationError, UnsupportedSqlError
from repro.solver import builders
from repro.solver.solver import Solver
from repro.solver.terms import Formula, Linear
from repro.sql.ast import BinaryOp, ColumnRef, Comparison, Expr, Literal


def slot_var_name(table: str, index: int, column: str) -> str:
    """Canonical solver-variable name for one attribute of one slot.

    Interned: the same name is built anew in every solve, spec and run,
    then used as a dict key in the solver's hottest loops (union-find,
    assignments, watch lists).  Interning makes equal names *identical*
    objects process-wide, so those lookups compare by pointer — which
    also lets compiled skeletons (§5j) be reused across runs without
    cross-run string comparisons.
    """
    return sys.intern(f"{table}[{index}].{column}")


def _rotate(values: tuple, index: int) -> tuple:
    """Rotate a preference tuple by ``index`` positions."""
    if len(values) < 2:
        return values
    shift = index % len(values)
    return values[shift:] + values[:shift]


@dataclass
class SlotInfo:
    """Provenance of one tuple slot."""

    table: str
    index: int
    reason: str  # 'occurrence:<binding>', 'fk-support', 'agg-set:<k>'


@dataclass
class SpaceSnapshot:
    """Declared state of a :class:`ProblemSpace` (see ``snapshot``).

    ``symbols`` holds the snapshot owner's table; every restore copies it
    so replayed spaces intern independently from the template and from
    each other.
    """

    copies: int
    sizes: dict[str, int]
    slots: list[SlotInfo]
    binding_slots: dict[str, list[int]]
    infos: dict
    symbols: object


class ProblemSpace:
    """Solver variables + slots for one dataset-generation problem.

    Args:
        aq: The analyzed query.
        solver: A fresh :class:`Solver` owned by this problem.
        copies: Number of slots per occurrence (1 normally, 3 for the
            aggregation datasets).  Copy ``k`` of binding ``b`` is
            addressed with ``binding_var(b, col, copy=k)``.
    """

    def __init__(self, aq: AnalyzedQuery, solver: Solver, copies: int = 1):
        self.aq = aq
        self.solver = solver
        self.copies = copies
        self.sizes: dict[str, int] = {}
        self.slots: list[SlotInfo] = []
        #: (table, slot index, column) triples forced to NULL at assembly
        #: time — the Section V-H nullable-foreign-key alternative.
        self.forced_nulls: set[tuple[str, int, str]] = set()
        # binding -> list of slot indices, one per copy
        self._binding_slots: dict[str, list[int]] = {}
        # Slots already covered by finalize_declarations (incremental:
        # restored spaces only declare slots added after the snapshot).
        self._declared_slots = 0
        for binding, occ in aq.occurrences.items():
            indices = []
            for copy in range(copies):
                indices.append(self._new_slot(occ.table, f"occurrence:{binding}#{copy}"))
            self._binding_slots[binding] = indices

    # -- slots ---------------------------------------------------------------

    def _new_slot(self, table: str, reason: str) -> int:
        index = self.sizes.get(table, 0)
        self.sizes[table] = index + 1
        self.slots.append(SlotInfo(table, index, reason))
        return index

    def add_support_slot(self, table: str) -> int:
        """Add an extra slot (Section V-B foreign-key support tuple)."""
        return self._new_slot(table, "fk-support")

    def slot_of(self, binding: str, copy: int = 0) -> int:
        return self._binding_slots[binding][copy]

    def table_slots(self, table: str) -> range:
        """All current slot indices of a base table."""
        return range(self.sizes.get(table, 0))

    def in_query(self, table: str) -> bool:
        return self.sizes.get(table, 0) > 0

    # -- variables ------------------------------------------------------------

    def var(self, table: str, index: int, column: str) -> Linear:
        """The solver variable for ``table[index].column`` (declared lazily).

        Preferred values are rotated by the slot index so distinct tuples
        of the same relation lean towards distinct attribute values —
        generated rows stay mutually distinguishable under projection,
        and the datasets read like real data rather than repeated rows.
        """
        name = slot_var_name(table, index, column)
        solver = self.solver
        if solver.has_var(name):
            return Linear.of_var(name)
        pools = self.aq.pools
        cache = pools._decl_cache
        if solver.warm_declarations:
            # Warm-table replay: the declared info (with its interned
            # preferred codes) is valid verbatim in any solver whose
            # table descends from the first declaration build.
            info = pools._info_cache.get(name)
            if info is not None:
                if solver._infos_shared:
                    solver._infos = dict(solver._infos)
                    solver._infos_shared = False
                solver._infos[name] = info
                return Linear.of_var(name)
        prepared = cache.get(name)
        if prepared is None:
            schema_col = self.aq.schema.table(table).column(column)
            if schema_col.sqltype.is_textual:
                pool = pools.pool_of(table, column)
                own = tuple(str(v) for v in schema_col.domain)
                pooled = pools.preferred_values(table, column)
                preferred = own + tuple(v for v in pooled if v not in set(own))
                prepared = ("str", pool, _rotate(preferred, index))
            else:
                preferred_ints = tuple(
                    int(v) for v in schema_col.domain if isinstance(v, int)
                )
                prepared = ("int", None, _rotate(preferred_ints, index))
            cache[name] = prepared
        kind, pool, preferred = prepared
        if kind == "str":
            result = solver.str_var(name, pool, preferred)
        else:
            result = solver.int_var(name, preferred)
        pools._info_cache[name] = solver._infos[name]
        return result

    def attr_var(self, attr: Attr, copy: int = 0) -> Linear:
        """Variable for an occurrence-level attribute at its current slot."""
        table = self.aq.table_of(attr.binding)
        return self.var(table, self.slot_of(attr.binding, copy), attr.column)

    def finalize_declarations(self) -> None:
        """Declare every attribute of every slot so models decode full rows.

        Incremental: slots declared by a previous call (or already present
        in a restored snapshot) are skipped, so adding support slots to a
        restored space only declares the new slots' variables.
        """
        for slot in self.slots[self._declared_slots:]:
            for column in self.aq.schema.table(slot.table).column_names:
                self.var(slot.table, slot.index, column)
        self._declared_slots = len(self.slots)

    # -- declaration snapshots ------------------------------------------------

    def _share_infos(self):
        self.solver._infos_shared = True
        return self.solver._infos

    def snapshot(self) -> "SpaceSnapshot":
        """Capture the fully-declared state for replay.

        Valid immediately after :meth:`finalize_declarations` (before any
        spec-specific constraints or forced nulls).  The declared
        variables and interned symbols of a problem space depend only on
        (query, schema, copies, support-slot sequence), so sibling specs
        with the same shape replay the snapshot instead of re-declaring.
        """
        # Pre-pay the per-solve fresh-value interning and universe sort
        # for every restored sibling (pool growth invalidates per pool).
        # Freezing the live table (not the copy) lets sibling snapshots
        # of the same generator skip the freeze entirely: nothing new is
        # interned between base builds, so the early-out fires.
        self.solver.symbols.freeze_universes(self.solver.config.fresh_str_values)
        symbols = self.solver.symbols.copy()
        return SpaceSnapshot(
            copies=self.copies,
            sizes=dict(self.sizes),
            slots=list(self.slots),
            binding_slots={k: list(v) for k, v in self._binding_slots.items()},
            # Shared copy-on-write: the snapshotting solver materialises
            # its own dict if it ever declares another variable.
            infos=self._share_infos(),
            # Copied now: the snapshotting space keeps interning (build
            # literals, search witnesses) into its own table afterwards.
            symbols=symbols,
        )

    @staticmethod
    def restore(
        aq: AnalyzedQuery, snap: "SpaceSnapshot", solver_config=None
    ) -> "ProblemSpace":
        """A fresh, independent (space, solver) pair from a snapshot."""
        solver = Solver.from_declarations(
            solver_config, snap.infos, snap.symbols.copy()
        )
        space = ProblemSpace.__new__(ProblemSpace)
        space.aq = aq
        space.solver = solver
        space.copies = snap.copies
        space.sizes = dict(snap.sizes)
        space.slots = list(snap.slots)
        space.forced_nulls = set()
        space._binding_slots = {k: list(v) for k, v in snap.binding_slots.items()}
        space._declared_slots = len(snap.slots)
        return space

    # -- translation -----------------------------------------------------------

    def _attr_of_ref(self, ref: ColumnRef) -> Attr:
        if ref.table is None:
            raise GenerationError(f"unqualified column {ref.column!r} reached the generator")
        return Attr(ref.table, ref.column)

    def _expr_type(self, expr: Expr) -> str:
        if isinstance(expr, Literal):
            return "str" if isinstance(expr.value, str) else "num"
        if isinstance(expr, ColumnRef):
            attr = self._attr_of_ref(expr)
            return "str" if self.aq.attr_type(attr).is_textual else "num"
        if isinstance(expr, BinaryOp):
            return "num"
        raise UnsupportedSqlError(f"unsupported expression {expr}")

    def _numeric_linear(
        self, expr: Expr, overrides: dict[str, int] | None, copy: int
    ) -> Linear:
        """Translate a numeric expression to a Linear.

        ``overrides`` remaps bindings to explicit slot indices (used by the
        NOT EXISTS instantiation, which sweeps one binding's relation over
        its whole array).
        """
        if isinstance(expr, Literal):
            if isinstance(expr.value, float):
                if not expr.value.is_integer():
                    raise UnsupportedSqlError(
                        f"non-integer literal {expr.value} in generation constraints"
                    )
                return Linear.of_const(int(expr.value))
            if isinstance(expr.value, str):
                raise UnsupportedSqlError("string literal in numeric context")
            return Linear.of_const(int(expr.value))
        if isinstance(expr, ColumnRef):
            attr = self._attr_of_ref(expr)
            table = self.aq.table_of(attr.binding)
            if overrides and attr.binding in overrides:
                index = overrides[attr.binding]
            else:
                index = self.slot_of(attr.binding, copy)
            return self.var(table, index, attr.column)
        if isinstance(expr, BinaryOp):
            left = self._numeric_linear(expr.left, overrides, copy)
            right = self._numeric_linear(expr.right, overrides, copy)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                if not left.coeffs:
                    return right.scale(left.const)
                if not right.coeffs:
                    return left.scale(right.const)
                raise UnsupportedSqlError(
                    "products of attributes are not linear; unsupported"
                )
            raise UnsupportedSqlError(
                f"operator {expr.op!r} is unsupported in generation constraints"
            )
        raise UnsupportedSqlError(f"unsupported expression {expr}")

    def _string_operand(
        self, expr: Expr, pool: str, overrides: dict[str, int] | None, copy: int
    ) -> Linear:
        if isinstance(expr, Literal) and isinstance(expr.value, str):
            return Linear.of_const(self.solver.intern(pool, expr.value))
        if isinstance(expr, ColumnRef):
            attr = self._attr_of_ref(expr)
            table = self.aq.table_of(attr.binding)
            if overrides and attr.binding in overrides:
                index = overrides[attr.binding]
            else:
                index = self.slot_of(attr.binding, copy)
            return self.var(table, index, attr.column)
        raise UnsupportedSqlError(f"unsupported string operand {expr}")

    def _string_pool_of(self, pred: Comparison) -> str:
        for side in (pred.left, pred.right):
            if isinstance(side, ColumnRef):
                attr = self._attr_of_ref(side)
                if self.aq.attr_type(attr).is_textual:
                    return self.aq.pools.pool_of(
                        self.aq.table_of(attr.binding), attr.column
                    )
        raise UnsupportedSqlError(f"no column operand in string comparison {pred}")

    def pred_formula(
        self,
        pred: Comparison,
        overrides: dict[str, int] | None = None,
        copy: int = 0,
        op: str | None = None,
    ) -> Formula:
        """Translate a (qualified) SQL comparison into a solver formula.

        Args:
            pred: The comparison.
            overrides: Binding -> explicit slot index remapping.
            copy: Which per-occurrence copy to address (aggregation sets).
            op: Override the comparison operator (comparison-mutation
                datasets replace a conjunct's operator with =, < or >).
        """
        operator = op or pred.op
        left_kind = self._expr_type(pred.left)
        right_kind = self._expr_type(pred.right)
        if "str" in (left_kind, right_kind):
            # Rank-preserving interning makes order operators meaningful.
            pool = self._string_pool_of(pred)
            left = self._string_operand(pred.left, pool, overrides, copy)
            right = self._string_operand(pred.right, pool, overrides, copy)
            return builders.compare(operator, left, right)
        left = self._numeric_linear(pred.left, overrides, copy)
        right = self._numeric_linear(pred.right, overrides, copy)
        return builders.compare(operator, left, right)

    # -- standard constraint groups -------------------------------------------------

    def eq_class_conditions(self, ec: tuple[Attr, ...], copy: int = 0) -> list[Formula]:
        """generateEqConds(P): chain equalities across class members."""
        conds: list[Formula] = []
        for first, second in zip(ec, ec[1:]):
            conds.append(
                builders.eq(self.attr_var(first, copy), self.attr_var(second, copy))
            )
        return conds

    def not_exists_value(self, table: str, column: str, value: Linear) -> Formula:
        """``NOT EXISTS i : table[i].column = value`` over the whole array."""
        instances = [
            builders.eq(self.var(table, i, column), value)
            for i in self.table_slots(table)
        ]
        return builders.not_exists(instances, f"nullify:{table}.{column}")

    def force_null(self, table: str, index: int, column: str) -> None:
        """Force ``table[index].column`` to NULL in the assembled dataset.

        The solver has no NULL value; the assembler overrides whatever the
        model assigned.  Foreign-key constraints over forced-null columns
        are skipped (a NULL foreign key satisfies the constraint), which
        :func:`repro.core.dbconstraints.foreign_key_constraints` honours.
        """
        self.forced_nulls.add((table, index, column.lower()))

    def groupby_distinctness(self) -> list[Formula]:
        """Pairwise-distinct group-by values across slots of each relation.

        For queries with aggregation at the root, a join-difference at a
        node is only visible in the result when the dangling tuple falls
        into its *own* group; otherwise another tuple with the same
        group-by values masks it.  These constraints force every slot of a
        group-by relation into a distinct group.  They can conflict with
        equivalence classes or the chase, so callers attach them with a
        relaxation fallback.
        """
        conds: list[Formula] = []
        for attr in self.aq.group_by:
            table = self.aq.table_of(attr.binding)
            slots = list(self.table_slots(table))
            for i, slot_a in enumerate(slots):
                for slot_b in slots[i + 1:]:
                    conds.append(
                        builders.ne(
                            self.var(table, slot_a, attr.column),
                            self.var(table, slot_b, attr.column),
                        )
                    )
        return conds

    def not_exists_pred(self, pred: Comparison, binding: str, copy: int = 0) -> Formula:
        """genNotExists(p, r): no tuple of r's relation satisfies p.

        The swept binding's attributes are instantiated at every slot of
        its base relation; all other bindings stay at their current slots.
        """
        table = self.aq.table_of(binding)
        instances = []
        for index in self.table_slots(table):
            instances.append(
                self.pred_formula(pred, overrides={binding: index}, copy=copy)
            )
        return builders.not_exists(instances, f"nullify:{binding} on {pred}")
