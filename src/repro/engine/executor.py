"""Plan execution: frames in, relation out.

Nested-loop joins everywhere — generated datasets are tiny by design (the
paper's key usability claim), so clarity wins over asymptotics.

Without a cache, :func:`execute_plan` is a plain recursive evaluator:
every subtree is computed from scratch with generic expression
evaluation.  It is the reference arm the cached path is held to.

With a :class:`~repro.engine.subplan.SubplanCache` (DESIGN.md §5g) the
plan is registered in the cache's slot table, and only the slots
missing for the dataset are computed, children first; every other slot
is read by index.  Slot computations consult the cache's content-keyed
entries, so the kind-independent matching pass of a join is shared
across the INNER/LEFT/RIGHT/FULL variants of the same join (the
join-type mutation axis) and GROUP BY partitions are shared across
aggregate-function and HAVING mutants.  Frames of the cached path share
an interned header (:class:`~repro.engine.frame.Layout`), and
everything derived from a header — column resolution, join-condition
indices, projection layouts, mask keys — is computed once per (slot,
layout) in the cache's per-slot memos.  Results are identical either
way — cached values are never mutated (kernel row lists are copied
before outer-join padding).
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.engine.database import Database
from repro.engine.eval_expr import (
    eval_comparison,
    eval_conjunction,
    eval_scalar,
    eval_select_expr,
)
from repro.engine.frame import Frame, FrameCol
from repro.engine.plan import (
    AggregateNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    compile_query,
    node_fields_repr,
)
from repro.engine.relation import Relation
from repro.engine.subplan import DatasetEntries, SubplanCache, estimate_entry_bytes
from repro.engine.values import normalize_value, sql_compare
from repro.sql.ast import ColumnRef, Comparison, JoinKind, Query, SelectItem, Star


def execute_query(query: Query, db: Database) -> Relation:
    """Compile and execute a parsed query against ``db``."""
    return execute_plan(compile_query(query), db)


def execute_plan(
    plan: PlanNode, db: Database, cache: SubplanCache | None = None
) -> Relation:
    """Execute a plan against ``db`` and return the result relation.

    ``cache`` memoizes each distinct subplan's result per dataset, so a
    batch of single-node mutants shares all unchanged subtree
    computations (see :mod:`repro.engine.subplan`).
    """
    if cache is None:
        if isinstance(plan, ProjectNode):
            return _project(plan, _run(plan.child, db))
        if isinstance(plan, AggregateNode):
            return _aggregate(plan, _run(plan.child, db))
        return _frame_relation(_run(plan, db))
    slot = cache._slot_by_id.get(id(plan))
    if slot is None:
        slot = cache.register(plan)
    entries = cache.entries(db)
    value = entries.frames[slot]
    if value is None:
        value = _compute(slot, db, cache, entries)
    else:
        cache.hits += 1
    if isinstance(value, Frame):
        # A bare algebra tree (no projection) — return all frame columns.
        return _frame_relation(value)
    return value


def _frame_relation(frame: Frame) -> Relation:
    names = _unique_names(
        [
            col.name if col.binding is None else f"{col.binding}.{col.name}"
            for col in frame.header
        ]
    )
    return Relation(names, [tuple(normalize_value(v) for v in row) for row in frame.rows])


# ---------------------------------------------------------------------------
# The reference path: plain recursion, generic expression evaluation
# ---------------------------------------------------------------------------


def _run(plan: PlanNode, db: Database) -> Frame:
    if isinstance(plan, JoinNode):
        left = _run(plan.left, db)
        right = _run(plan.right, db)
        if plan.natural:
            kernel = _match_natural(left, right)
            return Frame(kernel[1], _pad_natural(plan.kind, kernel, left, right))
        combined = Frame(list(left.header) + list(right.header))
        tests = [_generic_test(pred, combined) for pred in _join_condition(plan)]
        kernel = _match_join(tests, left, right)
        return Frame(combined.header, _pad_join(plan.kind, kernel, left, right))
    if isinstance(plan, ScanNode):
        relation = db.relation(plan.table)
        return Frame(_scan_header(plan, relation), list(relation.rows))
    if isinstance(plan, SelectNode):
        child = _run(plan.child, db)
        rows = [
            row
            for row in child.rows
            if eval_conjunction(plan.predicates, child, row) is True
        ]
        return Frame(child.header, rows)
    raise ExecutionError(f"unexpected plan node in pipeline: {plan!r}")


def _scan_header(plan: ScanNode, relation: Relation) -> list[FrameCol]:
    return [
        FrameCol(plan.binding, name, ((plan.binding, name),))
        for name in relation.columns
    ]


def _match_join(tests, left: Frame, right: Frame):
    """The kind-independent matching pass of a non-natural join.

    ``tests`` holds one ``test(lrow, rrow) -> TruthValue`` per ON
    conjunct, in order (see :func:`_condition_tests`).  Returns ``(rows,
    left_matched, right_matched)`` — the matched (concatenated) rows
    plus per-side match flags.  Everything a join kind adds on top is
    padding of unmatched rows, so the four outer variants of one join
    share this pass (CROSS is the empty-condition match: an empty
    conjunction is TRUE).
    """
    rows: list[tuple] = []
    left_matched = [False] * len(left.rows)
    right_matched = [False] * len(right.rows)
    for i, lrow in enumerate(left.rows):
        for j, rrow in enumerate(right.rows):
            # eval_conjunction's 3VL: FALSE stops, UNKNOWN carries on.
            ok = True
            for test in tests:
                truth = test(lrow, rrow)
                if truth is False:
                    ok = False
                    break
                if truth is None:
                    ok = None
            if ok is True:
                rows.append(lrow + rrow)
                left_matched[i] = True
                right_matched[j] = True
    return rows, left_matched, right_matched


def _join_condition(plan: JoinNode):
    return () if plan.kind is JoinKind.CROSS else plan.condition


def _generic_test(pred, combined: Frame):
    """A join conjunct evaluated over the concatenated row of ``combined``."""
    return lambda lrow, rrow: eval_comparison(pred, combined, lrow + rrow)


def _pad_join(kind: JoinKind, kernel, left: Frame, right: Frame) -> list[tuple]:
    """The rows of a non-natural join of ``kind`` from its matching pass."""
    matched_rows, left_matched, right_matched = kernel
    if kind not in (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL):
        return matched_rows
    rows = list(matched_rows)  # the kernel entry stays pad-free
    if kind in (JoinKind.LEFT, JoinKind.FULL):
        pad = (None,) * len(right.header)
        for i, lrow in enumerate(left.rows):
            if not left_matched[i]:
                rows.append(lrow + pad)
    if kind in (JoinKind.RIGHT, JoinKind.FULL):
        pad = (None,) * len(left.header)
        for j, rrow in enumerate(right.rows):
            if not right_matched[j]:
                rows.append(pad + rrow)
    return rows


def _match_natural(left: Frame, right: Frame):
    """The kind-independent matching pass of a NATURAL join.

    Returns ``(rows, header, left_matched, right_matched, left_common,
    right_common, left_rest, right_rest)`` — everything the per-kind
    padding needs.
    """
    left_names = [col.name for col in left.header]
    right_names = [col.name for col in right.header]
    common = [name for name in left_names if name in set(right_names)]
    left_common = [left.resolve(None, name) for name in common]
    right_common = [right.resolve(None, name) for name in common]
    header: list[FrameCol] = []
    for name, li, ri in zip(common, left_common, right_common):
        sources = left.header[li].sources + right.header[ri].sources
        header.append(FrameCol(None, name, sources))
    left_rest = [i for i in range(len(left.header)) if i not in set(left_common)]
    right_rest = [i for i in range(len(right.header)) if i not in set(right_common)]
    header.extend(left.header[i] for i in left_rest)
    header.extend(right.header[i] for i in right_rest)

    def merged(lrow, rrow) -> tuple:
        values = [lrow[li] for li in left_common]
        values.extend(lrow[i] for i in left_rest)
        values.extend(rrow[i] for i in right_rest)
        return tuple(values)

    rows: list[tuple] = []
    left_matched = [False] * len(left.rows)
    right_matched = [False] * len(right.rows)
    for i, lrow in enumerate(left.rows):
        for j, rrow in enumerate(right.rows):
            match = True
            for li, ri in zip(left_common, right_common):
                lv, rv = lrow[li], rrow[ri]
                if lv is None or rv is None or lv != rv:
                    match = False
                    break
            if match:
                rows.append(merged(lrow, rrow))
                left_matched[i] = True
                right_matched[j] = True
    return (
        rows, header, left_matched, right_matched,
        left_common, right_common, left_rest, right_rest,
    )


def _pad_natural(kind: JoinKind, kernel, left: Frame, right: Frame) -> list[tuple]:
    """NATURAL join rows of ``kind``: common columns coalesced."""
    (
        matched_rows, _, left_matched, right_matched,
        left_common, right_common, left_rest, right_rest,
    ) = kernel
    if kind not in (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL):
        return matched_rows
    rows = list(matched_rows)
    if kind in (JoinKind.LEFT, JoinKind.FULL):
        for i, lrow in enumerate(left.rows):
            if not left_matched[i]:
                values = [lrow[li] for li in left_common]
                values.extend(lrow[k] for k in left_rest)
                values.extend([None] * len(right_rest))
                rows.append(tuple(values))
    if kind in (JoinKind.RIGHT, JoinKind.FULL):
        for j, rrow in enumerate(right.rows):
            if not right_matched[j]:
                values = [rrow[ri] for ri in right_common]
                values.extend([None] * len(left_rest))
                values.extend(rrow[k] for k in right_rest)
                rows.append(tuple(values))
    return rows


def _expand_items(
    items: tuple[SelectItem, ...], frame: Frame
) -> list[tuple[str, object]]:
    """Expand ``*`` / ``t.*`` into (output name, column index or expr) pairs.

    Star columns are named by their qualified source so results of different
    join orders stay comparable column-by-column.
    """
    expanded: list[tuple[str, object]] = []
    for item in items:
        expr = item.expr
        if isinstance(expr, Star):
            indices = (
                frame.columns_of_binding(expr.table)
                if expr.table
                else range(len(frame.header))
            )
            if expr.table and not indices:
                raise ExecutionError(f"no columns for {expr.table}.*")
            for i in indices:
                col = frame.header[i]
                name = (
                    col.name if col.binding is None else f"{col.binding}.{col.name}"
                )
                expanded.append((name, i))
        else:
            name = item.alias or str(expr)
            expanded.append((name, expr))
    return expanded


def _unique_names(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        out.append(name if count == 0 else f"{name}#{count + 1}")
    return out


def _project_rows(plan: ProjectNode, frame: Frame, sources) -> list[tuple]:
    """Each row's select-list values: a column index or an expression per item."""
    rows: list[tuple] = []
    for row in frame.rows:
        values = []
        for source in sources:
            if isinstance(source, int):
                values.append(normalize_value(row[source]))
            else:
                values.append(normalize_value(eval_scalar(source, frame, row)))
        rows.append(tuple(values))
    if plan.distinct:
        deduped: list[tuple] = []
        seen: set[tuple] = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    return rows


def _project(plan: ProjectNode, frame: Frame) -> Relation:
    expanded = _expand_items(plan.items, frame)
    names = _unique_names([name for name, _ in expanded])
    return Relation(
        names, _project_rows(plan, frame, [source for _, source in expanded])
    )


def _partition_groups(
    plan: AggregateNode, frame: Frame
) -> tuple[dict[tuple, list[tuple]], list[tuple]]:
    """The GROUP BY partition of ``frame``: groups dict + first-seen order.

    Depends only on (child frame, group-by columns) — aggregate-function
    and HAVING mutants over the same grouping share one partition, so it
    is cacheable under the child's content.  Never mutated by callers.
    """
    group_idx = [frame.resolve(col.table, col.column) for col in plan.group_by]
    groups: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    for row in frame.rows:
        key = tuple(row[i] for i in group_idx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not plan.group_by and not order:
        order.append(())
        groups[()] = []
    return groups, order


def _aggregate_names(plan: AggregateNode) -> list[str]:
    return _unique_names([item.alias or str(item.expr) for item in plan.items])


def _aggregate_rows(plan: AggregateNode, frame: Frame, partition) -> list[tuple]:
    groups, order = partition
    rows = []
    for key in order:
        group_rows = groups[key]
        if not _having_holds(plan.having, frame, group_rows):
            continue
        values = []
        for item in plan.items:
            if isinstance(item.expr, Star):
                raise ExecutionError("SELECT * cannot be mixed with GROUP BY")
            values.append(
                normalize_value(eval_select_expr(item.expr, frame, group_rows))
            )
        rows.append(tuple(values))
    return rows


def _aggregate(plan: AggregateNode, frame: Frame) -> Relation:
    partition = _partition_groups(plan, frame)
    return Relation(
        _aggregate_names(plan), _aggregate_rows(plan, frame, partition)
    )


def _having_holds(having, frame: Frame, group_rows: list[tuple]) -> bool:
    """Evaluate HAVING conjuncts over one group (3VL: only TRUE keeps)."""
    for pred in having:
        left = eval_select_expr(pred.left, frame, group_rows)
        right = eval_select_expr(pred.right, frame, group_rows)
        if sql_compare(pred.op, left, right) is not True:
            return False
    return True


# ---------------------------------------------------------------------------
# The cached path: slots computed once per dataset
# ---------------------------------------------------------------------------


def _compute(
    slot: int, db: Database, cache: SubplanCache, entries: DatasetEntries
):
    """Compute ``slot`` on ``db`` — and first any child slot still missing."""
    frames = entries.frames
    for kid in cache.kids[slot]:
        if frames[kid] is None:
            _compute(kid, db, cache, entries)
    node = cache.nodes[slot]
    value = _SLOT_RUNNERS[type(node)](
        node, slot, db, cache, entries, cache.memos[slot]
    )
    frames[slot] = value
    return value


#: Memoized cache-key spec per plan node (the ``repr`` of its semantic
#: fields).  ``repr`` of a nested AST dataclass is not cheap, so the
#: spec is computed once per node, like the structural fingerprint.
_SPEC_ATTR = "_cache_key_spec"


def _node_spec(plan: PlanNode):
    spec = plan.__dict__.get(_SPEC_ATTR)
    if spec is not None:
        return spec
    if isinstance(plan, SelectNode):
        spec = node_fields_repr(plan)[0]
    elif isinstance(plan, JoinNode):
        if plan.kind is JoinKind.CROSS:
            condition = "()"
        else:
            condition = node_fields_repr(plan)[0]
        # (condition, kind) pair: the kernel key uses spec[0] alone, the
        # output-frame key uses the whole pair.  Enum ``.name`` is a
        # DynamicClassAttribute lookup — worth memoizing too.
        spec = (condition, plan.kind.name)
    elif isinstance(plan, ProjectNode):
        spec = (node_fields_repr(plan)[0], plan.distinct)
    elif isinstance(plan, AggregateNode):
        spec = node_fields_repr(plan)
    else:
        raise ExecutionError(f"no cache-key spec for plan node {plan!r}")
    object.__setattr__(plan, _SPEC_ATTR, spec)
    return spec


def _frame(layout, rows: list[tuple], entries: DatasetEntries) -> Frame:
    """A cached-path frame, with its content interned on creation.

    Structural fingerprints distinguish plans that happen to produce
    identical frames — a LEFT-variant mutant whose padding added no
    rows is content-equal to its INNER sibling — so caches of work that
    depends only on input content (join kernels, group partitions,
    projected results) key on the frame's dataset-local content id
    instead.  The header enters the content key as its layout token.
    Every frame a slot holds is read by a parent that needs the id, so
    it is interned once, here.
    """
    table = entries.content_ids
    key = (layout.token, tuple(rows))
    ident = table.get(key)
    if ident is None:
        ident = table[key] = len(table)
    return Frame.of(layout, rows, ident)


def _scan_slot(node: ScanNode, slot, db, cache, entries, memo) -> Frame:
    relation = db.relation(node.table)
    columns = tuple(relation.columns)
    layout = memo.get(columns)
    if layout is None:
        layout = memo[columns] = cache.layout(_scan_header(node, relation))
    frame = _frame(layout, list(relation.rows), entries)
    # A scan is the one frame stored nowhere but in its slot.
    cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


def _select_slot(node: SelectNode, slot, db, cache, entries, memo) -> Frame:
    child = entries.frames[cache.kids[slot][0]]
    child_id = child.content_id
    spec = node.__dict__.get(_SPEC_ATTR)
    if spec is None:
        spec = _node_spec(node)
    # The filtered frame depends only on the child's *content* and the
    # predicate list, so structurally different plans whose children
    # coincide — sibling join-kind mutants under one residual filter —
    # share a single output frame object.
    values = entries.values
    out_key = ("SF", child_id, spec)
    cached = values.get(out_key)
    if cached is not None:
        cache.hits += 1
        return cached
    cache.misses += 1
    # Per-predicate masks pay off only when several distinct selects
    # share one child (the comparison/NULL-test mutation axis); a
    # select seen once over its child — every join-order mutant's
    # residual filter — keeps the cheaper short-circuit evaluation.
    masked = False
    if len(node.predicates) > 1:
        masked = child_id in entries.filtered
        entries.filtered.add(child_id)
    if masked:
        rows = _select_rows_masked(node, child, child_id, cache, entries, memo)
    else:
        rows = [
            row
            for row in child.rows
            if eval_conjunction(node.predicates, child, row) is True
        ]
    frame = _frame(child.layout, rows, entries)
    values[out_key] = frame
    cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


def _select_rows_masked(
    node: SelectNode, child: Frame, child_id: int, cache: SubplanCache,
    entries: DatasetEntries, memo: dict,
) -> list[tuple]:
    """Select rows via cached per-predicate row masks.

    Each conjunct's TRUE-row index set is memoized under (child content,
    predicate), so a comparison/NULL-test mutant — one predicate changed
    out of k — evaluates only its mutated conjunct and intersects it
    with the k-1 shared masks.  A conjunction keeps a row iff every
    conjunct is TRUE (3VL), which is exactly the mask intersection, so
    the selected bag is identical to direct evaluation; rows keep the
    child's order.
    """
    mask_keys = memo.get("masks")
    if mask_keys is None:
        mask_keys = memo["masks"] = [repr(pred) for pred in node.predicates]
    values = entries.values
    masks = []
    for pred, pred_key in zip(node.predicates, mask_keys):
        key = ("M", child_id, pred_key)
        mask = values.get(key)
        if mask is None:
            cache.misses += 1
            mask = {
                i
                for i, row in enumerate(child.rows)
                if eval_conjunction((pred,), child, row) is True
            }
            values[key] = mask
            cache.bytes_stored += estimate_entry_bytes(mask)
        else:
            cache.hits += 1
        masks.append(mask)
    masks.sort(key=len)
    smallest = masks[0]
    rest = masks[1:]
    return [
        child.rows[i]
        for i in sorted(smallest)
        if all(i in mask for mask in rest)
    ]


def _condition_tests(condition, combined: Frame, n_left: int):
    """One ``test(lrow, rrow) -> TruthValue`` per join conjunct, in order.

    A column-to-column comparison is bound to its two row positions
    once per (join slot, layout pair); anything else — or a reference
    that does not resolve, whose error must surface only when a row
    pair is evaluated, as on the reference path — evaluates generically
    over the concatenated row.
    """
    tests = []
    for pred in condition:
        test = None
        if (
            isinstance(pred, Comparison)
            and isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, ColumnRef)
        ):
            try:
                li = combined.resolve(pred.left.table, pred.left.column)
                ri = combined.resolve(pred.right.table, pred.right.column)
            except ExecutionError:
                pass
            else:
                test = _column_test(pred.op, li, ri, n_left)
        if test is None:
            test = _generic_test(pred, combined)
        tests.append(test)
    return tests


def _column_test(op: str, li: int, ri: int, n_left: int):
    if li < n_left and ri < n_left:
        return lambda lrow, rrow: sql_compare(op, lrow[li], lrow[ri])
    if li < n_left:
        ri -= n_left
        return lambda lrow, rrow: sql_compare(op, lrow[li], rrow[ri])
    li -= n_left
    if ri < n_left:
        return lambda lrow, rrow: sql_compare(op, rrow[li], lrow[ri])
    ri -= n_left
    return lambda lrow, rrow: sql_compare(op, rrow[li], rrow[ri])


def _join_slot(node: JoinNode, slot, db, cache, entries, memo) -> Frame:
    kids = cache.kids[slot]
    frames = entries.frames
    left = frames[kids[0]]
    right = frames[kids[1]]
    if node.natural:
        return _natural_join_slot(node, left, right, cache, entries, memo)
    lid = left.content_id
    rid = right.content_id
    spec = node.__dict__.get(_SPEC_ATTR)
    if spec is None:
        spec = _node_spec(node)
    # The joined frame depends only on input content, condition and
    # kind — mutants that reach the same join over content-equal inputs
    # (different join *orders* upstream, say) share one padded output
    # frame, not just the matching kernel.
    values = entries.values
    out_key = ("JF", lid, rid, spec)
    cached = values.get(out_key)
    if cached is not None:
        cache.hits += 1
        return cached
    cache.misses += 1
    layouts = (left.layout.token, right.layout.token)
    compiled = memo.get(layouts)
    if compiled is None:
        layout = cache.layout(left.header + right.header)
        tests = _condition_tests(
            _join_condition(node), Frame.of(layout, [], None), len(left.header)
        )
        compiled = memo[layouts] = (layout, tests)
    layout, tests = compiled
    kernel_key = ("K", lid, rid, spec[0])
    kernel = values.get(kernel_key)
    if kernel is None:
        cache.misses += 1
        kernel = _match_join(tests, left, right)
        values[kernel_key] = kernel
        cache.bytes_stored += estimate_entry_bytes(kernel)
    else:
        cache.hits += 1
    frame = _frame(layout, _pad_join(node.kind, kernel, left, right), entries)
    values[out_key] = frame
    cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


def _natural_join_slot(
    node: JoinNode, left: Frame, right: Frame, cache: SubplanCache,
    entries: DatasetEntries, memo: dict,
) -> Frame:
    """NATURAL join: equate common column names, coalesce them in the output."""
    lid = left.content_id
    rid = right.content_id
    values = entries.values
    out_key = ("JFN", lid, rid, _node_spec(node)[1])
    cached = values.get(out_key)
    if cached is not None:
        cache.hits += 1
        return cached
    cache.misses += 1
    kernel_key = ("KN", lid, rid)
    kernel = values.get(kernel_key)
    if kernel is None:
        cache.misses += 1
        kernel = _match_natural(left, right)
        values[kernel_key] = kernel
        cache.bytes_stored += estimate_entry_bytes(kernel)
    else:
        cache.hits += 1
    layouts = (left.layout.token, right.layout.token)
    layout = memo.get(layouts)
    if layout is None:
        layout = memo[layouts] = cache.layout(kernel[1])
    frame = _frame(
        layout, _pad_natural(node.kind, kernel, left, right), entries
    )
    values[out_key] = frame
    cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


def _result_probe(node, slot, cache: SubplanCache, entries: DatasetEntries):
    """``(child frame, R key, cached result or None)`` for a root slot.

    The final relation depends only on the child frame's content and
    the projection/aggregation spec, so content-equal children — the
    common case across a join-kind mutant batch on datasets where the
    padding is empty — share one result object (and, via the kill
    checker's per-object signature memo, one signature).
    """
    frame = entries.frames[cache.kids[slot][0]]
    spec = node.__dict__.get(_SPEC_ATTR)
    if spec is None:
        spec = _node_spec(node)
    key = ("R", frame.content_id, spec)
    cached = entries.values.get(key)
    if cached is not None:
        cache.hits += 1
    else:
        cache.misses += 1
    return frame, key, cached


def _store_result(cache, entries, key, columns_index, rows) -> Relation:
    result = Relation._from_header(*columns_index)
    result.rows = rows
    entries.values[key] = result
    cache.bytes_stored += estimate_entry_bytes(result)
    return result


def _relation_header(names: list[str]) -> tuple[list[str], dict[str, int]]:
    """Validated ``(columns, index)`` for :meth:`Relation._from_header`."""
    relation = Relation(names)
    return relation.columns, relation._index


def _project_slot(node: ProjectNode, slot, db, cache, entries, memo) -> Relation:
    frame, key, cached = _result_probe(node, slot, cache, entries)
    if cached is not None:
        return cached
    token = frame.layout.token
    layout = memo.get(token)
    if layout is None:
        expanded = _expand_items(node.items, frame)
        layout = memo[token] = [
            [name for name, _ in expanded],
            [_bound_source(source, frame) for _, source in expanded],
            None,
        ]
    names, sources, header = layout
    # Rows before the header check, in the reference path's error order.
    rows = _project_rows(node, frame, sources)
    if header is None:
        header = layout[2] = _relation_header(_unique_names(names))
    return _store_result(cache, entries, key, header, rows)


def _bound_source(source, frame: Frame):
    """A select-list column reference bound to its index, if it resolves.

    An unresolvable reference stays an expression, so its error surfaces
    per row, as on the reference path.
    """
    if isinstance(source, ColumnRef):
        try:
            return frame.resolve(source.table, source.column)
        except ExecutionError:
            pass
    return source


def _aggregate_slot(node: AggregateNode, slot, db, cache, entries, memo) -> Relation:
    frame, key, cached = _result_probe(node, slot, cache, entries)
    if cached is not None:
        return cached
    values = entries.values
    partition_key = ("G", frame.content_id, _node_spec(node)[0])
    partition = values.get(partition_key)
    if partition is None:
        cache.misses += 1
        partition = _partition_groups(node, frame)
        values[partition_key] = partition
        cache.bytes_stored += estimate_entry_bytes(partition)
    else:
        cache.hits += 1
    rows = _aggregate_rows(node, frame, partition)
    header = memo.get("header")
    if header is None:
        header = memo["header"] = _relation_header(_aggregate_names(node))
    return _store_result(cache, entries, key, header, rows)


_SLOT_RUNNERS = {
    JoinNode: _join_slot,
    ScanNode: _scan_slot,
    SelectNode: _select_slot,
    ProjectNode: _project_slot,
    AggregateNode: _aggregate_slot,
}
