"""Plan execution: frames in, relation out.

Nested-loop joins everywhere — generated datasets are tiny by design (the
paper's key usability claim), so clarity wins over asymptotics.

Every entry point optionally takes a
:class:`~repro.engine.subplan.SubplanCache` (DESIGN.md §5g).  With a
cache, each pipeline subtree's frame is memoized under its structural
fingerprint per dataset, the kind-independent matching pass of a join is
shared across the INNER/LEFT/RIGHT/FULL variants of the same join (the
join-type mutation axis), and GROUP BY partitions are shared across
aggregate-function and HAVING mutants.  Without a cache every subtree
is recomputed from scratch (the reference arm).  Results are
identical either way — cached values are never mutated (kernel row
lists are copied before outer-join padding).
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
    plan_fingerprint,
)
from repro.engine.relation import Relation
from repro.engine.subplan import SubplanCache, estimate_entry_bytes
from repro.engine.values import normalize_value
from repro.sql.ast import JoinKind, Query, SelectItem, Star


def execute_query(query: Query, db: Database) -> Relation:
    """Compile and execute a parsed query against ``db``."""
    return execute_plan(compile_query(query), db)


def execute_plan(
    plan: PlanNode, db: Database, cache: SubplanCache | None = None
) -> Relation:
    """Execute a plan against ``db`` and return the result relation.

    ``cache`` memoizes subplan results per ``(fingerprint, dataset)`` so
    a batch of single-node mutants shares all unchanged subtree
    computations (see :mod:`repro.engine.subplan`).
    """
    if isinstance(plan, (ProjectNode, AggregateNode)):
        return _finalize(plan, db, cache)
    # A bare algebra tree (no projection) — return all frame columns.
    frame = _run(plan, db, cache)
    names = _unique_names(
        [
            col.name if col.binding is None else f"{col.binding}.{col.name}"
            for col in frame.header
        ]
    )
    return Relation(names, [tuple(normalize_value(v) for v in row) for row in frame.rows])


# ---------------------------------------------------------------------------
# Frame pipeline
# ---------------------------------------------------------------------------


def _run(plan: PlanNode, db: Database, cache: SubplanCache | None = None) -> Frame:
    if cache is not None:
        # The prefixed frame key is memoized on the node alongside the
        # structural fingerprint, and the probe works on the dataset's
        # entry dict directly: _run is the hottest probe site, so both
        # the "F:" + digest concatenation and the get()/put() method
        # dispatch are worth paying only once.
        key = plan.__dict__.get("_frame_key")
        if key is None:
            key = "F:" + plan_fingerprint(plan)
            object.__setattr__(plan, "_frame_key", key)
        entry = cache._entry(db)
        cached = entry.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
    if isinstance(plan, JoinNode):
        # Checked first: joins dominate cache misses — every join-order
        # mutant's spine is a chain of fresh join nodes.
        frame = _join(plan, db, cache)
    elif isinstance(plan, ScanNode):
        frame = _scan(plan, db)
    elif isinstance(plan, SelectNode):
        frame = _select(plan, db, cache)
    else:
        raise ExecutionError(f"unexpected plan node in pipeline: {plan!r}")
    if cache is not None:
        entry[key] = frame
        cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


#: Memoized cache-key spec per plan node (the ``repr`` of its semantic
#: fields).  ``repr`` of a nested AST dataclass is not cheap, and key
#: construction runs on every execution — including hits — so the spec
#: is computed once per node, like the structural fingerprint.
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


def _content_id(frame: Frame, db: Database, cache: SubplanCache) -> int:
    """Dataset-local id of a frame's *content* (header + row bag).

    Structural fingerprints distinguish plans that happen to produce
    identical frames — a LEFT-variant mutant whose padding added no
    rows is content-equal to its INNER sibling — so caches of work that
    depends only on input content (join kernels, group partitions,
    projected results) key on this id instead.  Memoized per frame
    object; cached frames are shared objects, so each distinct frame is
    hashed once per dataset.
    """
    ident = getattr(frame, "_content_id", None)
    if ident is None:
        ident = cache.intern_content(
            db, (tuple(frame.header), tuple(frame.rows))
        )
        frame._content_id = ident
    return ident


def _select(
    plan: SelectNode, db: Database, cache: SubplanCache | None
) -> Frame:
    child = _run(plan.child, db, cache)
    out_key = None
    if cache is not None:
        # The filtered frame depends only on the child's *content* and
        # the predicate list, so structurally different plans whose
        # children happen to coincide — sibling join-kind mutants under
        # one residual filter — share a single output frame object (and
        # its memoized content id, so downstream lookups are attribute
        # reads).
        child_id = child.__dict__.get("_content_id")
        if child_id is None:
            child_id = _content_id(child, db, cache)
        spec = plan.__dict__.get(_SPEC_ATTR)
        if spec is None:
            spec = _node_spec(plan)
        out_key = ("SF", child_id, spec)
        cached = cache.get(db, out_key)
        if cached is not None:
            return cached
    # Per-predicate masks pay off only when several distinct selects
    # share one child (the comparison/NULL-test mutation axis); a
    # select seen once over its child — every join-order mutant's
    # residual filter — keeps the cheaper short-circuit evaluation.
    if (
        cache is not None
        and len(plan.predicates) > 1
        and cache.seen(db, ("MC", child_id))
    ):
        rows = _select_rows_masked(plan, child, db, cache)
    else:
        rows = [
            row
            for row in child.rows
            if eval_conjunction(plan.predicates, child, row) is True
        ]
    frame = Frame(child.header, rows)
    if out_key is not None:
        cache.put(db, out_key, frame)
    return frame


def _select_rows_masked(
    plan: SelectNode, child: Frame, db: Database, cache: SubplanCache
) -> list[tuple]:
    """Select rows via cached per-predicate row masks.

    Each conjunct's TRUE-row index set is memoized under (child
    fingerprint, predicate), so a comparison/NULL-test mutant — one
    predicate changed out of k — evaluates only its mutated conjunct
    and intersects it with the k-1 shared masks.  A conjunction keeps a
    row iff every conjunct is TRUE (3VL), which is exactly the mask
    intersection, so the selected bag is identical to direct
    evaluation; rows keep the child's order.
    """
    child_id = _content_id(child, db, cache)
    masks = []
    for pred in plan.predicates:
        key = ("M", child_id, repr(pred))
        mask = cache.get(db, key)
        if mask is None:
            mask = {
                i
                for i, row in enumerate(child.rows)
                if eval_conjunction((pred,), child, row) is True
            }
            cache.put(db, key, mask)
        masks.append(mask)
    masks.sort(key=len)
    smallest = masks[0]
    rest = masks[1:]
    return [
        child.rows[i]
        for i in sorted(smallest)
        if all(i in mask for mask in rest)
    ]


def _scan(plan: ScanNode, db: Database) -> Frame:
    relation = db.relation(plan.table)
    header = [
        FrameCol(plan.binding, name, ((plan.binding, name),))
        for name in relation.columns
    ]
    return Frame(header, list(relation.rows))


def _match_join(plan: JoinNode, left: Frame, right: Frame):
    """The kind-independent matching pass of a non-natural join.

    Returns ``(rows, left_matched, right_matched)`` — the matched
    (concatenated) rows plus per-side match flags.  Everything a join
    kind adds on top is padding of unmatched rows, so the four outer
    variants of one join share this pass (CROSS is the empty-condition
    match: an empty conjunction evaluates to TRUE).
    """
    header = list(left.header) + list(right.header)
    combined = Frame(header)
    condition = () if plan.kind is JoinKind.CROSS else plan.condition
    rows: list[tuple] = []
    left_matched = [False] * len(left.rows)
    right_matched = [False] * len(right.rows)
    for i, lrow in enumerate(left.rows):
        for j, rrow in enumerate(right.rows):
            row = lrow + rrow
            ok = (
                True
                if not condition
                else eval_conjunction(condition, combined, row) is True
            )
            if ok:
                rows.append(row)
                left_matched[i] = True
                right_matched[j] = True
    return rows, left_matched, right_matched


def _join(plan: JoinNode, db: Database, cache: SubplanCache | None = None) -> Frame:
    left = _run(plan.left, db, cache)
    right = _run(plan.right, db, cache)
    if plan.natural:
        return _natural_join(plan, left, right, db, cache)
    kernel = None
    out_key = None
    if cache is not None:
        lid = left.__dict__.get("_content_id")
        if lid is None:
            lid = _content_id(left, db, cache)
        rid = right.__dict__.get("_content_id")
        if rid is None:
            rid = _content_id(right, db, cache)
        spec = plan.__dict__.get(_SPEC_ATTR)
        if spec is None:
            spec = _node_spec(plan)
        # The joined frame depends only on input content, condition and
        # kind — mutants that reach the same join over content-equal
        # inputs (different join *orders* upstream, say) share one
        # padded output frame, not just the matching kernel.
        entry = cache._entry(db)
        out_key = ("JF", lid, rid, spec)
        cached = entry.get(out_key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        kernel_key = ("K", lid, rid, spec[0])
        kernel = entry.get(kernel_key)
        if kernel is None:
            cache.misses += 1
            kernel = _match_join(plan, left, right)
            entry[kernel_key] = kernel
            cache.bytes_stored += estimate_entry_bytes(kernel)
        else:
            cache.hits += 1
    else:
        kernel = _match_join(plan, left, right)
    matched_rows, left_matched, right_matched = kernel
    header = list(left.header) + list(right.header)
    n_left = len(left.header)
    n_right = len(right.header)
    rows = matched_rows
    if plan.kind in (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL):
        rows = list(matched_rows)  # the kernel entry stays pad-free
        if plan.kind in (JoinKind.LEFT, JoinKind.FULL):
            for i, lrow in enumerate(left.rows):
                if not left_matched[i]:
                    rows.append(lrow + (None,) * n_right)
        if plan.kind in (JoinKind.RIGHT, JoinKind.FULL):
            for j, rrow in enumerate(right.rows):
                if not right_matched[j]:
                    rows.append((None,) * n_left + rrow)
    frame = Frame(header, rows)
    if out_key is not None:
        entry[out_key] = frame
        cache.bytes_stored += estimate_entry_bytes(frame)
    return frame


def _match_natural(left: Frame, right: Frame):
    """The kind-independent matching pass of a NATURAL join.

    Returns ``(header, rows, left_matched, right_matched, left_common,
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
        header, rows, left_matched, right_matched,
        left_common, right_common, left_rest, right_rest,
    )


def _natural_join(
    plan: JoinNode,
    left: Frame,
    right: Frame,
    db: Database | None = None,
    cache: SubplanCache | None = None,
) -> Frame:
    """NATURAL join: equate common column names, coalesce them in the output."""
    kernel = None
    kernel_key = None
    out_key = None
    if cache is not None:
        lid = _content_id(left, db, cache)
        rid = _content_id(right, db, cache)
        out_key = ("JFN", lid, rid, _node_spec(plan)[1])
        cached = cache.get(db, out_key)
        if cached is not None:
            return cached
        kernel_key = ("KN", lid, rid)
        kernel = cache.get(db, kernel_key)
    if kernel is None:
        kernel = _match_natural(left, right)
        if cache is not None:
            cache.put(db, kernel_key, kernel)
    (
        header, matched_rows, left_matched, right_matched,
        left_common, right_common, left_rest, right_rest,
    ) = kernel
    kind = plan.kind
    rows = matched_rows
    if kind in (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL):
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
    frame = Frame(header, rows)
    if out_key is not None:
        cache.put(db, out_key, frame)
    return frame


# ---------------------------------------------------------------------------
# Final projection / aggregation
# ---------------------------------------------------------------------------


def _finalize(
    plan: ProjectNode | AggregateNode,
    db: Database,
    cache: SubplanCache | None = None,
) -> Relation:
    frame = _run(plan.child, db, cache)
    # The final relation depends only on the child frame's content and
    # the projection/aggregation spec, so content-equal children — the
    # common case across a join-kind mutant batch on datasets where the
    # padding is empty — share one projected result object (and, via
    # the kill checker's per-object signature memo, one signature).
    result_key = None
    if cache is not None:
        child_id = frame.__dict__.get("_content_id")
        if child_id is None:
            child_id = _content_id(frame, db, cache)
        spec = plan.__dict__.get(_SPEC_ATTR)
        if spec is None:
            spec = _node_spec(plan)
        entry = cache._entry(db)
        result_key = ("R", child_id, spec)
        cached = entry.get(result_key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
    if isinstance(plan, ProjectNode):
        result = _project(plan, frame)
    else:
        result = _aggregate(plan, frame, db, cache)
    if result_key is not None:
        entry[result_key] = result
        cache.bytes_stored += estimate_entry_bytes(result)
    return result


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


def _project(plan: ProjectNode, frame: Frame) -> Relation:
    expanded = _expand_items(plan.items, frame)
    names = _unique_names([name for name, _ in expanded])
    rows: list[tuple] = []
    for row in frame.rows:
        values = []
        for _, source in expanded:
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
    return Relation(names, rows)


def _partition_groups(
    plan: AggregateNode, frame: Frame
) -> tuple[dict[tuple, list[tuple]], list[tuple]]:
    """The GROUP BY partition of ``frame``: groups dict + first-seen order.

    Depends only on (child frame, group-by columns) — aggregate-function
    and HAVING mutants over the same grouping share one partition, so it
    is cacheable under the child fingerprint.  Never mutated by callers.
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


def _aggregate(
    plan: AggregateNode,
    frame: Frame,
    db: Database | None = None,
    cache: SubplanCache | None = None,
) -> Relation:
    partition = None
    partition_key = None
    if cache is not None:
        partition_key = (
            "G", _content_id(frame, db, cache), _node_spec(plan)[0]
        )
        partition = cache.get(db, partition_key)
    if partition is None:
        partition = _partition_groups(plan, frame)
        if cache is not None:
            cache.put(db, partition_key, partition)
    groups, order = partition
    names = _unique_names(
        [item.alias or str(item.expr) for item in plan.items]
    )
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
    return Relation(names, rows)


def _having_holds(having, frame: Frame, group_rows: list[tuple]) -> bool:
    """Evaluate HAVING conjuncts over one group (3VL: only TRUE keeps)."""
    from repro.engine.values import sql_compare

    for pred in having:
        left = eval_select_expr(pred.left, frame, group_rows)
        right = eval_select_expr(pred.right, frame, group_rows)
        if sql_compare(pred.op, left, right) is not True:
            return False
    return True
