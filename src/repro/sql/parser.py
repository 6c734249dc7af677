"""Recursive-descent parser for the supported SQL query class.

The grammar covers exactly the paper's query class (Section II,
assumptions A3-A6): single-block SELECT queries, comma and explicit
joins (inner / left / right / full outer, natural, cross), conjunctive
WHERE clauses of simple comparisons, simple arithmetic expressions,
aggregates in the select list and GROUP BY.  Constructs outside the
class (OR, NOT, subqueries, HAVING, IS NULL, UNION) raise
:class:`~repro.errors.UnsupportedSqlError` with a pointed message.
"""

from __future__ import annotations

from repro.errors import ParseError, UnsupportedSqlError
from repro.sql.ast import (
    AGGREGATE_FUNCS,
    Aggregate,
    BinaryOp,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FromItem,
    InSubquery,
    Join,
    JoinKind,
    Literal,
    NullTest,
    Query,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.lexer import Token, TokenKind, tokenize

_COMPARISON_OPS = {"=", "<", ">", "<=", ">=", "<>"}

#: Deepest nesting a query may have, counted twice: as the parser's own
#: recursion (parentheses, subqueries, aggregate arguments, unary minus)
#: and as levels of the parsed tree, where operator and join chains
#: nest too.  Every later stage walks the tree recursively; refusing
#: deeper input here keeps them clear of Python's recursion limit, so a
#: hostile query ends in a ParseError.  The canonical text of an
#: accepted query is accepted too: it nests no deeper than its tree.
MAX_NESTING = 64

#: AST node types :func:`_deeper_than` descends into.
_NODES = (Expr, FromItem, Query, SelectItem, Comparison, NullTest, Exists,
          InSubquery)


class _Parser:
    """Token-stream cursor with the grammar productions as methods."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        #: Upper bound on the parsed tree's depth, so that shallow
        #: queries skip the exact check: a recursion adds at most two
        #: levels (a subquery and its predicate), a chain link one.
        self.depth_bound = 1

    # -- cursor helpers ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind, value: str | None = None) -> bool:
        return self._current.matches(kind, value)

    def _accept(self, kind: TokenKind, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: str | None = None) -> Token:
        if self._check(kind, value):
            return self._advance()
        want = value or kind.name
        raise ParseError(
            f"expected {want} but found {self._current.value!r}", self._current
        )

    def _keyword(self, word: str) -> bool:
        return self._accept(TokenKind.KEYWORD, word) is not None

    def _reject(self, word: str, why: str) -> None:
        if self._check(TokenKind.KEYWORD, word):
            raise UnsupportedSqlError(f"{word} is not supported: {why}")

    def _nest(self) -> None:
        """Enter one level of recursion (callers restore ``_depth`` on
        exit; a ParseError abandons the whole parse, so no unwinding)."""
        self._depth += 1
        self.depth_bound += 2
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"query nests deeper than {MAX_NESTING} levels", self._current
            )

    # -- entry point --------------------------------------------------------

    def parse_query(self) -> Query:
        query = self._select_statement()
        self._accept(TokenKind.OP, ";")
        if not self._check(TokenKind.EOF):
            raise ParseError(
                f"unexpected trailing input {self._current.value!r}", self._current
            )
        return query

    def _select_statement(self) -> Query:
        self._nest()
        self._expect(TokenKind.KEYWORD, "SELECT")
        distinct = False
        if self._keyword("DISTINCT"):
            distinct = True
        else:
            self._keyword("ALL")
        select_items = self._select_list()
        self._expect(TokenKind.KEYWORD, "FROM")
        from_items = self._from_list()
        where: tuple[Comparison, ...] = ()
        if self._keyword("WHERE"):
            where = tuple(self._conjunction())
        group_by: tuple[ColumnRef, ...] = ()
        if self._keyword("GROUP"):
            self._expect(TokenKind.KEYWORD, "BY")
            group_by = tuple(self._column_list())
        having: tuple[Comparison, ...] = ()
        if self._keyword("HAVING"):
            having = tuple(self._conjunction())
        self._reject("UNION", "only single-block queries are in the query class")
        self._reject("ORDER", "ordering does not affect mutant killing")
        self._depth -= 1
        return Query(
            select_items=tuple(select_items),
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            distinct=distinct,
            having=having,
        )

    # -- select list ---------------------------------------------------------

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept(TokenKind.OP, ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        if self._accept(TokenKind.OP, "*"):
            return SelectItem(Star())
        expr = self._expression()
        # ``t.*`` parses as a ColumnRef whose column is "*"; normalise.
        if isinstance(expr, ColumnRef) and expr.column == "*":
            return SelectItem(Star(expr.table))
        alias = None
        if self._keyword("AS"):
            alias = self._expect(TokenKind.IDENT).value
        elif self._check(TokenKind.IDENT):
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _column_list(self) -> list[ColumnRef]:
        cols = [self._column_ref()]
        while self._accept(TokenKind.OP, ","):
            cols.append(self._column_ref())
        return cols

    def _column_ref(self) -> ColumnRef:
        first = self._expect(TokenKind.IDENT).value
        if self._accept(TokenKind.OP, "."):
            second = self._expect(TokenKind.IDENT).value
            return ColumnRef(first, second)
        return ColumnRef(None, first)

    # -- FROM clause ----------------------------------------------------------

    def _from_list(self) -> list[FromItem]:
        items = [self._from_item()]
        while self._accept(TokenKind.OP, ","):
            items.append(self._from_item())
        return items

    def _from_item(self) -> FromItem:
        item = self._table_primary()
        while True:
            join = self._maybe_join(item)
            if join is None:
                return item
            self.depth_bound += 1
            item = join

    def _table_primary(self) -> FromItem:
        if self._accept(TokenKind.OP, "("):
            if self._check(TokenKind.KEYWORD, "SELECT"):
                raise UnsupportedSqlError(
                    "nested subqueries in FROM are outside the query class (A3)"
                )
            self._nest()
            inner = self._from_item()
            self._expect(TokenKind.OP, ")")
            self._depth -= 1
            return inner
        name = self._expect(TokenKind.IDENT).value
        alias = None
        if self._keyword("AS"):
            alias = self._expect(TokenKind.IDENT).value
        elif self._check(TokenKind.IDENT):
            alias = self._advance().value
        return TableRef(name, alias)

    def _maybe_join(self, left: FromItem) -> Join | None:
        natural = self._keyword("NATURAL")
        kind: JoinKind | None = None
        if self._keyword("INNER"):
            kind = JoinKind.INNER
        elif self._keyword("LEFT"):
            self._keyword("OUTER")
            kind = JoinKind.LEFT
        elif self._keyword("RIGHT"):
            self._keyword("OUTER")
            kind = JoinKind.RIGHT
        elif self._keyword("FULL"):
            self._keyword("OUTER")
            kind = JoinKind.FULL
        elif self._keyword("CROSS"):
            kind = JoinKind.CROSS
        if kind is None and not natural and not self._check(TokenKind.KEYWORD, "JOIN"):
            return None
        if kind is None:
            kind = JoinKind.INNER
        self._expect(TokenKind.KEYWORD, "JOIN")
        if kind is JoinKind.CROSS and natural:
            raise ParseError("NATURAL CROSS JOIN is contradictory", self._current)
        right = self._table_primary()
        condition: tuple[Comparison, ...] = ()
        if self._keyword("ON"):
            if natural:
                raise ParseError("NATURAL join cannot have an ON clause", self._current)
            condition = tuple(self._conjunction())
        elif not natural and kind is not JoinKind.CROSS:
            raise ParseError("expected ON clause after JOIN", self._current)
        return Join(kind, left, right, condition, natural)

    # -- predicates -------------------------------------------------------------

    def _conjunction(self) -> list[Comparison]:
        preds = [self._comparison()]
        while True:
            self._reject("OR", "predicates must be conjunctions (A5)")
            if not self._keyword("AND"):
                return preds
            preds.append(self._comparison())

    def _comparison(self):
        self._reject("NOT", "negated predicates are outside the query class (A5)")
        if self._keyword("EXISTS"):
            # Accepted for decorrelation (Section V-H); the analyzer
            # rejects it unless it was rewritten into a join first.
            self._expect(TokenKind.OP, "(")
            subquery = self._select_statement()
            self._expect(TokenKind.OP, ")")
            return Exists(subquery)
        left = self._expression()
        if self._keyword("IS"):
            negated = bool(self._keyword("NOT"))
            self._expect(TokenKind.KEYWORD, "NULL")
            if not isinstance(left, ColumnRef):
                raise UnsupportedSqlError(
                    "IS NULL is supported on plain column references only"
                )
            return NullTest(left, negated)
        if self._keyword("IN"):
            self._expect(TokenKind.OP, "(")
            if not self._check(TokenKind.KEYWORD, "SELECT"):
                raise UnsupportedSqlError(
                    "IN over value lists is outside the query class; "
                    "rewrite as OR-free comparisons"
                )
            subquery = self._select_statement()
            self._expect(TokenKind.OP, ")")
            return InSubquery(left, subquery)
        for word, why in (
            ("BETWEEN", "rewrite as two AND-ed comparisons"),
            ("LIKE", "pattern matching is outside the query class (A4)"),
        ):
            self._reject(word, why)
        token = self._current
        if token.kind is not TokenKind.OP or token.value not in _COMPARISON_OPS:
            raise ParseError(
                f"expected comparison operator, found {token.value!r}", token
            )
        op = self._advance().value
        right = self._expression()
        return Comparison(op, left, right)

    # -- expressions -------------------------------------------------------------

    def _expression(self) -> Expr:
        return self._additive()

    def _additive(self) -> Expr:
        expr = self._multiplicative()
        while self._check(TokenKind.OP, "+") or self._check(TokenKind.OP, "-"):
            op = self._advance().value
            self.depth_bound += 1
            expr = BinaryOp(op, expr, self._multiplicative())
        return expr

    def _multiplicative(self) -> Expr:
        expr = self._primary()
        while self._check(TokenKind.OP, "*") or self._check(TokenKind.OP, "/"):
            op = self._advance().value
            self.depth_bound += 1
            expr = BinaryOp(op, expr, self._primary())
        return expr

    def _primary(self) -> Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.value)
        if token.kind is TokenKind.OP and token.value == "-":
            self._advance()
            self._nest()
            operand = self._primary()
            self._depth -= 1
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return BinaryOp("-", Literal(0), operand)
        if token.kind is TokenKind.OP and token.value == "(":
            self._advance()
            if self._check(TokenKind.KEYWORD, "SELECT"):
                raise UnsupportedSqlError(
                    "scalar subqueries are outside the query class (A3)"
                )
            self._nest()
            expr = self._expression()
            self._expect(TokenKind.OP, ")")
            self._depth -= 1
            return expr
        if token.kind is TokenKind.KEYWORD and token.value in AGGREGATE_FUNCS:
            return self._aggregate()
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._accept(TokenKind.OP, "."):
                if self._accept(TokenKind.OP, "*"):
                    return ColumnRef(token.value, "*")
                column = self._expect(TokenKind.IDENT).value
                return ColumnRef(token.value, column)
            return ColumnRef(None, token.value)
        raise ParseError(f"unexpected token {token.value!r}", token)

    def _aggregate(self) -> Aggregate:
        func = self._advance().value
        self._expect(TokenKind.OP, "(")
        distinct = bool(self._keyword("DISTINCT"))
        if self._accept(TokenKind.OP, "*"):
            if func != "COUNT":
                raise ParseError(f"{func}(*) is not valid SQL", self._current)
            arg: Expr = Star()
        else:
            self._nest()
            arg = self._expression()
            self._depth -= 1
        self._expect(TokenKind.OP, ")")
        return Aggregate(func, arg, distinct)


def parse_query(sql: str) -> Query:
    """Parse ``sql`` into a :class:`~repro.sql.ast.Query`.

    Raises:
        LexError: On malformed tokens.
        ParseError: On grammar violations, or nesting deeper than
            :data:`MAX_NESTING`.
        UnsupportedSqlError: On valid SQL outside the paper's query class.
    """
    parser = _Parser(tokenize(sql))
    query = parser.parse_query()
    if parser.depth_bound > MAX_NESTING and _deeper_than(query, MAX_NESTING):
        raise ParseError(f"query nests deeper than {MAX_NESTING} levels")
    return query


def _deeper_than(node, levels: int) -> bool:
    """Whether the tree under ``node`` has more than ``levels`` levels;
    never recurses deeper than ``levels``."""
    if levels == 0:
        return True
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, _NODES) and _deeper_than(child, levels - 1):
                return True
    return False
