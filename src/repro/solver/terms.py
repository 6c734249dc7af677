"""Core data types of the constraint language.

Everything is integer-backed.  A :class:`Linear` is an integer-affine
combination of variables; an :class:`Atom` asserts ``linear op 0`` for
``op`` in ``{'=', '<>', '<', '<='}`` (``>``, ``>=`` are normalised away by
negating the linear part).  Formulas are atoms combined with conjunction,
disjunction and negation, plus :class:`Quantified` nodes whose bounded
ranges are already expanded into per-index *instances* — a quantifier over
``i : R_INT`` with ``|R| = 3`` carries three ground instance formulas.
This mirrors the paper's setting exactly: all quantifiers range over
bounded arrays of tuples (Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VarInfo:
    """Metadata for one solver variable.

    Attributes:
        name: Unique variable name, conventionally ``table[i].column``.
        kind: ``'int'`` or ``'str'`` (strings are interned to ints).
        pool: Symbol-pool identifier for string variables (variables in the
            same pool share an interning table so equality is meaningful).
        preferred: Values (already interned for strings) to try first
            during search — the paper's "domain values from an input
            database" behaviour.
    """

    name: str
    kind: str = "int"
    pool: str | None = None
    preferred: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("int", "str"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "str" and self.pool is None:
            raise ValueError(f"string variable {self.name!r} needs a pool")


@dataclass(frozen=True)
class Linear:
    """An affine combination ``sum(coef * var) + const``.

    ``coeffs`` is sorted by variable name and contains no zero
    coefficients, so equal linears compare equal structurally.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of_var(name: str) -> "Linear":
        return Linear(((name, 1),), 0)

    @staticmethod
    def of_const(value: int) -> "Linear":
        return Linear((), value)

    @staticmethod
    def build(coeffs: dict[str, int], const: int) -> "Linear":
        clean = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return Linear(clean, const)

    def _as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: "Linear") -> "Linear":
        coeffs = self._as_dict()
        for var, coef in other.coeffs:
            coeffs[var] = coeffs.get(var, 0) + coef
        return Linear.build(coeffs, self.const + other.const)

    def __sub__(self, other: "Linear") -> "Linear":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "Linear":
        if factor == 0:
            return Linear.of_const(0)
        return Linear(
            tuple((v, c * factor) for v, c in self.coeffs), self.const * factor
        )

    @property
    def variables(self) -> tuple[str, ...]:
        # Memoized: linears are immutable and this is asked on every
        # rewrite/unit-propagation pass over an atom.
        cached = self.__dict__.get("_vars")
        if cached is None:
            cached = tuple(v for v, _ in self.coeffs)
            object.__setattr__(self, "_vars", cached)
        return cached

    def evaluate(self, assignment: dict[str, int]) -> int | None:
        """Value under ``assignment``; None if any variable is unassigned."""
        total = self.const
        for var, coef in self.coeffs:
            value = assignment.get(var)
            if value is None:
                return None
            total += coef * value
        return total

    def __str__(self) -> str:
        parts = []
        for var, coef in self.coeffs:
            if coef == 1:
                parts.append(var)
            elif coef == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coef}*{var}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


class Formula:
    """Marker base class for formulas."""

    __slots__ = ()


_NEGATED_OP = {"=": "<>", "<>": "="}


@dataclass(frozen=True)
class Atom(Formula):
    """The constraint ``lin op 0`` with op in ``{'=', '<>', '<', '<='}``."""

    op: str
    lin: Linear

    def __post_init__(self):
        if self.op not in ("=", "<>", "<", "<="):
            raise ValueError(f"non-canonical atom operator {self.op!r}")

    def negate(self) -> "Atom":
        """The complementary atom (total: atoms are closed under negation)."""
        if self.op in _NEGATED_OP:
            return Atom(_NEGATED_OP[self.op], self.lin)
        if self.op == "<":  # not(L < 0)  <=>  L >= 0  <=>  -L <= 0
            return Atom("<=", self.lin.scale(-1))
        # not(L <= 0)  <=>  L > 0  <=>  -L < 0
        return Atom("<", self.lin.scale(-1))

    def evaluate(self, assignment: dict[str, int]) -> bool | None:
        value = self.lin.evaluate(assignment)
        if value is None:
            return None
        if self.op == "=":
            return value == 0
        if self.op == "<>":
            return value != 0
        if self.op == "<":
            return value < 0
        return value <= 0

    @property
    def variables(self) -> tuple[str, ...]:
        return self.lin.variables

    def __str__(self) -> str:
        return f"{self.lin} {self.op} 0"


@dataclass(frozen=True)
class BoolConst(Formula):
    """Constant TRUE/FALSE."""

    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Conj(Formula):
    """Conjunction."""

    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Disj(Formula):
    """Disjunction."""

    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Neg(Formula):
    """Negation."""

    part: Formula


@dataclass(frozen=True)
class Quantified(Formula):
    """A bounded quantifier with its range pre-expanded into instances.

    ``kind='forall'`` holds iff every instance holds; ``kind='exists'``
    iff at least one does.  NOT EXISTS is expressed as the negation of an
    ``exists`` (or equivalently a ``forall`` of negated instances) by the
    builders.  ``label`` is carried through to diagnostics.
    """

    kind: str
    instances: tuple[Formula, ...]
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("forall", "exists"):
            raise ValueError(f"unknown quantifier kind {self.kind!r}")

    def unfold(self) -> Formula:
        """Ground expansion (Section VI-B)."""
        if self.kind == "forall":
            return Conj(self.instances)
        return Disj(self.instances)


def _collect_variables(formula: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack: list[Formula] = [formula]
    while stack:
        node = stack.pop()
        cached = node.__dict__.get("_fv")
        if cached is not None:
            out.update(cached)
        elif isinstance(node, Atom):
            out.update(node.variables)
        elif isinstance(node, (Conj, Disj)):
            stack.extend(node.parts)
        elif isinstance(node, Neg):
            stack.append(node.part)
        elif isinstance(node, Quantified):
            stack.extend(node.instances)
    return frozenset(out)


def formula_variables(
    formula: Formula, into: set[str] | None = None
) -> frozenset[str] | set[str]:
    """All variable names occurring in ``formula``.

    The result is memoized on the formula node (formulas are immutable),
    so the search core's repeated variable-set queries over the same
    constraint objects cost one traversal total, not one per query.
    """
    cached = formula.__dict__.get("_fv")
    if cached is None:
        cached = _collect_variables(formula)
        # Frozen dataclasses forbid ordinary attribute assignment; the
        # cache does not participate in __eq__/__hash__ (fields only).
        object.__setattr__(formula, "_fv", cached)
    if into is None:
        return cached
    into.update(cached)
    return into
