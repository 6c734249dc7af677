"""Solver search tests: SAT/UNSAT, preprocessing, models, both modes."""

import random

import pytest

from repro.errors import SolverError, UnsatisfiableError
from repro.solver import Solver
from repro.solver import builders as b
from repro.solver.search import SearchConfig, eval_formula
from repro.solver.solver import unfold_formula


def check_model(solver, model):
    """Every asserted formula must be true under the model."""
    assert model is not None
    for formula in solver.formulas:
        from repro.solver.solver import unfold_formula

        assert eval_formula(unfold_formula(formula), model.assignment) is True


class TestBasicSat:
    def test_empty_problem_sat(self):
        solver = Solver()
        assert solver.solve() is not None

    def test_single_equality(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.eq(x, b.const(7)))
        model = solver.solve()
        assert model.raw("x") == 7

    def test_chain_of_equalities(self):
        solver = Solver()
        names = [f"v{i}" for i in range(10)]
        for name in names:
            solver.int_var(name)
        for first, second in zip(names, names[1:]):
            solver.add(b.eq(b.var(first), b.var(second)))
        solver.add(b.eq(b.var("v9"), b.const(42)))
        model = solver.solve()
        assert all(model.raw(n) == 42 for n in names)

    def test_offset_arithmetic(self):
        solver = Solver()
        x = solver.int_var("x")
        y = solver.int_var("y")
        solver.add(b.eq(x, y + b.const(10)))
        solver.add(b.eq(y, b.const(5)))
        assert solver.solve().raw("x") == 15

    def test_inequalities(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.gt(x, b.const(100)))
        solver.add(b.lt(x, b.const(103)))
        model = solver.solve()
        assert model.raw("x") in (101, 102)

    def test_disequality(self):
        solver = Solver()
        x = solver.int_var("x")
        y = solver.int_var("y")
        solver.add(b.ne(x, y))
        model = solver.solve()
        assert model.raw("x") != model.raw("y")

    def test_disjunction(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.disj([b.eq(x, b.const(5)), b.eq(x, b.const(9))]))
        solver.add(b.ne(x, b.const(5)))
        assert solver.solve().raw("x") == 9

    def test_many_distinct_values_possible(self):
        solver = Solver()
        names = [f"d{i}" for i in range(6)]
        for name in names:
            solver.int_var(name)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                solver.add(b.ne(b.var(first), b.var(second)))
        model = solver.solve()
        values = [model.raw(n) for n in names]
        assert len(set(values)) == 6

    def test_preferred_value_chosen_when_free(self):
        solver = Solver()
        solver.int_var("x", preferred=(42,))
        assert solver.solve().raw("x") == 42

    def test_model_satisfies_all(self):
        solver = Solver()
        x, y, z = (solver.int_var(n) for n in "xyz")
        solver.add(b.eq(x, y + b.const(3)))
        solver.add(b.le(z, x))
        solver.add(b.ne(z, y))
        check_model(solver, solver.solve())


class TestUnsat:
    def test_contradictory_constants(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.eq(x, b.const(1)))
        solver.add(b.eq(x, b.const(2)))
        assert solver.solve() is None

    def test_eq_and_ne(self):
        solver = Solver()
        x, y = solver.int_var("x"), solver.int_var("y")
        solver.add(b.eq(x, y))
        solver.add(b.ne(x, y))
        assert solver.solve() is None

    def test_cycle_with_offset(self):
        solver = Solver()
        x, y = solver.int_var("x"), solver.int_var("y")
        solver.add(b.eq(x, y + b.const(1)))
        solver.add(b.eq(y, x + b.const(1)))
        assert solver.solve() is None

    def test_interval_contradiction(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.lt(x, b.const(5)))
        solver.add(b.gt(x, b.const(5)))
        assert solver.solve() is None

    def test_require_model_raises(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.ne(x, x))
        with pytest.raises(UnsatisfiableError):
            solver.require_model()

    def test_fk_vs_not_exists_conflict(self):
        """Example 2's equivalent-mutation shape: UNSAT is the answer."""
        solver = Solver()
        fk = solver.int_var("s.b")
        ref = solver.int_var("r.a")
        solver.add(b.exists([b.eq(fk, ref)], "fk"))
        solver.add(b.not_exists([b.eq(ref, fk)], "nullify"))
        assert solver.solve() is None
        assert solver.solve(unfold=False) is None


class TestSumAtoms:
    @pytest.mark.xfail(
        strict=True,
        reason="false UNSAT, likely because candidate domains are closed "
        "under x + c and x - c only, while a sum atom needs c - x",
    )
    def test_sum_with_a_bounded_addend_is_sat(self):
        from repro.solver.solver import unfold_formula

        solver = Solver()
        v1 = solver.int_var("v1")
        v2 = solver.int_var("v2")
        solver.add(b.lt(v2, b.const(-25)))
        solver.add(b.ge(v1 + v2, b.const(5)))
        witness = {"v1": 31, "v2": -26}
        for formula in solver.formulas:
            assert eval_formula(unfold_formula(formula), witness) is True
        check_model(solver, solver.solve())


class TestStrings:
    def test_string_pool_equality(self):
        solver = Solver()
        x = solver.str_var("x", "pool", ("CS", "Bio"))
        y = solver.str_var("y", "pool")
        solver.add(b.eq(x, y))
        model = solver.solve()
        assert model.value("x") == model.value("y")

    def test_string_disequality_uses_pool(self):
        solver = Solver()
        x = solver.str_var("x", "pool", ("CS",))
        solver.add(b.ne(x, b.const(solver.intern("pool", "CS"))))
        model = solver.solve()
        assert model.value("x") != "CS"

    def test_fresh_strings_generated_when_needed(self):
        solver = Solver()
        names = [f"s{i}" for i in range(4)]
        for name in names:
            solver.str_var(name, "dept", ("CS",))
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                solver.add(b.ne(b.var(first), b.var(second)))
        model = solver.solve()
        values = {model.value(n) for n in names}
        assert len(values) == 4

    def test_type_mismatch_merge_raises(self):
        solver = Solver()
        x = solver.int_var("x")
        y = solver.str_var("y", "pool")
        solver.add(b.eq(x, y))
        with pytest.raises(SolverError):
            solver.solve()


class TestQuantifiers:
    def test_forall_all_instances_hold(self):
        solver = Solver()
        vs = [solver.int_var(f"v{i}") for i in range(3)]
        solver.add(b.forall([b.ge(v, b.const(5)) for v in vs]))
        model = solver.solve()
        assert all(model.raw(f"v{i}") >= 5 for i in range(3))

    def test_exists_picks_some_instance(self):
        solver = Solver()
        x = solver.int_var("x")
        y = solver.int_var("y")
        solver.add(b.exists([b.eq(x, y)]))
        model = solver.solve()
        assert model.raw("x") == model.raw("y")

    def test_not_exists_blocks_all(self):
        solver = Solver()
        target = solver.int_var("t")
        slots = [solver.int_var(f"r{i}") for i in range(3)]
        solver.add(b.not_exists([b.eq(s, target) for s in slots]))
        model = solver.solve()
        assert all(model.raw(f"r{i}") != model.raw("t") for i in range(3))

    def test_lazy_mode_agrees_on_sat(self):
        solver = Solver()
        x = solver.int_var("x")
        ys = [solver.int_var(f"y{i}") for i in range(3)]
        solver.add(b.exists([b.eq(x, y) for y in ys]))
        solver.add(b.forall([b.ge(y, b.const(2)) for y in ys]))
        unfolded = solver.solve(unfold=True)
        lazy = solver.solve(unfold=False)
        assert unfolded is not None and lazy is not None
        assert solver.last_stats.iterations >= 1

    def test_lazy_mode_agrees_on_unsat(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.forall([b.lt(x, b.const(0)), b.gt(x, b.const(0))]))
        assert solver.solve(unfold=True) is None
        assert solver.solve(unfold=False) is None

    def test_lazy_mode_refuses_a_compiled_skeleton(self):
        # Shared a = 3 with delta a < 0 is UNSAT; the lazy mode would
        # drop the skeleton's shared constraints and answer a model.
        from repro.solver.skeleton import compile_skeleton

        solver = Solver()
        a = solver.int_var("a")
        solver.int_var("b")
        shared = compile_skeleton(
            [b.eq(a, b.const(3))], solver._infos, solver.config
        )
        solver.add(b.lt(a, b.const(0)))
        assert solver.solve(unfold=True, base=shared) is None
        with pytest.raises(SolverError, match="unfold=True"):
            solver.solve(unfold=False, base=shared)

    def test_stats_populated(self):
        solver = Solver()
        x = solver.int_var("x")
        solver.add(b.eq(x, b.const(1)))
        solver.solve()
        stats = solver.last_stats
        assert stats.satisfiable
        assert stats.unfolded
        assert stats.elapsed >= 0


class TestChaseShape:
    """The PK functional-dependency pattern of genDBConstraints."""

    def _chase_problem(self):
        solver = Solver()
        pk0, pk1 = solver.int_var("r0.pk"), solver.int_var("r1.pk")
        a0, a1 = solver.int_var("r0.a"), solver.int_var("r1.a")
        solver.add(
            b.forall(
                [b.implies(b.eq(pk0, pk1), b.eq(a0, a1))], "pk:r"
            )
        )
        return solver

    def test_chase_allows_collapsed_tuples(self):
        solver = self._chase_problem()
        solver.add(b.eq(b.var("r0.pk"), b.var("r1.pk")))
        model = solver.solve()
        assert model.raw("r0.a") == model.raw("r1.a")

    def test_chase_allows_distinct_tuples(self):
        solver = self._chase_problem()
        solver.add(b.ne(b.var("r0.a"), b.var("r1.a")))
        model = solver.solve()
        assert model.raw("r0.pk") != model.raw("r1.pk")


class TestLimits:
    def test_node_limit_enforced(self):
        from repro.errors import SolverLimitError

        solver = Solver(SearchConfig(node_limit=3, enable_suggestions=False))
        names = [f"x{i}" for i in range(8)]
        for name in names:
            solver.int_var(name)
        # Force actual search: all distinct over a tight domain.
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                solver.add(b.ne(b.var(first), b.var(second)))
        with pytest.raises(SolverLimitError):
            solver.solve()


class TestEvalShortCircuit:
    """Kleene evaluation short-circuits: all four Conj/Disj outcomes.

    A False part decides a conjunction and a True part decides a
    disjunction even when sibling parts are still unknown; with no
    deciding part, any unknown part makes the result unknown (None).
    """

    def _parts(self):
        from repro.solver.terms import Conj, Disj

        true_atom = b.eq(b.var("x"), b.const(1))    # x = 1
        false_atom = b.eq(b.var("x"), b.const(2))   # x = 2
        unknown_atom = b.eq(b.var("y"), b.const(1))  # y unassigned
        assignment = {"x": 1}
        return Conj, Disj, true_atom, false_atom, unknown_atom, assignment

    def test_conj_false_part_decides_despite_unknown(self):
        Conj, _, true_atom, false_atom, unknown, assignment = self._parts()
        formula = Conj((unknown, false_atom, true_atom))
        assert eval_formula(formula, assignment) is False

    def test_conj_unknown_part_makes_result_unknown(self):
        Conj, _, true_atom, _, unknown, assignment = self._parts()
        formula = Conj((true_atom, unknown))
        assert eval_formula(formula, assignment) is None

    def test_disj_true_part_decides_despite_unknown(self):
        _, Disj, true_atom, false_atom, unknown, assignment = self._parts()
        formula = Disj((unknown, false_atom, true_atom))
        assert eval_formula(formula, assignment) is True

    def test_disj_unknown_part_makes_result_unknown(self):
        _, Disj, _, false_atom, unknown, assignment = self._parts()
        formula = Disj((false_atom, unknown))
        assert eval_formula(formula, assignment) is None

    def test_fully_determined_conj_and_disj(self):
        Conj, Disj, true_atom, false_atom, _, assignment = self._parts()
        assert eval_formula(Conj((true_atom, true_atom)), assignment) is True
        assert eval_formula(Disj((false_atom, false_atom)), assignment) is False


# -- brute-force box check ---------------------------------------------------

BOX_NAMES = ("v0", "v1")
#: Half-width of the integer box searched for a witness of an UNSAT answer.
BOX = 60

#: Seeds (of :func:`box_instance`, 0-499) the solver answers UNSAT although
#: the box holds a solution — the candidate-domain defect of
#: ``TestSumAtoms`` (domains are closed under ``x ± c`` only, while a sum
#: atom needs ``c - x``).  Pinned with the first witness in box order, so
#: any change in the solver's SAT/UNSAT answers — a fix included — fails
#: the check until this list is updated.
#: Seed 257, for one: v0 < 0, v0 - v1 + 9 <= 0, -v0 + 2*v1 + 5 <= 0 and
#: v0 <> 10.
FALSE_UNSAT = {257: (-60, -51), 312: (-28, -60), 444: (-60, -42)}
#: SAT answers over seeds 0-99 and 0-499.
SAT_COUNTS = {100: 55, 500: 263}


def _box_linear(rng):
    name = rng.choice(BOX_NAMES)
    coeff = rng.choice((1, 1, 1, 2, -1))
    offset = rng.randint(-10, 10)
    return b.var(name).scale(coeff) + b.const(offset)


def _box_atom(rng):
    op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
    left = _box_linear(rng)
    if rng.random() < 0.5:
        right = _box_linear(rng)
    else:
        right = b.const(rng.randint(-20, 20))
    return b.compare(op, left, right)


def _box_formula(rng):
    kind = rng.randint(0, 3)
    if kind == 0:
        return _box_atom(rng)
    parts = [_box_atom(rng) for _ in range(rng.randint(1, 3))]
    if kind == 1:
        return b.conj(parts)
    if kind == 2:
        return b.disj(parts)
    return rng.choice((b.forall, b.exists))(parts)


def box_instance(seed: int) -> list:
    """1-6 formulas of the delta-solve property grammar
    (``tests/test_delta_solve.py``) over two int variables."""
    rng = random.Random(seed)
    return [_box_formula(rng) for _ in range(rng.randint(1, 6))]


def box_witness(formulas):
    """The first point of the box, in (v0, v1) order, satisfying every
    formula, or None."""
    for x in range(-BOX, BOX + 1):
        for y in range(-BOX, BOX + 1):
            point = {"v0": x, "v1": y}
            if all(eval_formula(f, point) is True for f in formulas):
                return (x, y)
    return None


def box_solve(seed: int):
    """``(unfolded formulas, model or None)`` of one seed's instance."""
    formulas = box_instance(seed)
    solver = Solver()
    for name in BOX_NAMES:
        solver.int_var(name)
    solver.add_all(formulas)
    return [unfold_formula(f) for f in formulas], solver.solve()


def box_check(seeds):
    """Solve each seed's instance and check the answer by brute force.

    Returns ``(sat, unsound, false_unsat)``: the number of SAT answers,
    the seeds whose model violates an input formula, and the UNSAT
    seeds with a box witness (seed -> witness).
    """
    sat = 0
    unsound = []
    false_unsat = {}
    for seed in seeds:
        formulas, model = box_solve(seed)
        if model is None:
            witness = box_witness(formulas)
            if witness is not None:
                false_unsat[seed] = witness
            continue
        sat += 1
        if not all(
            eval_formula(f, model.assignment) is True for f in formulas
        ):
            unsound.append(seed)
    return sat, unsound, false_unsat


class TestBoxCheck:
    """Every SAT model satisfies its input; every UNSAT answer has no
    solution in the box, except the pinned :data:`FALSE_UNSAT` seeds.
    An independent reference for the solver's answers: brute force, not
    a second solver path."""

    def _check(self, count: int) -> None:
        sat, unsound, false_unsat = box_check(range(count))
        pinned = {s: w for s, w in FALSE_UNSAT.items() if s < count}
        assert unsound == []
        assert false_unsat == pinned, (
            f"UNSAT answers with a box witness changed: {false_unsat}"
        )
        assert sat == SAT_COUNTS[count]

    def test_first_100_seeds(self):
        self._check(100)

    def test_pinned_false_unsat_seeds(self):
        # The pinned seeds lie beyond the tier-1 slice; keep them checked.
        for seed, witness in FALSE_UNSAT.items():
            formulas, model = box_solve(seed)
            assert model is None, f"seed {seed} is now SAT"
            point = dict(zip(BOX_NAMES, witness))
            assert all(
                eval_formula(f, point) is True for f in formulas
            ), f"seed {seed}: {witness} is no witness"

    @pytest.mark.slow
    def test_500_seeds(self):
        self._check(500)
