"""Golden-bytes + property harness for delta solving (DESIGN.md §5j).

Every solve is a delta over a skeleton — a compiled query skeleton, or
the trivial skeleton of the declared variables — and the compile-once
pipeline is an amortization, never an approximation.  This file pins
that two ways:

* **against recorded bytes** — the full Table I/II workload under four
  configuration mixes and a seeded conformance-grammar corpus must
  reproduce the golden digests of ``tests/solver_golden.json`` (suites,
  skips, relaxations and kill matrices; see ``tests/golden.py``).  A
  2000-seed sweep rides behind ``-m slow``.
* **propositionally** — Hypothesis properties pin the confluence
  arguments the skeleton relies on: unfold-normalization is idempotent,
  the union-find partition is stable under conjunct insertion order,
  and delta-then-solve over a compiled skeleton equals solving the
  rebuilt system over the trivial one.

The solver's SAT/UNSAT answers themselves are checked against brute
force in ``tests/test_solver_search.py::TestBoxCheck``.
"""

from __future__ import annotations

import pytest

from repro.core.generator import GenConfig, XDataGenerator
from repro.datasets import university_schema
from repro.memo import clear_process_memos
from repro.solver import builders
from repro.solver.builders import conjuncts
from repro.solver.search import SearchConfig
from repro.solver.skeleton import compile_skeleton
from repro.solver.solver import Solver, unfold_formula
from tests import golden
from tests.workload import suite_fingerprint, uni_query

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    return golden.load_golden()


class TestConfigPlumbing:
    def test_delta_runs_report_skeleton_traffic(self):
        clear_process_memos()
        schema, sql = uni_query("Q1")
        suite = XDataGenerator(schema, GenConfig()).generate(sql)
        stats = suite.health.skeleton_cache
        assert stats["hits"] + stats["misses"] > 0
        assert stats["misses"] > 0  # cold store: first shape compiles

    def test_skeleton_compile_time_lands_in_preprocess(self):
        clear_process_memos()
        schema, sql = uni_query("Q1")
        suite = XDataGenerator(schema, GenConfig()).generate(sql)
        misses = [
            d for d in suite.datasets if d.stats and d.stats.skeleton == "miss"
        ]
        assert misses, "cold store must record at least one skeleton miss"
        for dataset in misses:
            assert dataset.stats.preprocess_time > 0.0
            assert dataset.stats.elapsed >= dataset.stats.preprocess_time


def _assert_mix_matches(recorded, mix: str, keys) -> None:
    """Every Table I/II job under ``mix`` reproduces its recorded
    digests named by ``keys`` (``"suite"``, ``"kill_matrix"``)."""
    actual = golden.table12_digests(mix, "kill_matrix" in keys)
    assert {
        label: [digests[key] for key in keys]
        for label, digests in actual.items()
    } == {
        label: [digests[key] for key in keys]
        for label, digests in recorded["table12"][mix].items()
    }, f"{mix}: digests differ from the golden record"


class TestWorkloadParity:
    """Table I/II: every query x FK variant, datasets AND kill matrices."""

    def test_full_workload_byte_identical(self, recorded):
        clear_process_memos()
        _assert_mix_matches(recorded, "default", ("suite",))

    def test_full_workload_kill_matrices_identical(self, recorded):
        clear_process_memos()
        _assert_mix_matches(recorded, "default", ("kill_matrix",))

    def test_warm_store_repeat_run_still_identical(self, table12_jobs):
        """Second visit of the same request hits the process stores;
        the output must not depend on which path produced it."""
        clear_process_memos()
        schema, sql = table12_jobs[0]
        cold = XDataGenerator(schema, GenConfig()).generate(sql)
        warm = XDataGenerator(schema, GenConfig()).generate(sql)
        assert suite_fingerprint(cold) == suite_fingerprint(warm)
        assert warm.health.skeleton_cache["misses"] == 0

    def test_ablation_flags_still_identical(self, recorded):
        """The other configuration mixes — join-condition datasets, the
        lazy mode and input-database attempts (both solved over the
        trivial skeleton) — reproduce their recorded suites and kill
        matrices too."""
        for mix in ("join_conditions", "no_unfold", "input_db"):
            _assert_mix_matches(recorded, mix, ("suite", "kill_matrix"))


def _corpus_parity(recorded, seeds) -> tuple[int, int]:
    """Generate each sampled query; assert it reproduces its recorded
    digests (or its recorded error type).  Returns (checked, skipped)."""
    schema = university_schema()
    checked = skipped = 0
    for seed in seeds:
        expected = recorded["corpus"][str(seed)]
        entry = golden.corpus_entry(
            seed, schema, "kill_matrix" in expected
        )
        assert entry == expected, f"golden divergence at seed {seed}"
        if "error" in entry:
            skipped += 1
        else:
            checked += 1
    return checked, skipped


class TestConformanceCorpusParity:
    def test_200_seed_corpus(self, recorded):
        clear_process_memos()
        checked, _skipped = _corpus_parity(recorded, range(200))
        # The corpus must stay overwhelmingly checked to mean anything
        # (same bar as the cross-backend conformance suite).
        assert checked >= 150

    @pytest.mark.slow
    def test_2000_seed_sweep(self, recorded):
        clear_process_memos()
        checked, _skipped = _corpus_parity(recorded, range(2000))
        assert checked >= 1500


# -- Hypothesis properties ----------------------------------------------------

NAMES = tuple(f"v{i}" for i in range(5))


def _linear(draw):
    name = draw(st.sampled_from(NAMES))
    coeff = draw(st.sampled_from((1, 1, 1, 2, -1)))
    offset = draw(st.integers(min_value=-10, max_value=10))
    return builders.var(name).scale(coeff) + builders.const(offset)


@st.composite
def atoms(draw):
    op = draw(st.sampled_from(("=", "<>", "<", "<=", ">", ">=")))
    left = _linear(draw)
    if draw(st.booleans()):
        right = _linear(draw)
    else:
        right = builders.const(draw(st.integers(min_value=-20, max_value=20)))
    return builders.compare(op, left, right)


@st.composite
def formulas(draw):
    """Atoms, conjunctions, disjunctions and bounded quantifiers — the
    shapes the generator's constraint systems are built from."""
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(atoms())
    parts = draw(st.lists(atoms(), min_size=1, max_size=3))
    if kind == 1:
        return builders.conj(parts)
    if kind == 2:
        return builders.disj(parts)
    quantifier = draw(st.sampled_from((builders.forall, builders.exists)))
    return quantifier(parts)


@st.composite
def equalities(draw):
    left = builders.var(draw(st.sampled_from(NAMES)))
    if draw(st.booleans()):
        right = builders.var(draw(st.sampled_from(NAMES)))
    else:
        right = builders.const(draw(st.integers(min_value=-5, max_value=5)))
    return builders.eq(left, right)


def _declared_solver(config=None) -> Solver:
    solver = Solver(config or SearchConfig())
    for name in NAMES:
        solver.int_var(name)
    return solver


class TestProperties:
    @given(formula=formulas())
    @settings(max_examples=200, deadline=None)
    def test_unfold_normalization_idempotent(self, formula):
        once = unfold_formula(formula)
        assert unfold_formula(once) == once

    @given(formula=formulas())
    @settings(max_examples=100, deadline=None)
    def test_conjuncts_roundtrip(self, formula):
        parts = conjuncts(formula)
        assert builders.conj(parts) == formula

    @given(
        units=st.lists(equalities(), min_size=1, max_size=8),
        order=st.randoms(use_true_random=False),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_union_find_stable_under_insertion_order(self, units, order):
        """The compiled classes are the transitive closure of the
        derivable equalities — permutation-invariant by confluence.

        The *raw* parent/fixed maps may differ (fixing v0 before
        unioning v0=v1 records ``fixed[v1]`` directly, the other order
        records a parent link), so the invariant is semantic: every
        variable resolves to the same value, and the unfixed variables
        fall into the same partition.
        """

        def closure(skeleton):
            def find(name):
                return skeleton.parent.get(name, name)

            values = {
                name: skeleton.fixed.get(find(name)) for name in NAMES
            }
            classes: dict[str, set[str]] = {}
            for name in NAMES:
                if values[name] is None:
                    classes.setdefault(find(name), set()).add(name)
            return values, frozenset(
                frozenset(members) for members in classes.values()
            )

        solver = _declared_solver()
        config = solver.config
        infos = solver._infos
        base = compile_skeleton(list(units), infos, config)
        shuffled = list(units)
        order.shuffle(shuffled)
        permuted = compile_skeleton(shuffled, infos, config)
        assert base.unsat == permuted.unsat
        if not base.unsat:
            assert closure(base) == closure(permuted)

    @given(
        shared=st.lists(formulas(), min_size=0, max_size=5),
        delta=st.lists(formulas(), min_size=0, max_size=3),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_delta_then_solve_equals_rebuild_then_solve(self, shared, delta):
        """Solving the delta against a compiled skeleton must equal
        asserting delta-then-shared (the generator's layout) and
        compiling from scratch — same satisfiability, same model."""
        skeleton_solver = _declared_solver()
        skeleton = compile_skeleton(
            list(shared), skeleton_solver._infos, skeleton_solver.config
        )
        skeleton_solver.add_all(delta)
        via_delta = skeleton_solver.solve(base=skeleton)

        rebuild_solver = _declared_solver()
        rebuild_solver.add_all(delta)
        rebuild_solver.add_all(shared)
        via_rebuild = rebuild_solver.solve()

        if via_rebuild is None:
            assert via_delta is None
        else:
            assert via_delta is not None
            assert via_delta.assignment == via_rebuild.assignment
