"""The paper's core contribution: constraint-based test-data generation.

Public surface:

* :func:`repro.core.analyze.analyze_query` — canonicalise a parsed query
  (occurrence naming, equivalence classes, selection pushdown metadata);
* :class:`repro.core.generator.XDataGenerator` — Algorithm 1: produce a
  complete test suite of datasets for a query;
* :class:`repro.core.generator.TestSuite` / ``GeneratedDataset`` — results.
"""

from repro.core.analyze import AnalyzedQuery, analyze_query
from repro.core.generator import (
    GeneratedDataset,
    GenConfig,
    SuiteHealth,
    TestSuite,
    XDataGenerator,
)

__all__ = [
    "AnalyzedQuery",
    "analyze_query",
    "XDataGenerator",
    "GenConfig",
    "TestSuite",
    "GeneratedDataset",
    "SuiteHealth",
]
