"""Crash-safe differential fuzzing campaign (DESIGN.md §5i).

A long-running loop over the mutant-killing pipeline: evolve a corpus
of queries, generate datasets for each, and let a panel of oracles —
dual execution against SQLite plus two backend-free self-checks — veto
any case where the engine's answers are inconsistent.  Each round
appends one fsync'd record of its results to the campaign journal, the
only durable state, and ``xdata campaign --resume`` replays the
journal to continue bit-identically after SIGKILL.
"""

from repro.campaign.bugs import BugRecord, bug_fingerprint
from repro.campaign.case import CaseBug, CaseResult, CaseTask, run_case
from repro.campaign.checkpoint import CampaignState, load_checkpoint
from repro.campaign.corpus import Corpus, CorpusItem, query_features
from repro.campaign.driver import CampaignConfig, CampaignDriver
from repro.campaign.oracles import (
    ORACLES,
    CrossCheckOracle,
    DuplicateSensitivityOracle,
    JoinIdentityOracle,
    Oracle,
    OracleContext,
    OracleOutcome,
    build_oracles,
)

__all__ = [
    "BugRecord",
    "bug_fingerprint",
    "CampaignConfig",
    "CampaignDriver",
    "CampaignState",
    "CaseBug",
    "CaseResult",
    "CaseTask",
    "Corpus",
    "CorpusItem",
    "CrossCheckOracle",
    "DuplicateSensitivityOracle",
    "JoinIdentityOracle",
    "ORACLES",
    "Oracle",
    "OracleContext",
    "OracleOutcome",
    "build_oracles",
    "load_checkpoint",
    "query_features",
    "run_case",
]
