"""``xdata campaign`` / ``python -m repro.campaign`` — run a campaign.

A thin argparse layer over :class:`repro.campaign.driver.CampaignDriver`;
all campaign behaviour lives in the driver so tests drive it directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.campaign.driver import CampaignConfig, CampaignDriver
from repro.campaign.oracles import ORACLES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdata campaign",
        description=(
            "Run a crash-safe differential fuzzing campaign over the "
            "mutant-killing pipeline."
        ),
    )
    parser.add_argument(
        "--dir",
        required=True,
        help="campaign directory (journal.jsonl, bugs.jsonl, report.json)",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--cases", type=int, default=64, help="total case budget"
    )
    parser.add_argument(
        "--round-size", type=int, default=8,
        help="cases per round (one fsync'd journal record each)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    parser.add_argument(
        "--case-deadline", type=float, default=120.0,
        help="seconds before the hang watchdog kills an inflight case",
    )
    parser.add_argument(
        "--oracles",
        default=",".join(ORACLES),
        help=f"comma-separated oracle names (default: all of {', '.join(ORACLES)})",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue by replaying the directory's journal (exact)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = CampaignConfig(
        dir=args.dir,
        seed=args.seed,
        cases=args.cases,
        round_size=args.round_size,
        workers=args.workers,
        case_deadline=args.case_deadline,
        oracles=tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        ),
    )
    report = CampaignDriver(config, resume=args.resume).run()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = (
            "interrupted (resumable)"
            if report["interrupted"]
            else ("complete" if report["completed"] else "stopped")
        )
        rate = report["cases_per_s"]
        print(
            f"campaign {status}: {report['stats']['cases']} cases in "
            f"{report['rounds']} rounds, {report['bugs']} unique bugs, "
            f"corpus {report['corpus_size']}"
            + (f", {rate} cases/s" if rate is not None else "")
        )
    # An interrupted campaign exits 0: the drain was clean and its last
    # round is committed — that is the success path for SIGTERM.
    return 0


if __name__ == "__main__":
    sys.exit(main())
