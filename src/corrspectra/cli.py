"""Command-line entry point.

Exit codes: 0 success, 2 input or configuration error, 3 numerical failure
(the message names the window and asset involved), 4 I/O error, 5 a
worker process died. The reports are staged beside the output directory
and moved into it only when the run succeeds, so a failed run leaves no
partial reports, and the reports of an earlier run there keep their bytes.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BaselineMismatchError,
    DegenerateWindowError,
    EigenComputationError,
    PanelFormatError,
    WorkerProcessError,
)
from .nulls import NULL_KINDS
from .panel import ASSET_CLASSES
from .pipeline import RunConfig, write_reports


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrspectra",
        description=(
            "Rolling correlation-matrix spectra for a return panel, with "
            "Monte Carlo null baselines and flat CSV/JSON reports."
        ),
    )
    parser.add_argument("--prices", required=True, help="prices CSV path")
    parser.add_argument("--meta", required=True, help="asset metadata CSV path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--window", type=int, default=100,
                        help="window length in returns (default 100)")
    parser.add_argument("--step", type=int, default=1,
                        help="window step (default 1)")
    parser.add_argument("--sims", type=int, default=10000,
                        help="null-model simulations (default 10000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed, unsigned 64-bit (default 0)")
    parser.add_argument("--null", choices=NULL_KINDS, default="gaussian",
                        help="null-model kind (default gaussian)")
    parser.add_argument("--max-rank", type=int, default=6,
                        help="components kept in reports (default 6)")
    parser.add_argument("--classes", default=None,
                        help=f"comma-separated subset of {','.join(ASSET_CLASSES)}")
    parser.add_argument("--baseline-cache", default=None,
                        help="JSON cache file for null baselines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    classes = None
    if args.classes:
        classes = tuple(c.strip() for c in args.classes.split(",") if c.strip())
    try:
        config = RunConfig(
            prices_path=args.prices,
            meta_path=args.meta,
            output_dir=args.out,
            window_len=args.window,
            step=args.step,
            sims=args.sims,
            master_seed=args.seed,
            null_kind=args.null,
            max_rank=args.max_rank,
            classes=classes,
            baseline_cache=args.baseline_cache,
        )
        n_windows, written = write_reports(config)
    except (DegenerateWindowError, EigenComputationError) as exc:
        print(f"corrspectra: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PanelFormatError, BaselineMismatchError, ValueError) as exc:
        print(f"corrspectra: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"corrspectra: I/O error: {exc}", file=sys.stderr)
        return 4
    except WorkerProcessError as exc:
        print(f"corrspectra: {exc}", file=sys.stderr)
        return 5
    print(f"{n_windows} windows -> {written[0].parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
