"""Command-line entry point.

Exit codes: 0 success, 2 input or configuration error, 3 numerical failure
(the message names the window or null simulation, and the asset
involved), 4 I/O error, 5 a worker process died. The reports are staged
in a hidden directory inside the output directory and moved into it only
when the run succeeds, so a failed run leaves no partial reports, and the
reports of an earlier run there keep their bytes.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DegenerateWindowError,
    EigenComputationError,
    WorkerProcessError,
)
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
    # Each dest is the RunConfig field it sets and main passes them all on,
    # so an unknown dest makes RunConfig raise: a flag that must not reach
    # the reports (one that quiets stderr, say) stays out of RunConfig.
    parser.add_argument("--prices", required=True, dest="prices_path",
                        metavar="PRICES", help="prices CSV path")
    parser.add_argument("--meta", required=True, dest="meta_path",
                        metavar="META", help="asset metadata CSV path")
    parser.add_argument("--out", required=True, dest="output_dir",
                        metavar="OUT", help="output directory")
    parser.add_argument("--window", type=int, default=RunConfig.window_len,
                        dest="window_len", metavar="WINDOW",
                        help="window length in returns (default %(default)s)")
    parser.add_argument("--step", type=int, default=RunConfig.step,
                        help="window step (default %(default)s)")
    parser.add_argument("--sims", type=int, default=RunConfig.sims,
                        help="Gaussian null-model simulations "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=RunConfig.master_seed,
                        dest="master_seed", metavar="SEED",
                        help="master seed, unsigned 64-bit "
                             "(default %(default)s)")
    parser.add_argument("--max-rank", type=int, default=RunConfig.max_rank,
                        help="components kept in reports "
                             "(default %(default)s)")
    parser.add_argument("--classes", default=None,
                        help=f"comma-separated subset of {','.join(ASSET_CLASSES)}")
    parser.add_argument("--baseline-cache", default=None,
                        help="JSON cache file for null baselines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    classes = None
    if args.classes is not None:  # "" names no class, as "," does
        classes = tuple(c.strip() for c in args.classes.split(",") if c.strip())
    try:
        n_windows, written = write_reports(
            RunConfig(**{**vars(args), "classes": classes}))
    except (DegenerateWindowError, EigenComputationError) as exc:
        print(f"corrspectra: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # PanelFormatError, BaselineMismatchError too
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
