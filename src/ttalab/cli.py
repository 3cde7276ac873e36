"""Command-line front end.

    ttalab run CONFIG [--out DIR]
    ttalab figure ID [--dim N] [--batch B] [--seed S] [--horizon T] [--out DIR]
    ttalab grid CONFIG --etas 0.01,0.1,1 [--out DIR]
    ttalab club [--loss RULE:FAMILY]
    ttalab recursion --c C --L L --r1 R --T T
    ttalab stein --loss RULE:FAMILY --m M --s S --n N [--seed S]

Exit codes: 0 success, 1 validation error, 2 unsupported-mode error
(population dynamics with a hard-label loss at sigma > 0) or a usage error
that argparse reports (a missing option, or a value of the wrong type, such
as `--T 1e3`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import recursion_bound_run, record_text, stein_identity_check, verify_club
from .dynamics import UnsupportedLossError
from .harness import run_experiment, step_size_sweep
from .losses import club_losses, parse_loss_id
from .presets import FIGURE_IDS, reproduce_figure
from .serialize import config_flat, csv_with_meta_text, parse_config_file

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttalab",
        description="Self-training adaptation laboratory: runs, figures, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."))

    # options left out are left out of the call too: reproduce_figure's
    # signature holds the one copy of each default
    p_fig = sub.add_parser("figure", help="reproduce a preset figure",
                           argument_default=argparse.SUPPRESS)
    p_fig.add_argument("id", choices=FIGURE_IDS)
    p_fig.add_argument("--dim", dest="d", type=int, metavar="DIM")
    p_fig.add_argument("--batch", type=int)
    p_fig.add_argument("--seed", type=int)
    p_fig.add_argument("--horizon", type=int)
    p_fig.add_argument("--out", dest="out_dir", type=Path, metavar="DIR")

    p_grid = sub.add_parser("grid", help="step-size search around a base config")
    p_grid.add_argument("config", type=Path)
    p_grid.add_argument("--etas", required=True,
                        help="comma-separated step sizes, e.g. 0.01,0.1,1")
    p_grid.add_argument("--out", type=Path, default=Path("."))

    p_club = sub.add_parser("club", help="tail-bound certificates for the four "
                                         "certified losses")
    p_club.add_argument("--loss", default=None, help="restrict to RULE:FAMILY")

    p_lem = sub.add_parser("recursion", help="simulate the recursion lower bound")
    p_lem.add_argument("--c", type=float, required=True)
    p_lem.add_argument("--L", type=float, required=True)
    p_lem.add_argument("--r1", type=float, required=True)
    p_lem.add_argument("--T", type=int, required=True)

    p_stein = sub.add_parser("stein", help="Monte Carlo Gaussian integration-by-parts check")
    p_stein.add_argument("--loss", required=True, help="RULE:FAMILY, e.g. conj:exp")
    p_stein.add_argument("--m", type=float, required=True)
    p_stein.add_argument("--s", type=float, required=True)
    p_stein.add_argument("--n", type=int, required=True)
    p_stein.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except UnsupportedLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        manifest = run_experiment(args.config, args.out)
        for path in manifest.outputs:  # relative to the manifest, which is in --out
            print(args.out / path)
        return 0

    if args.command == "figure":
        options = {k: v for k, v in vars(args).items() if k not in ("command", "id")}
        result = reproduce_figure(args.id, **options)
        for path in result.csv_paths:
            print(path)
        print(result.svg_path)
        return 0

    if args.command == "grid":
        try:
            etas = [float(v) for v in args.etas.split(",") if v.strip()]
        except ValueError as exc:  # float names the entry, not the option
            raise ValueError(f"--etas: {exc}") from None
        base = parse_config_file(args.config)
        [(best, rows)] = step_size_sweep(base, [base.loss], etas, 1)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary_path = out / f"{Path(args.config).stem}.grid.csv"
        summary_path.write_text(
            csv_with_meta_text("eta,final_loss01,overflow",
                               [[p.eta, p.mean_final_loss01, p.overflow] for p in rows],
                               config_flat(base)),
            encoding="utf-8")
        print(summary_path)
        print(f"best_eta = {best.eta}")
        return 0

    if args.command == "club":
        losses = [parse_loss_id(args.loss)] if args.loss else club_losses()
        for loss in losses:
            if loss.club is None:
                raise ValueError(f"{loss.name} carries no tail-bound parameters")
            cert = verify_club(loss, loss.club.L, loss.club.a_min)
            print(record_text(cert))
        return 0

    if args.command == "recursion":
        _, report = recursion_bound_run(args.r1, args.c, args.L, args.T)
        print(record_text(report))
        return 0

    # stein: the subparsers are required, so argparse has rejected any other command
    loss = parse_loss_id(args.loss)
    report = stein_identity_check(loss, args.m, args.s, args.n, seed=args.seed)
    print(record_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
