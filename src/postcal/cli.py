"""Command-line entry point for reproducible batch runs.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (rank deficiency), 4 convergence failure.  Every output file embeds
the seed and the configuration hash; re-running a command with identical
inputs reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    ConfigError, ConvergenceError, DataError, NumericalError, PostcalError, RankDeficiencyError, at_least
)
from .fitting import CONTINUOUS_SCALE_NOTE, fit_all_variables
from .hb import gelman_rubin
from .io import IngestedSample, read_draws, read_sample, write_draws, write_json, write_weights
from .report import (
    DIAGNOSE_COLUMNS,
    build_artifacts,
    build_run_report,
    write_convergence,
    write_coverage,
    write_report_json,
    write_report_tables,
    write_rows,
)
from .simulate import build_simulation, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4


def _say(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _ingest(cfg: RunConfig) -> IngestedSample:
    if cfg.roles is None:
        raise ConfigError("config lacks a 'sample' section")
    return read_sample(
        cfg.records_path,
        cfg.strata_path,
        cfg.roles,
        domain_order=cfg.domain_order,
        band_rules=cfg.band_rules,
    )


def _metadata(cfg: RunConfig, **extra) -> dict:
    meta = {"seed": cfg.seed, "config_hash": cfg.config_hash, "version": __version__}
    meta.update(extra)
    return meta


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fit_draws(cfg: RunConfig, ingested: IngestedSample):
    return fit_all_variables(
        ingested.sample,
        ingested.spec,
        cfg.models,
        ingested.strata_covariates,
        cfg.mcmc,
    )


def _require_retained_draws(cfg: RunConfig, command: str, min_draws: int = 2) -> None:
    """Refuse, before fitting, an in-run fit that keeps fewer than
    ``min_draws`` draws (``mcmc.chains`` x ``mcmc.iterations``)."""
    chains, iterations = cfg.mcmc.chains, cfg.mcmc.iterations
    if chains * iterations < min_draws:
        raise ConfigError(
            f"mcmc.chains x mcmc.iterations = {chains} x {iterations} retains "
            f"{chains * iterations} draw; {command} needs at least {min_draws}"
        )


def _convergence(draws):
    """R-hat of the draws, with a warning on stderr when it is unavailable."""
    convergence = gelman_rubin(draws)
    if not convergence.available:
        print("warning: convergence diagnostic unavailable:", convergence.reason, file=sys.stderr)
    return convergence


def cmd_fit(args, cfg: RunConfig) -> int:
    out = _out_dir(args)
    ingested = _ingest(cfg)
    _say(args, f"fitting {len(cfg.models)} models on {ingested.sample.n} records")
    draws, acceptance, warnings = _fit_draws(cfg, ingested)
    convergence = _convergence(draws)
    meta = _metadata(cfg, continuous_scale=CONTINUOUS_SCALE_NOTE)

    write_draws(out / "draws.csv", draws, ingested.spec, metadata=meta)
    write_convergence(out / "convergence.csv", ingested.spec, convergence, meta)
    payload = {
        "metadata": meta,
        "acceptance": acceptance,
        "n_draws": draws.n_draws,
        "rhat_available": convergence.available,
        "rhat_max": convergence.rhat_max,
        "warnings": list(warnings),
    }
    if not convergence.available:
        payload["warnings"].append(
            f"convergence diagnostic unavailable: {convergence.reason}"
        )
    write_json(out / "fit.json", payload)

    threshold = cfg.mcmc.rhat_threshold
    if convergence.exceeds(threshold):
        raise ConvergenceError(f"rhat_max {convergence.rhat_max:.4f} exceeds {threshold}")
    return EXIT_OK


def _artifacts(args, cfg: RunConfig, min_draws: int = 1):
    """Shared calibrate/infer/diagnose path: output directory, sample, draws
    (from ``--draws`` or fitted in-run) and the calibrated artifacts.

    A ``--draws`` file, or the in-run fit, must hold at least ``min_draws``
    draws: interval quantiles and R-hat need two, a posterior-mean weight set
    one.
    """
    if not args.draws and cfg.models:
        _require_retained_draws(cfg, args.command, min_draws)
    out = _out_dir(args)
    ingested = _ingest(cfg)
    if args.draws:
        draws = read_draws(args.draws, ingested.spec)
        if draws.n_draws < min_draws:
            raise DataError(
                f"{args.draws}: {draws.n_draws} draw; {args.command} needs at least {min_draws}"
            )
    elif cfg.models:
        draws, _, _ = _fit_draws(cfg, ingested)
    else:
        raise ConfigError(
            "no --draws file given and no 'models' section to fit in-run"
        )
    _say(args, f"{draws.n_draws} draws from {args.draws or 'the in-run fit'}")
    art = build_artifacts(ingested.sample, draws, level=cfg.level)
    return out, ingested, draws, art


def cmd_calibrate(args, cfg: RunConfig) -> int:
    out, ingested, _, art = _artifacts(args, cfg)
    meta = _metadata(
        cfg,
        gram_rank=art.gram.rank,
        negative_weight_count=art.mean_weights.negative_count,
    )
    write_weights(
        out / "weights.csv",
        ingested.record_ids,
        ingested.sample.weights,
        art.mean_weights.g_factors,
        art.mean_weights.weights,
        metadata=meta,
    )
    write_json(out / "calibrate.json", {"metadata": meta, **art.summary})
    return EXIT_OK


def cmd_infer(args, cfg: RunConfig) -> int:
    if not cfg.cells:
        raise ConfigError("config declares no cells to infer")
    out, _, draws, art = _artifacts(args, cfg, min_draws=2)
    meta = _metadata(
        cfg,
        rhat_max=_convergence(draws).rhat_max,
        continuous_scale=CONTINUOUS_SCALE_NOTE,
    )
    report = build_run_report(art, cfg.cells, metadata=meta)
    write_report_json(out / "report.json", report)
    write_report_tables(out, report)
    _say(args, f"wrote {len(report.rows)} cell rows to {out}")
    return EXIT_OK


def cmd_diagnose(args, cfg: RunConfig) -> int:
    out, ingested, draws, art = _artifacts(args, cfg, min_draws=2)
    convergence = _convergence(draws)
    meta = _metadata(cfg, rhat_max=convergence.rhat_max)
    rows = build_run_report(art, cfg.cells, metadata=meta).rows if cfg.cells else []
    write_rows(out / "diagnostics.csv", DIAGNOSE_COLUMNS, rows, meta)
    write_convergence(out / "convergence.csv", ingested.spec, convergence, meta)
    write_json(
        out / "diagnose.json",
        {
            "metadata": meta,
            **art.summary,
            "rhat_available": convergence.available,
            "rhat_max": convergence.rhat_max,
        },
    )
    return EXIT_OK


def cmd_simulate(args, cfg: RunConfig) -> int:
    _require_retained_draws(cfg, args.command)
    out = _out_dir(args)
    frame, cfg, truths = build_simulation(cfg)
    replications = cfg.simulate.replications
    _say(
        args,
        f"population {frame.n} units, {len(frame.strata)} strata; "
        f"{replications} replications",
    )
    report, results = run_simulation(frame, cfg, truths=truths, threads=args.threads)

    meta = _metadata(
        cfg,
        replications=replications,
        excluded_nonconverged=report.excluded_nonconverged,
    )
    write_coverage(out, report, results if args.keep_replications else None, meta)
    return EXIT_OK


def _at_least(low: int):
    """An argument type: an integer of at least ``low``."""
    kind = at_least(low)

    def parse(text: str) -> int:
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer of {kind.__name__}, got {text!r}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postcal",
        description=(
            "Posterior-calibrated replicate weights and tiered interval "
            "inference for survey cross-tabulations"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, draws=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--seed", type=_at_least(0), default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--verbose", action="store_true")
        if draws:
            p.add_argument(
                "--draws", default=None, help="draw matrix file (skip in-run fitting)"
            )
        p.set_defaults(func=func)
        return p

    command("fit", "fit the hierarchical models, write draws", cmd_fit)
    command("calibrate", "export posterior-mean calibrated weights", cmd_calibrate, draws=True)
    command("infer", "tiered intervals for configured cells", cmd_infer, draws=True)
    command("diagnose", "convergence and cell diagnostics only", cmd_diagnose, draws=True)
    p_sim = command("simulate", "repeated-sampling coverage experiment", cmd_simulate)
    p_sim.add_argument(
        "--threads", type=_at_least(1), default=1, help="replication worker processes"
    )
    p_sim.add_argument(
        "--keep-replications",
        action="store_true",
        help="persist per-replication interval rows for audit",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config, seed_override=args.seed))
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (RankDeficiencyError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PostcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
