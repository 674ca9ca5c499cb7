"""Command-line entry point for reproducible batch runs.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (rank deficiency), 4 convergence failure.  Every output file embeds
the seed and the configuration hash; re-running a command with identical
inputs reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    NumericalError,
    PostcalError,
    RankDeficiencyError,
)
from .fitting import CONTINUOUS_SCALE_NOTE, fit_all_variables
from .frame import TierLabel
from .hb import gelman_rubin
from .io import IngestedSample, format_machine, read_draws, read_sample, write_draws, write_table, write_weights
from .report import (
    _human,
    build_artifacts,
    build_run_report,
    report_to_dict,
    write_report_json,
    write_report_tables,
)
from .simulate import build_simulation, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4


def _say(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _load(args) -> RunConfig:
    return load_config(args.config, seed_override=args.seed)


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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fit_draws(cfg: RunConfig, ingested: IngestedSample):
    return fit_all_variables(
        ingested.sample,
        ingested.spec,
        cfg.models,
        ingested.strata_covariates,
        cfg.mcmc,
    )


def _convergence_rows(spec, convergence) -> list[list[str]]:
    rows = []
    if convergence.available:
        for label, value in zip(spec.block_labels(), convergence.rhat):
            rows.append([label, format_machine(float(value))])
    return rows


def cmd_fit(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    ingested = _ingest(cfg)
    _say(args, f"fitting {len(cfg.models)} models on {ingested.sample.n} records")
    draws, _, warnings = _fit_draws(cfg, ingested)
    convergence = gelman_rubin(draws)
    meta = _metadata(cfg, continuous_scale=CONTINUOUS_SCALE_NOTE)

    write_draws(out / "draws.csv", draws, ingested.spec, metadata=meta)
    write_table(
        out / "convergence.csv",
        ["parameter", "rhat"],
        _convergence_rows(ingested.spec, convergence),
        metadata=meta,
    )
    payload = {
        "metadata": meta,
        "n_draws": draws.n_draws,
        "rhat_available": convergence.available,
        "rhat_max": convergence.rhat_max,
        "warnings": list(warnings),
    }
    if not convergence.available:
        payload["warnings"].append(
            f"convergence diagnostic unavailable: {convergence.reason}"
        )
        _say(args, f"warning: {convergence.reason}")
    _write_json(out / "fit.json", payload)

    if convergence.available and convergence.rhat_max > cfg.rhat_threshold:
        print(
            f"convergence failure: rhat_max {convergence.rhat_max:.4f} exceeds "
            f"{cfg.rhat_threshold}",
            file=sys.stderr,
        )
        return EXIT_CONVERGENCE
    return EXIT_OK


def _artifacts(args, cfg: RunConfig):
    """Shared calibrate/infer/diagnose path: output directory, sample, draws
    (from ``--draws`` or fitted in-run) and the calibrated artifacts."""
    out = _out_dir(args)
    ingested = _ingest(cfg)
    if args.draws:
        draws = read_draws(args.draws, ingested.spec)
    elif cfg.models:
        draws, _, _ = _fit_draws(cfg, ingested)
    else:
        raise ConfigError(
            "no --draws file given and no 'models' section to fit in-run"
        )
    art = build_artifacts(
        ingested.sample,
        ingested.spec,
        draws,
        calibration_attributes=ingested.calibration_attributes,
        level=cfg.level,
    )
    return out, ingested, draws, art


def cmd_calibrate(args) -> int:
    cfg = _load(args)
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
    _write_json(
        out / "calibrate.json",
        {
            "metadata": meta,
            "gram_rank": art.gram.rank,
            "gram_condition": art.gram.condition_estimate,
            "negative_weight_count": art.mean_weights.negative_count,
        },
    )
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _load(args)
    if not cfg.cells:
        raise ConfigError("config declares no cells to infer")
    out, _, draws, art = _artifacts(args, cfg)
    meta = _metadata(
        cfg,
        rhat_max=gelman_rubin(draws).rhat_max,
        continuous_scale=CONTINUOUS_SCALE_NOTE,
    )
    report = build_run_report(art, cfg.cells, metadata=meta)
    write_report_json(out / "report.json", report)
    write_report_tables(out, report)
    _say(args, f"wrote {len(report.rows)} cell rows to {out}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _load(args)
    out, ingested, draws, art = _artifacts(args, cfg)
    convergence = gelman_rubin(draws)
    meta = _metadata(cfg, rhat_max=convergence.rhat_max)
    rows = []
    if cfg.cells:
        report = build_run_report(art, cfg.cells, metadata=meta)
        for row in report.rows:
            rows.append(
                [
                    row.name,
                    row.tier.value,
                    str(row.n_cell),
                    _human(row.a_norm),
                    _human(row.cos_theta),
                    _human(row.orthogonality_flag),
                ]
            )
    write_table(
        out / "diagnostics.csv",
        ["cell", "tier", "n_cell", "a_norm", "cos_theta", "orthogonal"],
        rows,
        metadata=meta,
    )
    write_table(
        out / "convergence.csv",
        ["parameter", "rhat"],
        _convergence_rows(ingested.spec, convergence),
        metadata=meta,
    )
    _write_json(
        out / "diagnose.json",
        {
            "metadata": meta,
            "gram_rank": art.gram.rank,
            "gram_condition": art.gram.condition_estimate,
            "negative_weight_count": art.mean_weights.negative_count,
            "rhat_available": convergence.available,
            "rhat_max": convergence.rhat_max,
        },
    )
    return EXIT_OK


def _coverage_cell_rows(report) -> list[list[str]]:
    return [
        [
            c.name,
            c.tier,
            *map(
                _human,
                (
                    c.truth,
                    c.replications,
                    c.mean_point,
                    c.mean_are,
                    c.mean_n_cell,
                    c.cri_coverage,
                    c.cri_mc_se,
                    c.cri_significant,
                    c.cbi_coverage,
                    c.cbi_mc_se,
                    c.cbi_significant,
                    c.mean_cv_cri,
                    c.mean_cv_cbi,
                ),
            ),
        ]
        for c in report.cells
    ]


def _tier_summary_rows(report) -> tuple[list[list[str]], list[list[str]]]:
    def span(values):
        """min, mean and max of the non-missing values, formatted."""
        values = [v for v in values if v is not None]
        if not values:
            return "", "", ""
        return tuple(map(_human, (min(values), sum(values) / len(values), max(values))))

    coverage_rows = []
    cv_rows = []
    for tier in TierLabel:
        cells = [c for c in report.cells if c.tier == tier.value]
        if not cells:
            continue
        head = [tier.value, str(len(cells))]
        cri = span(c.cri_coverage for c in cells)
        cbi = span(c.cbi_coverage for c in cells)
        coverage_rows.append(head + [*cri, *cbi, _human(report.nominal)])
        n_min, _, n_max = span(c.mean_n_cell for c in cells)
        cvp_min, _, cvp_max = span(c.mean_cv_cri for c in cells)
        cvb_min, _, cvb_max = span(c.mean_cv_cbi for c in cells)
        cv_rows.append(head + [n_min, n_max, cvp_min, cvp_max, cvb_min, cvb_max])
    return coverage_rows, cv_rows


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    frame, mc, truths = build_simulation(cfg)
    _say(
        args,
        f"population {frame.size} units, {len(frame.strata)} strata; "
        f"{mc.replications} replications",
    )
    report, results = run_simulation(frame, mc, truths=truths, threads=args.threads)

    meta = _metadata(
        cfg,
        replications=mc.replications,
        excluded_nonconverged=report.excluded_nonconverged,
    )
    write_table(
        out / "coverage_by_cell.csv",
        [
            "cell",
            "tier",
            "truth",
            "replications",
            "mean_point",
            "mean_are",
            "mean_n_cell",
            "cri_coverage",
            "cri_mc_se",
            "cri_outside_2se",
            "cbi_coverage",
            "cbi_mc_se",
            "cbi_outside_2se",
            "mean_cv_cri",
            "mean_cv_cbi",
        ],
        _coverage_cell_rows(report),
        metadata=meta,
    )
    coverage_rows, cv_rows = _tier_summary_rows(report)
    write_table(
        out / "coverage_by_tier.csv",
        [
            "tier",
            "cells",
            "cri_cov_min",
            "cri_cov_mean",
            "cri_cov_max",
            "cbi_cov_min",
            "cbi_cov_mean",
            "cbi_cov_max",
            "nominal",
        ],
        coverage_rows,
        metadata=meta,
    )
    write_table(
        out / "cv_by_tier.csv",
        [
            "tier",
            "cells",
            "n_cell_min",
            "n_cell_max",
            "cv_cri_min",
            "cv_cri_max",
            "cv_cbi_min",
            "cv_cbi_max",
        ],
        cv_rows,
        metadata=meta,
    )
    payload = {
        "metadata": meta,
        "replications_requested": report.replications_requested,
        "replications_used": report.replications_used,
        "excluded_nonconverged": report.excluded_nonconverged,
        "nominal": report.nominal,
        "cells": [
            {
                "name": c.name,
                "tier": c.tier,
                "truth": c.truth,
                "mean_point": c.mean_point,
                "mean_are": c.mean_are,
                "mean_n_cell": c.mean_n_cell,
                "cri_coverage": c.cri_coverage,
                "cri_mc_se": c.cri_mc_se,
                "cri_outside_2se": c.cri_significant,
                "cbi_coverage": c.cbi_coverage,
                "cbi_mc_se": c.cbi_mc_se,
                "cbi_outside_2se": c.cbi_significant,
                "mean_cv_cri": c.mean_cv_cri,
                "mean_cv_cbi": c.mean_cv_cbi,
            }
            for c in report.cells
        ],
    }
    _write_json(out / "coverage.json", payload)

    if args.keep_replications:
        rows = []
        for r in results:
            for row in r.rows:
                rows.append(
                    [
                        str(r.index),
                        row.name,
                        row.tier.value,
                        format_machine(row.point),
                        format_machine(row.cri_lower),
                        format_machine(row.cri_upper),
                        "" if row.cbi_lower is None else format_machine(row.cbi_lower),
                        "" if row.cbi_upper is None else format_machine(row.cbi_upper),
                    ]
                )
            if not r.converged:
                rows.append([str(r.index), "<not converged>", "", "", "", "", "", ""])
        write_table(
            out / "replications.csv",
            [
                "replication",
                "cell",
                "tier",
                "point",
                "cri_lower",
                "cri_upper",
                "cbi_lower",
                "cbi_upper",
            ],
            rows,
            metadata=meta,
        )
    return EXIT_OK


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

    def common(p, draws=False):
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--verbose", action="store_true")
        if draws:
            p.add_argument(
                "--draws", default=None, help="draw matrix file (skip in-run fitting)"
            )

    p_fit = sub.add_parser("fit", help="fit the hierarchical models, write draws")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_cal = sub.add_parser("calibrate", help="export posterior-mean calibrated weights")
    common(p_cal, draws=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_inf = sub.add_parser("infer", help="tiered intervals for configured cells")
    common(p_inf, draws=True)
    p_inf.set_defaults(func=cmd_infer)

    p_diag = sub.add_parser("diagnose", help="convergence and cell diagnostics only")
    common(p_diag, draws=True)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="repeated-sampling coverage experiment")
    common(p_sim)
    p_sim.add_argument(
        "--threads", type=int, default=1, help="replication worker processes"
    )
    p_sim.add_argument(
        "--keep-replications",
        action="store_true",
        help="persist per-replication interval rows for audit",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficiencyError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except PostcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
