"""Posterior-calibrated replicate weights and tiered interval inference."""

__version__ = "0.1.0"

from .frame import CellFilter, CellQuery
from .report import build_artifacts, build_run_report
