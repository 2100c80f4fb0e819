"""Exact dessin-correlator engines and their cross-verification suites."""

from .coeffs import GaussianRational
from .laurent import LaurentPolynomial, lp_mul
from .npoint import NPointSeries
from .report import VerificationReport
from .series import TruncatedSeries, residue_coefficient, series_compose, series_invert, series_sqrt
from .virasoro import CorrelatorTable, PartitionKey, VirasoroEngine
from .eo import EOEngine, EOForm, bergman_kernel, eo_omega, spectral_curve

__all__ = [
    "CorrelatorTable",
    "EOEngine",
    "EOForm",
    "GaussianRational",
    "LaurentPolynomial",
    "NPointSeries",
    "PartitionKey",
    "TruncatedSeries",
    "VerificationReport",
    "VirasoroEngine",
    "bergman_kernel",
    "eo_omega",
    "lp_mul",
    "residue_coefficient",
    "series_compose",
    "series_invert",
    "series_sqrt",
    "spectral_curve",
]
