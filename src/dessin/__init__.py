"""Exact dessin-correlator engines and their cross-verification suites."""

from .coeffs import GaussianRational
from .laurent import LaurentPolynomial
from .npoint import NPointSeries
from .report import VerificationReport
from .virasoro import CorrelatorTable, PartitionKey, VirasoroEngine
from .eo import EOEngine, EOForm

__all__ = [
    "CorrelatorTable",
    "EOEngine",
    "EOForm",
    "GaussianRational",
    "LaurentPolynomial",
    "NPointSeries",
    "PartitionKey",
    "VerificationReport",
    "VirasoroEngine",
]
