"""Secure-degrees-of-freedom laboratory for the jammed MIMO multiple-access channel.

Submodules
----------
matlin
    Complex matrix and subspace toolkit.
model
    Antenna configurations and random channels.
regions
    Closed-form SDoF, converse bounds, case regions, jamming planner.
precoders
    Jamming/legitimate precoder synthesis and zero-forcing reception.
rates
    Gaussian mutual information, power sweeps, slope estimation.
binning
    Coset-binning wiretap codec with exact equivocation.
cli
    Command-line front end.
"""

from .model import AntennaConfig
from .regions import CaseId, JammingPlan, classify_case, jamming_plan, sum_sdof, upper_bound_terms

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig", "CaseId", "JammingPlan", "classify_case", "jamming_plan",
    "sum_sdof", "upper_bound_terms", "__version__",
]
