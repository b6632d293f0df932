"""Localization bounds for an RF emitter observed by binary energy
detectors.

A fusion center collects one-bit decisions (received energy above or
below a threshold) from sensors scattered as a spatial Poisson process
and estimates the emitter's transmit power and plane position.  This
package computes the exact expected Fisher information and Cramer-Rao
bounds for that problem by adaptive quadrature, an analytic closed-form
approximation built from a quadratic surrogate of the log-likelihood
weight, and validates both against a reproducible Monte-Carlo
maximum-likelihood campaign.

Modules
-------
specfun     the Marcum Q function, its log tails and derivatives
detection   single-sensor detection model and decision likelihoods
fisher      expected Fisher information by quadrature; CRBs
closedform  analytic approximation of the information integrals
montecarlo  field sampling, ML estimation, MSE-vs-CRB campaigns
cli         command-line front end (``binloc crb | simulate | check``)
"""

from __future__ import annotations

from .closedform import (ModelInvalid, TaylorModel, UnsupportedAlpha,
                         build_taylor_model, closed_form_fisher,
                         default_series_order, f11_closed_form,
                         f22_closed_form)
from .detection import (Decisions, DetectorConfig, TargetParams,
                        detection_probability, detection_probability_array,
                        log_likelihood, signal_coordinate)
from .fisher import (FieldConfig, FisherResult, QuadratureError,
                     expected_fim_quadrature, offdiag_quadrature_estimate,
                     rmin_expected, x_breve)
from .montecarlo import (AllTrialsFailed, MseReport, NoDetections,
                         SimConfig, TrialResult, default_region_radius,
                         far_field_excess, initial_guess, ml_estimate,
                         mse_report, nearest_distance_samples, run_campaign,
                         sample_decisions, sample_field)
from .specfun import marcum_q, marcum_q_da, marcum_q_daa

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "marcum_q", "marcum_q_da", "marcum_q_daa",
    # detection model
    "DetectorConfig", "TargetParams", "Decisions", "signal_coordinate",
    "detection_probability", "detection_probability_array",
    "log_likelihood",
    # Fisher information / CRB
    "FieldConfig", "FisherResult", "QuadratureError",
    "expected_fim_quadrature", "offdiag_quadrature_estimate",
    "rmin_expected", "x_breve",
    # closed form
    "TaylorModel", "ModelInvalid", "UnsupportedAlpha", "build_taylor_model",
    "closed_form_fisher", "default_series_order", "f11_closed_form",
    "f22_closed_form",
    # simulation
    "SimConfig", "TrialResult", "MseReport", "NoDetections",
    "AllTrialsFailed", "default_region_radius",
    "far_field_excess", "sample_field", "sample_decisions",
    "nearest_distance_samples", "initial_guess", "ml_estimate",
    "run_campaign", "mse_report",
]
