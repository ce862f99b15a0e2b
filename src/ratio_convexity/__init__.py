"""Numerics built on translation-ratio convexity of positive densities.

For a positive density f and a shift y, the translation ratio is
h(x, y) = f(x + y) / f(x).  Gaussians are exactly the densities whose log
ratio is affine in x for every shift -- equivalently, whose ratios are
simultaneously convex, log-convex, and log-concave -- so a single certified
curvature violation rules Gaussianity out.  The package provides:

* density models with exact log-space evaluation (:mod:`.density`),
* closed-form ratio analysis and the two counterexample families
  (:mod:`.ratio`),
* grid probes with replayable violation witnesses (:mod:`.probe`),
* a log-quadratic fitter recovering Gaussian parameters (:mod:`.characterize`),
* a Monte-Carlo-calibrated KDE normality test (:mod:`.normtest`),
* a command-line front end ``ratio-convexity`` (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .characterize import (FitReport, SpectralDecomposition, classify_gaussian,
                           default_fit_lattice, eigen_symmetric,
                           fit_log_quadratic)
from .density import (Custom, DensityModel, Gaussian, GaussianParams,
                      Laplace1D, LogQuadraticForm, Quartic1D, log_density,
                      log_density_many, quartic_norm_constant)
from .errors import (DegenerateSampleError, InconclusiveScanError,
                     ModelContractError, RankDeficientDesignError,
                     RatioConvexityError, UsageError)
from .normtest import (Sample, TestReport, bandwidth_silverman,
                       default_test_grid, kde_log_density, monte_carlo_pvalue,
                       substream_seed, test_normality, violation_statistic)
from .probe import (ProbeGrid, PropertyKind, Verdict, Witness,
                    concavity_impossibility_scan, default_tolerance,
                    probe_properties, probe_property, replay_witness,
                    second_difference)
from .ratio import (AffineForm, QuarticHxx, gaussian_log_ratio_affine,
                    laplace_log_ratio, log_ratio, quartic_hxx)

__all__ = [
    "AffineForm",
    "Custom",
    "DegenerateSampleError",
    "DensityModel",
    "FitReport",
    "Gaussian",
    "GaussianParams",
    "InconclusiveScanError",
    "Laplace1D",
    "LogQuadraticForm",
    "ModelContractError",
    "ProbeGrid",
    "PropertyKind",
    "Quartic1D",
    "QuarticHxx",
    "RankDeficientDesignError",
    "RatioConvexityError",
    "Sample",
    "SpectralDecomposition",
    "TestReport",
    "UsageError",
    "Verdict",
    "Witness",
    "bandwidth_silverman",
    "classify_gaussian",
    "concavity_impossibility_scan",
    "default_fit_lattice",
    "default_test_grid",
    "default_tolerance",
    "eigen_symmetric",
    "fit_log_quadratic",
    "gaussian_log_ratio_affine",
    "kde_log_density",
    "laplace_log_ratio",
    "log_density",
    "log_density_many",
    "log_ratio",
    "monte_carlo_pvalue",
    "probe_properties",
    "probe_property",
    "quartic_hxx",
    "quartic_norm_constant",
    "replay_witness",
    "second_difference",
    "substream_seed",
    "test_normality",
    "violation_statistic",
]
