"""Effective spin-Hamiltonian toolkit for six-site garnet dopants.

Models the doublet splittings and quadratic Zeeman shifts of a spin-1/2
dopant across the six orientationally inequivalent garnet sites, fits
effective g tensors to angle-resolved resonance data, synthesizes
hole-burning and RF-resonance spectra, and searches field-orientation
space for clock transitions, broadening extrema and branching maxima.
"""

from .geometry import (
    LabField,
    LocalField,
    RotationScan,
    SiteFrame,
    lab_to_cartesian,
    project_onto_site,
    scan_fields,
    site_frame,
    symmetry_classes,
)
from .hamiltonian import (
    EffectiveGTensor,
    HyperfineTensor,
    LevelConstants,
    LevelModel,
    default_models,
    effective_g,
    hyperfine_splitting,
    lambda_from_g,
    level_energy,
    optical_shift,
    quadratic_shift,
)
from .fitting import (
    FitProblem,
    FitResult,
    Resonance,
    assign_sites,
    fit_angular_offset,
    fit_difference_tensor,
    fit_ground_tensor,
)
from .spectra import SpectrumTrace, find_peaks, predict_hole_offsets, synth_odnmr, synth_shb
from .search import (
    ClockTransition,
    DegenerateError,
    GridSpec,
    OrientationMap,
    SiteModel,
    branching_map,
    broadening_map,
    curvature,
    field_extremum,
    angular_gradient,
    find_clock_transitions,
)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"
