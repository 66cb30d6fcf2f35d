"""Three-term effective spin Hamiltonian of a spin-1/2 dopant.

For each electronic level the doublet energy is

    E(m, B) = -m * sqrt(g_x^2 B_x^2 + g_y^2 B_y^2 + g_z^2 B_z^2)
              - g_J^2 mu_B^2 (L_x B_x^2 + L_y B_y^2 + L_z B_z^2)

with m = +-1/2, g the effective gyromagnetic tensor, L the diagonal
second-order hyperfine tensor in the local site frame, and all energies
in MHz (h = 1).  The per-axis effective g values are

    g_a = -g_n beta_n - 2 g_J mu_B A_J L_a.

Optical transition shifts are excited-level minus ground-level energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .geometry import LocalField

SPIN_UP = 0.5
SPIN_DOWN = -0.5


@dataclass(frozen=True)
class LevelConstants:
    """Scalar parameters of one electronic level."""

    label: str
    g_j: float
    a_j: float
    g_n_beta_n: float = constants.TM_G_N_BETA_N
    mu_b: float = constants.MU_B_MHZ_PER_T

    def __post_init__(self):
        if self.label not in ("ground", "excited"):
            raise ValueError("label must be 'ground' or 'excited'")
        if self.a_j == 0:
            raise ValueError("A_J must be nonzero")


@dataclass(frozen=True)
class HyperfineTensor:
    """Diagonal second-order hyperfine tensor elements, 1/MHz."""

    lambda_x: float
    lambda_y: float
    lambda_z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lambda_x, self.lambda_y, self.lambda_z])


@dataclass(frozen=True)
class EffectiveGTensor:
    """Per-axis effective gyromagnetic values, MHz/T (signed)."""

    g_x: float
    g_y: float
    g_z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.g_x, self.g_y, self.g_z])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.as_array())


GROUND_CONSTANTS = LevelConstants("ground", constants.GROUND_G_J, constants.GROUND_A_J)
EXCITED_CONSTANTS = LevelConstants("excited", constants.EXCITED_G_J, constants.EXCITED_A_J)


def tensor_from_products(c: LevelConstants, aj_lambda) -> HyperfineTensor:
    """Hyperfine tensor from the dimensionless A_J * Lambda products."""
    lx, ly, lz = (p / c.a_j for p in aj_lambda)
    return HyperfineTensor(lx, ly, lz)


GROUND_TENSOR = tensor_from_products(GROUND_CONSTANTS, constants.GROUND_AJ_LAMBDA)
EXCITED_TENSOR = tensor_from_products(EXCITED_CONSTANTS, constants.EXCITED_AJ_LAMBDA)


def effective_g(c: LevelConstants, t: HyperfineTensor) -> EffectiveGTensor:
    """Effective g tensor from level constants and hyperfine tensor."""
    lam = t.as_array()
    g = -c.g_n_beta_n - 2.0 * c.g_j * c.mu_b * c.a_j * lam
    return EffectiveGTensor(*g)


def lambda_from_g(g: EffectiveGTensor, c: LevelConstants) -> HyperfineTensor:
    """Exact algebraic inverse of :func:`effective_g`."""
    if c.g_j == 0:
        raise ValueError("g_J must be nonzero to invert the g tensor")
    lam = (-c.g_n_beta_n - g.as_array()) / (2.0 * c.g_j * c.mu_b * c.a_j)
    return HyperfineTensor(*lam)


def hyperfine_splitting(g: EffectiveGTensor, b: LocalField) -> float:
    """Doublet splitting sqrt(sum g_a^2 b_a^2), MHz, >= 0."""
    return math.sqrt(
        (g.g_x * b.b_x) ** 2 + (g.g_y * b.b_y) ** 2 + (g.g_z * b.b_z) ** 2
    )


def quadratic_shift(c: LevelConstants, t: HyperfineTensor, b: LocalField) -> float:
    """Quadratic Zeeman contribution to the level energy, MHz.

    Negative for positive tensor elements: the level is pushed down as
    B^2 grows, so an optical transition from a ground level with the
    larger tensor shifts up with field.
    """
    lam = t.as_array()
    b2 = b.as_array() ** 2
    return -(c.g_j ** 2) * (c.mu_b ** 2) * float(lam @ b2)


def level_energy(c: LevelConstants, t: HyperfineTensor, m: float, b: LocalField) -> float:
    """Doublet level energy relative to zero field, MHz."""
    g = effective_g(c, t)
    return -m * hyperfine_splitting(g, b) + quadratic_shift(c, t, b)


def optical_shift(
    ground: tuple[LevelConstants, HyperfineTensor],
    excited: tuple[LevelConstants, HyperfineTensor],
    m_g: float,
    m_e: float,
    b: LocalField,
) -> float:
    """Field-induced shift of the optical transition m_g -> m_e, MHz."""
    return level_energy(*excited, m_e, b) - level_energy(*ground, m_g, b)


@dataclass(frozen=True)
class LevelModel:
    """One electronic level with both parameterizations resolved.

    ``g`` drives the linear (splitting) term and ``tensor`` the
    quadratic term.  They are algebraically linked through
    :func:`effective_g`, but published parameter sets round them
    independently, so both are kept explicit.
    """

    constants_: LevelConstants
    tensor: HyperfineTensor
    g: EffectiveGTensor

    @classmethod
    def from_tensor(cls, c: LevelConstants, t: HyperfineTensor) -> "LevelModel":
        return cls(c, t, effective_g(c, t))

    @classmethod
    def from_g(cls, c: LevelConstants, g: EffectiveGTensor) -> "LevelModel":
        return cls(c, lambda_from_g(g, c), g)

    def splitting(self, b: LocalField) -> float:
        return hyperfine_splitting(self.g, b)


def default_models(parameterization: str = "hybrid") -> tuple[LevelModel, LevelModel]:
    """Default (ground, excited) models from the bundled constants.

    "products"  -- g derived from the A_J*Lambda products everywhere.
    "measured"  -- published fitted g values everywhere, tensor derived.
    "hybrid"    -- published g for the linear term, products for the
                   quadratic term (default; each term uses the
                   parameter set that determined it experimentally).
    """
    if parameterization == "products":
        return (
            LevelModel.from_tensor(GROUND_CONSTANTS, GROUND_TENSOR),
            LevelModel.from_tensor(EXCITED_CONSTANTS, EXCITED_TENSOR),
        )
    if parameterization == "measured":
        return (
            LevelModel.from_g(GROUND_CONSTANTS, EffectiveGTensor(*constants.GROUND_G_MEASURED)),
            LevelModel.from_g(EXCITED_CONSTANTS, EffectiveGTensor(*constants.EXCITED_G_MEASURED)),
        )
    if parameterization == "hybrid":
        return (
            LevelModel(
                GROUND_CONSTANTS,
                GROUND_TENSOR,
                EffectiveGTensor(*constants.GROUND_G_MEASURED),
            ),
            LevelModel(
                EXCITED_CONSTANTS,
                EXCITED_TENSOR,
                EffectiveGTensor(*constants.EXCITED_G_MEASURED),
            ),
        )
    raise ValueError(f"unknown parameterization {parameterization!r}")
