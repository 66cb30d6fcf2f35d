"""Physical constants and default Tm:YGG spin-Hamiltonian parameters.

All energies are in frequency units (h = 1): MHz for level energies and
splittings, MHz/T for gyromagnetic coefficients, 1/MHz for the hyperfine
second-order tensor elements.
"""

# Bohr magneton in MHz/T (CODATA, frequency units).
MU_B_MHZ_PER_T = 13996.245

# Nuclear term g_n * beta_n for 169Tm, MHz/T.
TM_G_N_BETA_N = -3.53

# Electronic g factors and hyperfine interaction constants (MHz) for the
# lowest crystal-field level of each electronic state.
GROUND_G_J = 1.16
GROUND_A_J = -470.3
EXCITED_G_J = 0.8
EXCITED_A_J = -678.3

# Dimensionless A_J * Lambda products, diagonal in the local site frame.
GROUND_AJ_LAMBDA = (-7.23e-4, -4.47e-3, -9.99e-4)
EXCITED_AJ_LAMBDA = (-1.55e-4, -3.95e-3, -5.57e-4)

# Measured effective gyromagnetic values, MHz/T.  These are the directly
# fitted magnitudes; they differ from the values implied by the
# AJ_LAMBDA products by up to ~2.7 MHz/T (rounding in the published
# constants), so both parameterizations are kept.
GROUND_G_MEASURED = (27.0, 146.0, 36.0)
EXCITED_G_MEASURED = (7.0, 92.0, 16.0)
