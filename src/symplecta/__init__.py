"""Numerical phase-space toolkit for generalized Weyl quantization on
discretized symplectic vector spaces.

The package provides symplectic linear algebra, Schur multipliers and finite
Weyl systems, quantization maps and symbol transforms on self-dual grids,
modulation/Sobolev norms, Schatten norms, and operator-averaging (synthesis)
calculus, together with a verification CLI.
"""

from .symplin import (
    SymplecticSpace,
    sigma_eval,
    symplectic_adjoint,
    nondegeneracy_gate,
    symplectic_basis,
    factor_sigma_symmetric,
)
from .grid import (
    PhaseGrid,
    GridFunction,
    SymbolSpec,
    make_grid,
    sample_symbol,
    symplectic_fourier,
    apply_multiplier,
    pullback,
    translate,
    sigma_convolve,
    write_grid_function,
    read_grid_function,
)
from .weylrep import (
    RepContext,
    build_rep_context,
    weyl_standard,
    weyl_tilde,
    weyl_W,
    u_conjugator,
    matrix_coefficient,
    orthogonality_integral,
)
from .cocycle import (
    MultiplierContext,
    omega,
    omega_tilde,
    coboundary,
    coboundary_residual,
    cocycle_residual,
    regular_representation,
)
from .calculus import (
    quantize_T,
    quantize_weyl,
    lambda_transform,
    inverse_lambda_transform,
    quantize_theta_tau_kernel,
    recover_symbol,
    write_operator,
    read_operator,
)
from .spaces import (
    WindowSpec,
    WeightSpec,
    modulation_norm,
    chirp_TA,
    dilation_ratio,
    sobolev_k_norm,
    embedding_bound,
)
from .katoschatten import (
    SchattenReport,
    NormReport,
    schatten_norm,
    kato_synthesis,
    kato_identity_residual,
    multiplier_identity_residual,
    majorization_residual,
    polar_absolute_values,
    bound_suite,
)

__version__ = "0.1.0"
