"""Numerical phase-space toolkit for generalized Weyl quantization on
discretized symplectic vector spaces.

The package provides symplectic linear algebra, Schur multipliers and finite
Weyl systems, quantization maps and symbol transforms on self-dual grids,
modulation/Sobolev norms, Schatten norms, and operator-averaging (synthesis)
calculus, together with a verification CLI.
"""
