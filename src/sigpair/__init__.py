"""Exact signature pairs of group-invariant Hermitian polynomials on C^2.

For a finite subgroup G of U(2), the invariant Hermitian polynomial
1 - prod_{g in G}(1 - <gz, z>) has a Hermitian coefficient matrix whose
inertia this package computes with certified cyclotomic arithmetic, together
with the closed-form combinatorics of the cyclic, dihedral and binary
dihedral families and the orbit Chern class identity.
"""

from .cyclotomic import (Cyclotomic, DivisionByZero, IncompatibleOrder, MalformedJSON,
                         NotReal, cyclotomic_polynomial, rational, root_of_unity)
from .group import (CapExceeded, FiniteMatrixGroup, Matrix2, NotUnitary,
                    binary_dihedral, binary_polyhedral, closure, conjugate,
                    cyclic_gamma, dihedral, load_generators, trivial_group)
from .invariant import (GroupTooLarge, HermitianPolynomial, InvariantCheckFailed,
                        phi, polarized_at_ones)
from .signature import (EmptySpectrum, HermitianMatrix, Inertia,
                        InsufficientPrecision, NotHermitian, SignatureCheckFailed,
                        SignaturePair, coefficient_matrix, gauss_rank,
                        inertia_exact, inertia_numeric, positivity_ratio,
                        signature_pair)
from .fpq import (T_closed, WeightReport, c_closed, even_binomial,
                  f_closed_pminus1, fpq, lww_sign, mirror_check,
                  signature_cyclic, signature_cyclic_closed, verify_exact_formula,
                  weight, weight_census)
from .closedforms import (ClosedFormCheckFailed, d_poly,
                          d_poly_closed, d_sign_check, delta_counts,
                          delta_ratio, delta_signature_closed, e_coeffs,
                          lambda_signature_closed, p_poly_roots_check,
                          phi_delta_decomposed, phi_lambda_decomposed)
from .chern import Orbit, act, chern_classes, orbit, verify_chern_identity

__version__ = "0.1.0"
