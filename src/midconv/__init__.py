"""Exact-arithmetic middle convolution of monodromy tuples.

Submodules:
  poly         polynomials: evaluation, division, rational roots, Phi_n
  scalars      exact elements of Q, Q(zeta_n), F_{p^k}
  linalg       exact dense linear algebra, Jordan data, Kronecker products
  tuples       monodromy tuples, braid actions, parabolic cohomology
  convolution  the middle convolution, MC_lambda, predictions, the SL demo
  modgroup     reduction mod ell and finite matrix-group recognition
  k3count      K3 point counting, Frobenius eigenvalues, intersection matrix
  cli          the command-line front end
"""

from .scalars import FieldDescriptor, Scalar, format_scalar, parse_scalar
from .linalg import (JordanData, Matrix, char_poly, jordan_data, kernel_basis, kronecker,
                     kronecker_jordan, rank)
from .tuples import (BraidWord, MonodromyTuple, braid_act, cohomology_spaces, equivalence,
                     parabolic_rank_formula, parse_braid_word, pure_braid)
from .convolution import (ConvolutionInput, circ_tuple, irreducibility_criterion,
                          is_convolution_sheaf, kummer_tuple, mc_lambda,
                          middle_convolution, predict_infinity_jordan,
                          predict_local_jordan, rank_formula, sl_demo)
from .modgroup import (GroupReport, absolutely_irreducible, group_closure, group_report,
                       o3_recognition, primitivity_bound, reduce_mod)
from .k3count import (CountRecord, FrobeniusData, count_affine, count_record,
                      frobenius_eigenvalues, intersection_matrix_det, legendre,
                      trace_frobenius)

__version__ = "0.1.0"
