"""Exact determinants of subset-indexed vector families and the partition
homology that characterizes their zeros."""

from .combi import binomial, euler_identity_holds, insertion_sign
from .determinant import basis_det, tensor_det, witness_det
from .exactla import (ExactMatrix, det_bareiss, det_exact, det_multimodular,
                      rank_exact)
from .hypergraphs import (BettiVector, ChainComplex, ClassificationReport,
                          DPartition, Hypergraph, betti_numbers, chain_complex,
                          classify_partition, enumerate_partitions,
                          euler_characteristic, is_homogeneous,
                          is_prehomogeneous, skeleton_edges)
from .tensors import (BasisAssignment, TensorAssignment, apply_matrix,
                      canonical_witness, find_degenerate_simplex,
                      tensor_from_basis)

__version__ = "0.1.0"
