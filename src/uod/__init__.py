"""Exact computation of universal ordinary distributions over Z and F_q[T],
their sign-homology by several independent routes, and the associated rank
theorems, all in integer arithmetic."""

__version__ = "0.1.0"

from .znf import AbGroupInvariants, SparseMatrix
from .chainkit import (
    ActionModule,
    ChainComplex,
    DoubleComplex,
    HomologyTable,
    build_kt,
)
from .arith import backend, gf_group, sign_group, xi_classes, y_fiber, y_map
from .distmod import build_af, partition_tag, u_module, u_tower, xi0_basis
from .signh import sign_homology_U, tate_pair, verify_rank_theorem
from .ftate import AlmostFreeSpec, ftate_closed_form, ftate_via_kt, thm442_lhs
from .skcx import build_sk, sk_quotients_homology
from .iwasawa import u_values, uprime_compare

__all__ = [
    "AbGroupInvariants",
    "ActionModule",
    "AlmostFreeSpec",
    "ChainComplex",
    "DoubleComplex",
    "HomologyTable",
    "SparseMatrix",
    "backend",
    "build_af",
    "build_kt",
    "build_sk",
    "ftate_closed_form",
    "ftate_via_kt",
    "gf_group",
    "partition_tag",
    "sign_group",
    "sign_homology_U",
    "sk_quotients_homology",
    "tate_pair",
    "thm442_lhs",
    "u_module",
    "u_tower",
    "u_values",
    "uprime_compare",
    "verify_rank_theorem",
    "xi0_basis",
    "xi_classes",
    "y_fiber",
    "y_map",
]
