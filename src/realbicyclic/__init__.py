"""Exact rational arithmetic for the bicyclic-style inverse semigroup on the
non-negative quadrant, its natural partial order and line decomposition,
neighbourhood models of its compactified topologies, and machine-checkable
continuity certificates."""

from .semigroup import (
    Elem,
    ExtElem,
    LineRef,
    Sign,
    TooLarge,
    ZERO,
    ZeroType,
    classify_line,
    inv,
    inv_ext,
    is_idempotent,
    leq_witness,
    line_point,
    mul,
    mul_branch,
    mul_ext,
    natural_leq,
    natural_leq_ext,
    scalar,
)
from .order_geometry import (
    DownRay,
    FullLine,
    NotInProduct,
    Side,
    UpSegment,
    down_set,
    factor_in_line_product,
    line_product,
    preimage_up_segment,
    shrink_witness,
    shrink_witness_dual,
    translate_down_ray,
    up_set,
)
from .topology import (
    NbhdAc1,
    NbhdAc2,
    NbhdOrder,
    nbhd_invert,
)
from .certificates import (
    BranchEvidence,
    CaseEvidence,
    ContinuityCert,
    Interval,
    MalformedCert,
    TopEvidence,
    continuity_cert_ac1,
    continuity_cert_ac2,
    falsify,
    validate_cert,
    validate_cert_ac1,
    validate_cert_ac2,
)
from .certio import cert_from_text, cert_to_text, read_cert, write_cert
from .generate import GenConfig, IntegerMode, RationalMode, gen_elem
from .exprparse import NegativeScalar, ParseError, parse_expr
from .suites import SUITE_NAMES, Failure, SuiteReport, UnknownSuite, run_suite

__version__ = "0.1.0"
