"""Entropy lower bounds and exact verification for 3-party secure computation."""

__version__ = "0.1.0"

from .dists import (
    Alphabet,
    CapacityError,
    Channel,
    JointDist,
    PreconditionError,
    SupportJoint,
    cond_entropy,
    cond_mutual_info,
    entropy,
    join,
    mutual_info,
)
from .common_info import residual_info
from .normal_form import (
    NormalFormResult,
    bigraph_connected,
    channel_normal_form,
    check_condition1,
    check_condition2,
    pair_normal_form,
    sampling_normal_form,
)
from .simplex import OptConfig, optimize_over_simplex
from .bounds import (
    BoundReport,
    best_bounds,
    cmss_bounds,
    conditional_bounds,
    improved_bounds,
    intermediate_bounds,
    prelim_bounds,
    randomness_bound,
    switched_bounds,
)
from .protocols import (
    ExecutionJoint,
    ProtocolSpec,
    ProtocolSpecError,
    Round,
    builtin,
    expected_lengths,
    run_exact,
    verify_correctness,
    verify_cutset,
    verify_info_inequality,
    verify_privacy,
    verify_transcript_independence,
)
from .cmss import CmssSpec, and_cmss, cmss_joint, separation_report, verify_cmss
