"""Three-qubit GHZ/W entanglement-witness analysis toolkit."""

from . import canonical, classify, criterion, qcore, scanner, states, witness
from .canonical import CanonicalResult, LocalUnitaries, acin_decompose, local_unitary_invariants
from .classify import (
    EntanglementReport,
    bipartition_schmidt,
    is_genuinely_entangled_pure,
    ppt_min_eigenvalue,
    three_tangle,
)
from .criterion import (
    CriterionVerdict,
    ghz_condition,
    ghzw_criterion,
    ghzw_criterion_pure,
    min_ghz_expectation_mixed,
    min_ghz_expectation_pure,
    min_w_expectation_mixed,
    min_w_expectation_pure,
    w_condition,
)
from .scanner import MixtureReport, ScanConfig, ScanRow, emit_table, sample_unwitnessed_mixtures, scan_superposition_family
from .states import (
    AcinParams,
    haar_random_pure,
    make_acin,
    make_ghz,
    make_superposition,
    make_w,
    make_xi,
    mix,
)
from .witness import (
    Witness,
    custom_witness,
    expectation,
    expectation_pure,
    ghz_witness,
    lambda_bound_analytic,
    lambda_bound_stochastic,
    w_witness,
)

__version__ = "0.1.0"
