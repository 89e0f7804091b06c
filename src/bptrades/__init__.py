"""Orthogonal trades in the cyclic MOLS family B_p."""

from bptrades.core import (
    LatinSquare,
    Orthomorphism,
    Transversal,
    are_orthogonal,
    gen_bp,
    is_transversal,
    mols_family,
    orthomorphism_check,
    orthomorphism_distance,
    transversal_from_orthomorphism,
)
from bptrades.dissect import (
    SquareDissection,
    base_dissection,
    check_good,
    dissection_to_trade,
    good_dissection,
    log_trade,
    small_rowperm_pipeline,
)
from bptrades.family16 import FamilyWitness, construct, find_k, intercalate_witness
from bptrades.matrices import (
    SizeBounds,
    TradeMatrix,
    balance_matrix,
    check_bcc2,
    det_exact,
    dominance_report,
    size_bounds,
    symbol_system,
)
from bptrades.rowperm import (
    RowPermutation,
    rowperm_orthogonal,
    three_row_trade,
    trade_from_matrix,
    trade_from_rowperm,
)
from bptrades.search import (
    RowPermSearchResult,
    SpectrumResult,
    admissible_mates,
    count_transversals,
    diagonal_histogram,
    enumerate_orthomorphisms,
    enumerate_transversals,
    min_distance_from_linear,
    rowperm_sizes,
    spectrum,
    spectrum_all,
)
from bptrades.trades import (
    TradePair,
    ValidationReport,
    apply_trade,
    canonicalize,
    difference_trade,
    validate_latin_trade,
    validate_orthogonal_trade,
)

__version__ = "0.1.0"
