"""Exact rank computations for the additive semigroup of affine maps over B_n."""

from .affine import (
    AffineMapElement,
    Const,
    ConstZero,
    NSupport,
    Singleton,
    a_plus_semigroup,
    a_plus_size,
    add_maps,
    enumerate_a_plus,
    map_label,
)
from .brandt import BnElement, bn_add, bn_elements, bn_label, brandt_semigroup
from .engine import (
    FiniteSemigroup,
    closure,
    export_table,
    greens_classes,
    import_table,
    indecomposables,
    is_band,
    is_generating,
    is_independent,
    is_prime_subset,
)
from .ranks import (
    RankReport,
    RankValue,
    SearchBudget,
    construct_witness,
    intermediate_rank_verify,
    large_rank_exact,
    lower_rank_exact,
    plan_rank,
    rank_formulas,
    small_rank,
    upper_rank_search,
)
from .verify import VerificationReport, verify_all

__version__ = "0.1.0"
