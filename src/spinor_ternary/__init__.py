"""Which integers do the spinor regular but not regular positive definite
ternary quadratic forms miss?  Tools to enumerate, to decide locally, and
to check the closed-form answers three independent ways.
"""

from .arith import (
    factor,
    hilbert,
    in_local_norm_group,
    is_padic_square,
    legendre,
    ord_p,
)
from .catalog import (
    CatalogError,
    CatalogFile,
    GenusRecord,
    LocalSplitting,
    load_catalog,
    load_default_catalog,
)
from .forms_core import (
    BoundOverflowError,
    DefinitenessError,
    RepresentedSet,
    TernaryForm,
    Witness,
    discriminant,
    enumerate_represented,
    evaluate,
    is_positive_definite,
    represented_mask,
)
from .local_solver import (
    LocalVerdict,
    genus_represents,
    lemma71_excluded,
    lemma72_excluded,
    lemma73_excluded,
    local_represents,
    locally_represented,
    unramified_shortcut,
)
from .spinor_theory import (
    EXCEPTIONAL,
    INCONSISTENT,
    LOCALLY_EXCLUDED,
    REPRESENTED,
    Classification,
    classify,
    in_Mt,
    spinor_exceptional_general,
)

__version__ = "0.1.0"
