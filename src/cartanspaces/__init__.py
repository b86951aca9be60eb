"""Cartan spaces of reductive subalgebra pairs.

Exact computation of the rational span of the weight lattice of a pair
(g, h), its rank, essential part, and the complexity of the corresponding
homogeneous space, driven by encoded classification tables that are
cross-validated against independent formulas.
"""

from .catalog import (
    CatalogEntry,
    HItem,
    ReductivePair,
    get_catalog,
    instantiate,
    lookup,
    verify_entry,
)
from .engine import (
    CartanResult,
    EssentialPart,
    Twist,
    alpha_functional,
    cartan_space,
    levi_centralizer_dim,
    twist,
)
from .errors import (
    CartanError,
    ConstraintError,
    ContractError,
    DimensionError,
    InternalConsistencyError,
    OutsideCatalogError,
    PairSyntaxError,
    TableFormatError,
)
from .indexes import dynkin_index_of
from .ratlinalg import (
    RationalSubspace,
    annihilator_preimage,
    member,
    span,
)
from .rootsystems import (
    RootSystem,
    SimpleType,
    build_root_system,
    highest_root,
    k_value,
    sl,
    so,
    sp,
    vo_to_bourbaki,
    weyl_dim,
)

__version__ = "0.1.0"
