"""Exact growth-order counting for rooted trees on the square lattice.

A rooted tree that grows one bond at a time, always staying connected,
admits N(T) = L! / W(T) distinct growth histories, where W(T) is the
product over bonds of (1 + number of bonds strictly downstream).  This
package computes W and N exactly, enumerates histories by brute force
as an independent check, builds the hierarchical comb family whose
count stays within C^L of the L! ceiling, and carries the supporting
constants far past the point where the integers themselves fit in
memory.
"""

from .bethe import bethe_existence_bound, bethe_growth_count, bethe_trees
from .core import (
    RootedTree,
    downstream_weights,
    enumerate_growth_orders,
    growth_count,
    random_lattice_tree,
    tree_from_json,
    tree_to_json,
    tree_weight,
    validate_tree,
)
from .errors import (
    BoundViolated,
    CapExceeded,
    ConstraintViolated,
    DuplicateBond,
    GrowcountError,
    HasCycle,
    InternalMismatch,
    InternalNonDivisible,
    NotConnected,
    OddLength,
    OverlapDetected,
    RootDetached,
    TooLarge,
)
from .generators import (
    TowerParams,
    tower_params,
    tower_tree,
    comb_tree,
    custom_hierarchical_tree,
    path_tree,
)
from .analytics import (
    constants,
    epsilon0,
    exact_weight,
    structure_fractions,
    verify_main_bound,
    weight_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "TowerParams",
    "BoundViolated",
    "CapExceeded",
    "ConstraintViolated",
    "DuplicateBond",
    "GrowcountError",
    "HasCycle",
    "InternalMismatch",
    "InternalNonDivisible",
    "NotConnected",
    "OddLength",
    "OverlapDetected",
    "RootDetached",
    "RootedTree",
    "TooLarge",
    "bethe_existence_bound",
    "bethe_growth_count",
    "bethe_trees",
    "tower_params",
    "tower_tree",
    "comb_tree",
    "constants",
    "custom_hierarchical_tree",
    "downstream_weights",
    "enumerate_growth_orders",
    "epsilon0",
    "exact_weight",
    "growth_count",
    "path_tree",
    "random_lattice_tree",
    "structure_fractions",
    "tree_from_json",
    "tree_to_json",
    "tree_weight",
    "validate_tree",
    "verify_main_bound",
    "weight_upper_bound",
]
