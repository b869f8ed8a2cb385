"""Diagonal-type permutation groups: exact base sizes and base probabilities
at desk scale, with every computed quantity backed by an independent check.
"""

from .baseengine import (BaseCertificate, alt_formula_bounds, construct_auto,
                         construct_digit_base, construct_generator_base,
                         construct_small_k_base, is_base, minimal_base_size,
                         pointwise_stabilizer, pyber_check, stabilizer_witness)
from .catalog import (AutTable, SimpleGroup, catalog_names, get_group,
                      load_catalog, parse_catalog)
from .diag import (DiagTypeGroup, OmegaPoint, TopGroup, act_diag,
                   build_group, make_top, stab_of_D)
from .errors import (BudgetExceededError, DiagbaseError, InvalidTopError,
                     MembershipError, PreconditionError,
                     UnsupportedEnumerationError, ValidationError)
from .perm import GroupTable, Perm
from .prob import (centralizer_order_formula, class_count_inequality_check,
                   class_intersection_formula, exact_nonbase_pair_proportion,
                   monte_carlo_nonbase, q2_bound_exact)

__version__ = "0.1.0"
