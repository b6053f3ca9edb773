"""Higher-order games: quantifiers, selection functions, and equilibrium
certification for finite simultaneous, sequential, and mixed-extension games.
"""

import logging

from .budget import DEFAULT_BUDGET, resolve_budget
from .core import (DiagonalPoint, OutcomeTable, Quantifier, QuantifierKind,
                   SelectionFunction, SelectionKind, argmax_selection,
                   argmin_selection, attains, attains_exhaustively,
                   average_quantifier, constant_selection, custom_quantifier,
                   custom_selection, eps_ball_quantifier,
                   fixed_point_quantifier, fixed_point_witness,
                   make_standard_quantifier, make_standard_selection,
                   max_quantifier, min_quantifier, nearest_mean_selection,
                   outcome_distance)
from .errors import (BudgetExceededError, GameFileError, HogError,
                     NoFixedPointError, StructuralError)
from .minimax import bbc, compare_bbc_vs_product, is_psi_phi_profile
from .mixed import (expected_outcome, is_mixed_nash, lift_selection,
                    mixed_profile, mixed_strategy, mixed_unilateral_table,
                    solve_generic, solve_support_enumeration_2p, vertex,
                    vertex_profile)
from .normalform import (ContingentMoveSet, check_soundness,
                         profile_to_strategy, strategy_to_profile,
                         to_normal_form)
from .sequential import (SequentialGame, compute_optimal_play,
                         compute_optimal_strategy, is_optimal_strategy,
                         selection_product, strategic_play)
from .simultaneous import (SimultaneousGame, best_response_set,
                           enumerate_pure_equilibria, is_generalised_nash,
                           unilateral_map)

__version__ = "0.1.0"
# Log records reach only the handlers an application installs.
logging.getLogger(__name__).addHandler(logging.NullHandler())
