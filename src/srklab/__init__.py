"""srklab: exact workbench for sum-rank-metric codes and their graphs."""

from .gf import (FieldSpec, Matrix, field_make, field_from_order, rank,
                 col_space_intersection_dim, row_space_intersection_dim,
                 enumerate_matrices, BudgetError, FieldError, ShapeError)
from .space import (SrkParams, SrkVector, SrkCode, HammingVector, make_params,
                    srk_weight, srk_distance, enumerate_space,
                    f_map, wt_preservation_check, min_distance,
                    code_to_json, code_from_json)
from .counting import (gaussian_binomial, count_rank_matrices,
                       square_rank_count, rank_distribution, weight_enumerator,
                       ball_volume, degree_D, Q_closed,
                       subspace_intersection_count, P_upper, T_upper,
                       epsilon_star)
from .graphlab import (PowerGraphSpec, GraphStats, exact_T, graph_stats,
                       verify_cayley, max_independent_set, greedy_partition,
                       code_size, MisResult, SolverBudgetError)
from .bounds import (gv_lower, gv_exact_ratio, aks_alpha_lower,
                     improved_gv_value, bound_report, BoundReport)
from .ramsey import (RamseyTable, ChainConfig, DerivedBound,
                     hamming_to_ramsey_lb, srk_to_ramsey_lb,
                     ramsey_upper_from_srk, zero_rate_instance_check,
                     reevaluate)

__version__ = "0.1.0"
