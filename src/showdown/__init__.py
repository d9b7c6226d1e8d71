"""Solvers, Nash equilibria, and seeded simulation for the n-player
unlimited-spin Showcase Showdown game.

Players add uniform [0, 1] spins to a running score, busting to 0 past 1;
the highest score wins.  The package covers the sequential game (turns in
order, full information) and three simultaneous no-information variants
(external payer, zero-sum, and one player advantaged at the all-bust tie),
with tables computed to rounding error (closed forms, fixed Gauss-Legendre
rules and Chebyshev collocation) and cross-checked by a Monte Carlo
simulator.
"""

from .numerics import (
    BracketError,
    NumericsError,
    solve_root,
)
from .score import (
    CdfProduct,
    RandomStream,
    bust_prob,
    score_cdf,
)
from .stopping import (
    PayoffSpec,
    StoppingSolution,
    expected_payoff,
    optimal_threshold,
)
from .sequential import (
    CoalitionReport,
    SeqEquilibrium,
    SeqState,
    advise,
    coalition_12,
    coalition_13,
    seq_policy,
    theta,
    win_matrix,
    win_prob,
)
from .simultaneous import (
    ProfileOutcome,
    SymmetricEquilibrium,
    Variant,
    advantaged_curve_points,
    alpha,
    best_response,
    epsilon_delta,
    equilibrium,
    gamma,
    payoff_map,
    stop_payoff_function,
    three_player_wins,
    two_player_win,
    win_probabilities,
)
from .simulator import (
    SEQ_OPTIMAL,
    SimConfig,
    SimReport,
    StrategyProfile,
    run,
)

__version__ = "0.1.0"
