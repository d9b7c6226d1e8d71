"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them inline).

The four table-reproduction criteria compare every computed entry against the
published 4-decimal reference at tolerance 5e-5 (half of the last printed
digit).  Eight published entries are misrounded by one ulp (see
reference_tables.MISROUNDED, verified against two independent high-precision
recomputations), so criteria 1-4 cannot all hold at 5e-5 as stated; the
assertions stay strict and report exactly those entries.  A companion
assertion pins the attainable guarantee first: every entry agrees with the
published digits to within one printed ulp (1e-4).
"""

import math
import time

import numpy as np

import showdown.sequential as seq
import showdown.simultaneous as sim
from showdown.score import bust_prob
from showdown.simulator import SimConfig, StrategyProfile, run
from showdown.stopping import PayoffSpec, expected_payoff
from showdown.simultaneous import Variant

import mp_reference
from cdf_reference import PiecewisePayoff, polynomial_payoff
from quadrature import integrate_adaptive
from reference_tables import (
    MISROUNDED,
    TABLE1,
    TABLE2,
    TABLE4,
    TABLE5,
    computed_table1,
    computed_table2,
    computed_table4,
    computed_table5,
)

TOL_PRINT = 5e-5
ONE_ULP = 1e-4


def _clear_solver_caches():
    for fn in (
        seq._thetas,
        seq._collocation,
        seq._win_table,
        sim.alpha,
        sim.gamma,
        sim.epsilon_delta,
    ):
        fn.cache_clear()


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def _table_criterion(number, name, reference, computed, elapsed, budget):
    diffs = {label: abs(computed[label] - printed) for label, printed in reference.items()}
    beyond_ulp = [label for label, d in diffs.items() if d >= ONE_ULP]
    failures = sorted(
        (label for label, d in diffs.items() if d > TOL_PRINT),
        key=lambda l: -diffs[l],
    )
    ok = not failures and elapsed < budget
    detail = ""
    if failures:
        known = [l for l in failures if l in MISROUNDED]
        detail = (
            f"{len(failures)} of {len(reference)} entries beyond 5e-5; "
            f"known one-ulp misprints: {', '.join(known)}"
        )
    _report(number, name, ok, detail)
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
    assert not beyond_ulp, (
        "entries deviate beyond one printed ulp (implementation defect): "
        + ", ".join(f"{l}: computed {computed[l]:.10f} vs published {reference[l]}" for l in beyond_ulp)
    )
    lines = []
    for label in failures:
        note = ""
        if label in MISROUNDED:
            note = f" [published digit misrounded; high-precision value {MISROUNDED[label][1]}]"
        lines.append(
            f"  {label}: computed {computed[label]:.10f}, published {reference[label]}, "
            f"diff {diffs[label]:.2e}{note}"
        )
    assert not failures, (
        f"{len(failures)} entries differ from the published table by more than 5e-5 "
        f"(all within one printed ulp):\n" + "\n".join(lines)
    )


def test_criterion_1_table1_reproduction():
    _clear_solver_caches()
    t0 = time.perf_counter()
    computed = computed_table1()
    elapsed = time.perf_counter() - t0
    _table_criterion(1, "table 1 reproduction", TABLE1, computed, elapsed, 5.0)


def test_criterion_2_table2_reproduction():
    _clear_solver_caches()
    t0 = time.perf_counter()
    computed = computed_table2()
    elapsed = time.perf_counter() - t0
    _table_criterion(2, "table 2 reproduction", TABLE2, computed, elapsed, 1.0)


def test_criterion_3_table4_reproduction():
    _clear_solver_caches()
    t0 = time.perf_counter()
    computed = computed_table4()
    elapsed = time.perf_counter() - t0
    _table_criterion(3, "table 4 reproduction", TABLE4, computed, elapsed, 1.0)


def test_criterion_4_table5_reproduction():
    _clear_solver_caches()
    t0 = time.perf_counter()
    computed = computed_table5()
    elapsed = time.perf_counter() - t0
    _table_criterion(4, "table 5 reproduction", TABLE5, computed, elapsed, 5.0)


def test_criterion_5_stopping_examples():
    identity = PayoffSpec(h=polynomial_payoff(0.0, 1.0), h0=0.0)  # x
    sol1 = expected_payoff(identity)
    ok1 = (
        abs(sol1.kappa - (math.sqrt(2) - 1)) < 1e-5
        and abs(sol1.expected_payoff - 0.62678) < 1e-5
    )
    # x below 1/2 and 7x from 1/2 on
    jump = PayoffSpec(h=PiecewisePayoff((0.0, 0.5, 1.0), ((0.0, 1.0), (0.0, 7.0))), h0=0.0)
    sol2 = expected_payoff(jump)
    ok2 = (
        abs(sol2.kappa - 0.5) < 1e-9
        and abs(sol2.expected_payoff - 21.0 * math.exp(0.5) / 8.0) < 1e-9
    )
    _report(5, "stopping-kernel examples", ok1 and ok2)
    assert abs(sol1.kappa - (math.sqrt(2) - 1)) < 1e-5
    assert abs(sol1.expected_payoff - 0.62678) < 1e-5
    assert abs(sol2.kappa - 0.5) < 1e-9
    assert abs(sol2.expected_payoff - 21.0 * math.exp(0.5) / 8.0) < 1e-9


def test_criterion_6_coalition_constants():
    _clear_solver_caches()
    t0 = time.perf_counter()
    c12 = seq.coalition_12()
    c13 = seq.coalition_13()
    elapsed = time.perf_counter() - t0
    checks = [
        abs(c12.first_threshold - 0.63386) < 1e-4,
        abs(c12.victim_win_prob - 0.3867) < 5e-4,
        abs(c13.first_threshold - 0.75017) < 1e-4,
        abs(c13.victim_win_prob - 0.32262) < 5e-5,
        elapsed < 30.0,
    ]
    _report(6, "coalition constants", all(checks), f"runtime {elapsed:.2f}s")
    assert abs(c12.first_threshold - 0.63386) < 1e-4
    assert abs(c12.victim_win_prob - 0.3867) < 5e-4
    assert abs(c13.first_threshold - 0.75017) < 1e-4
    assert abs(c13.victim_win_prob - 0.32262) < 5e-5
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"


def test_criterion_7_nash_fixed_points():
    gaps = []
    for n in range(2, 11):
        a = sim.alpha(n)
        gaps.append(abs(sim.best_response(Variant.EXTERNAL, 0, (a,) * (n - 1)) - a))
        g = sim.gamma(n)
        gaps.append(abs(sim.best_response(Variant.ZERO_SUM, 0, (g,) * (n - 1)) - g))
        eps, delta = sim.epsilon_delta(n)
        gap_adv = abs(
            sim.best_response(Variant.ADVANTAGED, n - 1, (eps,) * (n - 1)) - delta
        )
        gap_normal = abs(
            sim.best_response(Variant.ADVANTAGED, 0, (eps,) * (n - 2) + (delta,)) - eps
        )
        gaps.append(max(gap_adv, gap_normal))
    worst = max(gaps)
    ok = len(gaps) == 27 and worst < 1e-6
    _report(7, "Nash fixed-point suite", ok, f"27 checks, worst gap {worst:.2e}")
    assert len(gaps) == 27
    assert worst < 1e-6


def _sim_check(mode, variant, profile, refs, tie_ref, seed):
    """Run one million seeded games and require 4-sigma agreement throughout."""
    config = SimConfig(trials=1_000_000, seed=seed, chunk_count=8)
    report = run(mode, variant, profile, config)
    for est, ref in zip(report.win_rates, refs):
        assert abs(est - ref) <= 4 * report.stderr(ref), (mode, variant, seed, est, ref)
    if tie_ref is not None:
        assert abs(report.tie_rate - tie_ref) <= 4 * report.stderr(tie_ref) + 1e-12
    return report


def test_criterion_8_simulator_oracle():
    t0 = time.perf_counter()
    configs = 0

    # sequential games under the optimal policy
    for n, seed in ((2, 101), (3, 102), (5, 103)):
        eq = seq.win_matrix(n)
        _sim_check(
            "sequential",
            Variant.EXTERNAL,
            StrategyProfile.sequential_optimal(n),
            eq.win_probs,
            0.0,
            seed,
        )
        configs += 1

    # no-information variants at their equilibria
    for n, seed in ((2, 104), (3, 105)):
        eq = sim.equilibrium(Variant.EXTERNAL, n)
        _sim_check(
            "simultaneous",
            Variant.EXTERNAL,
            StrategyProfile.fixed(eq.thresholds),
            eq.win_probs,
            eq.tie_prob,
            seed,
        )
        configs += 1
    for n, seed in ((2, 106), (4, 107)):
        eq = sim.equilibrium(Variant.ZERO_SUM, n)
        _sim_check(
            "simultaneous",
            Variant.ZERO_SUM,
            StrategyProfile.fixed(eq.thresholds),
            eq.win_probs,
            eq.tie_prob,
            seed,
        )
        configs += 1
    for n, seed in ((2, 108), (3, 109)):
        eq = sim.equilibrium(Variant.ADVANTAGED, n)
        _sim_check(
            "simultaneous",
            Variant.ADVANTAGED,
            StrategyProfile.fixed(eq.thresholds),
            eq.win_probs,  # the advantaged entry already includes the converted tie
            None,
            seed,
        )
        configs += 1

    # bit-exact determinism under a fixed seed
    eq = sim.equilibrium(Variant.EXTERNAL, 2)
    profile = StrategyProfile.fixed(eq.thresholds)
    config = SimConfig(trials=1_000_000, seed=104, chunk_count=8)
    first = run("simultaneous", Variant.EXTERNAL, profile, config)
    second = run("simultaneous", Variant.EXTERNAL, profile, config)
    elapsed = time.perf_counter() - t0

    ok = configs >= 8 and first == second and elapsed < 60.0
    _report(
        8,
        "simulator oracle suite",
        ok,
        f"{configs} configs x 1e6 trials in {elapsed:.1f}s",
    )
    assert configs >= 8
    assert first == second
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s"


def test_criterion_9_property_suites():
    failures = []

    # exp-polynomial integrals, exact in 50 digits, against adaptive quadrature
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(40):
        n_terms = int(rng.integers(1, 7))
        terms = {}
        for _ in range(n_terms):
            j, k = int(rng.integers(0, 11)), int(rng.integers(0, 11))
            terms[(j, k)] = terms.get((j, k), 0.0) + float(rng.uniform(-1, 1))
        p = {key: mp_reference.mp.mpf(c) for key, c in terms.items()}
        exact = float(mp_reference.integral(p, 0.0, 1.0))
        quad = integrate_adaptive(mp_reference.to_float(p), 0.0, 1.0, 1e-12)
        worst = max(worst, abs(exact - quad))
    exact = float(mp_reference.integral(mp_reference.bust_pow(3), 0.3, 1.0))
    quad = integrate_adaptive(lambda x: bust_prob(x) ** 3, 0.3, 1.0, 1e-12)
    worst = max(worst, abs(exact - quad))
    if worst > 1e-10:
        failures.append(f"exp-poly vs quadrature worst diff {worst:.2e}")

    # probability closure over 200 random profiles
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        out = sim.win_probabilities(tuple(rng.uniform(0, 1, n)))
        worst = max(worst, abs(sum(out.win_probs) + out.tie_prob - 1.0))
    if worst > 1e-10:
        failures.append(f"profile closure worst residual {worst:.2e}")

    # two-player symmetry identity on a 21x21 grid
    worst = 0.0
    for i in range(21):
        for j in range(21):
            x, y = i / 20, j / 20
            total = sim.two_player_win(x, y) + sim.two_player_win(y, x)
            worst = max(worst, abs(total - (1 - bust_prob(x) * bust_prob(y))))
    if worst > 1e-10:
        failures.append(f"two-player symmetry worst residual {worst:.2e}")

    # sequential row sums
    worst = max(abs(sum(seq.win_matrix(n).win_probs) - 1.0) for n in range(2, 11))
    if worst > 1e-9:
        failures.append(f"sequential row-sum worst residual {worst:.2e}")

    # threshold monotonicity
    thetas = [seq.theta(n) for n in range(1, 13)]
    alphas = [sim.alpha(n) for n in range(2, 11)]
    gammas = [sim.gamma(n) for n in range(2, 11)]
    for name, vals in (("theta", thetas), ("alpha", alphas), ("gamma", gammas)):
        if not all(b > a for a, b in zip(vals, vals[1:])):
            failures.append(f"{name} sequence not strictly increasing")

    # deviating above the two-player equilibrium hurts the deviator's rival
    a2 = sim.alpha(2)
    base = sim.two_player_win(a2, a2)
    ys = np.linspace(a2 + 0.005, 0.74, 60)
    if not all(sim.two_player_win(a2, float(y)) < base for y in ys):
        failures.append("two-player deviation inequality violated")

    # zero-sum guarantee surface on a 51x51 grid
    g3 = sim.gamma(3)
    low = min(
        sim.payoff_map(Variant.ZERO_SUM, sim.win_probabilities((g3, i / 50, j / 50)))[0]
        for i in range(51)
        for j in range(51)
    )
    if low < -1e-9:
        failures.append(f"zero-sum guarantee violated: min payoff {low:.2e}")

    _report(9, "property suites", not failures, "; ".join(failures))
    assert not failures, failures
