"""Brute-force oracle for the paper's placement MILP (Eq. 8–13).

Seeded instances of every shape up to 4 jobs and 3 regions are small enough
to enumerate every one-hot assignment.  The hard form (Eq. 8–11) admits an
assignment iff every region's server demand fits its capacity and every
job's latency ratio is within its tolerance, and costs the sum of its
placement costs.  The soft form (Eq. 12–13) keeps only the capacity rows and
adds ``σ · max(0, ratio − tol)`` per job.  The form
:func:`~repro.core.objective.build_placement_form` builds, solved through each
backend, must reach the enumerated minimum — or every backend must report
the instance infeasible.  The decision controller's hard → soft → greedy
ladder (Algorithm 1) must pick the enumerated optimum of the first form that
has one.
"""

import itertools

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.decision import DecisionController
from repro.core.objective import build_placement_form
from repro.milp import SolveStatus, solve_standard_form

_SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 4)]
_SEEDS = range(8)
_SOLVERS = ["auto", "native", "scipy"]


def _instance(m, n, seed):
    """``((cost, latency ratio, tolerance, servers, capacity), home)``.

    As in the simulator, a job's home region costs it no transfer, so its
    latency ratio there is zero.
    """
    rng = np.random.default_rng([m, n, seed])
    cost = rng.uniform(0.1, 2.0, (m, n))
    latency_ratio = rng.uniform(0.0, 1.0, (m, n))
    home = rng.integers(0, n, m)
    latency_ratio[np.arange(m), home] = 0.0
    tolerance = rng.uniform(0.0, 0.8, m)
    servers = rng.integers(1, 4, m)
    capacity = rng.integers(1, 8, n)
    return (cost, latency_ratio, tolerance, servers, capacity), home


def _all_instances():
    for m, n in _SHAPES:
        for seed in _SEEDS:
            yield (m, n, seed), *_instance(m, n, seed)


def _assignment_value(regions, instance, soft, penalty_weight):
    """Objective of the one-hot assignment ``regions``; ``None`` if infeasible."""
    cost, latency_ratio, tolerance, servers, capacity = instance
    jobs = np.arange(len(regions))
    demand = np.bincount(regions, weights=servers, minlength=len(capacity))
    if np.any(demand > capacity):
        return None
    ratio = latency_ratio[jobs, regions]
    value = float(cost[jobs, regions].sum())
    if soft:
        return value + penalty_weight * float(np.maximum(0.0, ratio - tolerance).sum())
    if np.any(ratio > tolerance):
        return None
    return value


def _enumerated_minimum(instance, soft, penalty_weight):
    m, n = instance[0].shape
    values = [
        _assignment_value(np.array(regions), instance, soft, penalty_weight)
        for regions in itertools.product(range(n), repeat=m)
    ]
    feasible = [value for value in values if value is not None]
    return min(feasible) if feasible else None


def _greedy(instance, home):
    """The controller's documented fallback: each job, in order, takes its
    cheapest region that still has room, or its home region when none has."""
    cost, _latency_ratio, _tolerance, servers, capacity = instance
    remaining = [int(v) for v in capacity]
    regions = []
    for job, need in enumerate(servers.tolist()):
        roomy = [r for r in sorted(range(len(remaining)), key=lambda r: cost[job, r])
                 if remaining[r] >= need]
        region = roomy[0] if roomy else int(home[job])
        remaining[region] -= need
        regions.append(region)
    return regions


def test_instances_cover_both_verdicts_and_penalized_optima():
    # The oracle below is only as strong as its instances: they must include
    # feasible and infeasible hard and soft forms, and soft optima that pay a
    # delay penalty to beat (or replace) the hard optimum.
    sigma = WaterWiseConfig().penalty_weight
    counts = dict(hard=0, hard_infeasible=0, soft=0, soft_infeasible=0, penalized=0)
    for _key, instance, _home in _all_instances():
        hard = _enumerated_minimum(instance, False, sigma)
        soft = _enumerated_minimum(instance, True, sigma)
        counts["hard" if hard is not None else "hard_infeasible"] += 1
        counts["soft" if soft is not None else "soft_infeasible"] += 1
        counts["penalized"] += soft is not None and (hard is None or soft < hard)
    assert counts["hard"] >= 40 and counts["soft"] >= 40, counts
    assert counts["hard_infeasible"] >= 10 and counts["soft_infeasible"] >= 10, counts
    assert counts["penalized"] >= 5, counts


@pytest.mark.parametrize("shape", _SHAPES, ids=[f"{m}x{n}" for m, n in _SHAPES])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
@pytest.mark.parametrize("solver", _SOLVERS)
def test_solvers_reach_the_enumerated_minimum(solver, soft, shape):
    if solver == "scipy":
        pytest.importorskip("scipy")
    config = WaterWiseConfig()
    m, n = shape
    for seed in _SEEDS:
        instance, _home = _instance(m, n, seed)
        best = _enumerated_minimum(instance, soft, config.penalty_weight)
        form = build_placement_form(*instance, config, soft=soft)
        status, x, objective, _iterations, _nodes, used, _seconds = solve_standard_form(
            form, solver=solver
        )
        if solver == "auto":
            assert used == "structured", seed
        if best is None:
            assert status is SolveStatus.INFEASIBLE, seed
            continue
        assert status is SolveStatus.OPTIMAL, seed
        assert objective == pytest.approx(best, rel=1e-9), seed
        # The returned placements themselves reach the minimum.
        regions = x[: m * n].reshape(m, n).argmax(axis=1)
        value = _assignment_value(regions, instance, soft, config.penalty_weight)
        assert value == pytest.approx(best, rel=1e-9), seed


@pytest.mark.parametrize("mode", ["ladder", "forced-soft", "hard-only"])
@pytest.mark.parametrize("solver", _SOLVERS)
def test_controller_ladder_picks_the_enumerated_optimum(solver, mode):
    # One controller decides every instance in turn, so its solver session
    # carries warm-start bases across rounds of different shapes, as it does
    # in a simulation.
    if solver == "scipy":
        pytest.importorskip("scipy")
    config = WaterWiseConfig(solver=solver, use_soft_constraints=mode != "hard-only")
    controller = DecisionController(config)
    sigma = config.penalty_weight
    paths = dict(hard=0, soft=0, fallback=0)
    for key, instance, home in _all_instances():
        hard_best = _enumerated_minimum(instance, False, sigma)
        soft_best = _enumerated_minimum(instance, True, sigma)
        codes, used_soft, used_fallback, objective = controller.decide_arrays(
            *instance, home, force_soft=mode == "forced-soft"
        )
        if mode != "forced-soft" and hard_best is not None:
            path, best = "hard", hard_best
        elif mode != "hard-only" and soft_best is not None:
            path, best = "soft", soft_best
        else:
            path, best = "fallback", None
        paths[path] += 1
        assert (used_soft, used_fallback) == (path != "hard", path == "fallback"), key
        if best is None:
            assert objective is None, key
            assert codes.tolist() == _greedy(instance, home), key
            continue
        assert objective == pytest.approx(best, rel=1e-9), key
        value = _assignment_value(codes, instance, path == "soft", sigma)
        assert value == pytest.approx(best, rel=1e-9), key
    assert controller.rounds_solved == paths["hard"] + paths["soft"]
    assert controller.rounds_softened == paths["soft"]
    assert controller.rounds_fallback == paths["fallback"]
    # Every path this mode can take was taken.
    reachable = {"ladder": ("hard", "soft", "fallback"),
                 "forced-soft": ("soft", "fallback"),
                 "hard-only": ("hard", "fallback")}[mode]
    assert all(paths[path] > 0 for path in reachable), paths
