"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line with the key
measured numbers before asserting.
"""

import math
import time

import numpy as np
import pytest

from localflow import (DirectedGraph, EdgeCost, FlowProblem, ObjectiveBundle,
                       PerturbationSpec, TunerFamily, WeightedWalk,
                       ball_subgraph, bias_variance, budget_for, generate,
                       geodesic_distance, induced_vertex_set,
                       interlacing_bound, measure_decay, pgd_step,
                       point_to_set, pseudoinverse, radius_max,
                       sensitivity_operator, set_to_point, solve_exact, tune,
                       warm_start_reoptimize)
from conftest import (logcosh_bundle, neighbors, quadratic_problem,
                      random_balanced, random_connected_graph, triangle)
from oracles import (RestrictedLaplacian, boundary_sensitivity_check,
                     gaussian_identity_check, green_difference, incidence,
                     is_aperiodic, killed_green, killed_green_series,
                     restricted_vs_full, series_apply)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("[%s] criterion %d: %s%s"
          % (status, num, label, (" (%s)" % detail) if detail else ""))
    assert ok, "criterion %d failed: %s %s" % (num, label, detail)


def mixed_bundle(rng, n_edges):
    costs = []
    for _ in range(n_edges):
        if rng.random() < 0.5:
            costs.append(EdgeCost("quadratic", a=float(rng.uniform(0.5, 2.0))))
        else:
            costs.append(EdgeCost("log-cosh", a=float(rng.uniform(0.4, 1.0)),
                                  s=float(rng.uniform(1.0, 2.0))))
    return ObjectiveBundle(costs)


def test_criterion_1_sensitivity_vs_finite_differences():
    start = time.monotonic()
    worst_rel = 0.0
    shrink_ok = True
    informative = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 41))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(3, 12)))
        problem = FlowProblem(g, mixed_bundle(rng, g.n_edges),
                              random_balanced(rng, n, scale=1.5))
        # a large perturbation direction makes the h^2 truncation error
        # of the central difference visible above the solver noise floor
        p = random_balanced(rng, n, scale=30.0)
        analytic = sensitivity_operator(problem).apply(p)
        scale = max(1.0, float(np.abs(analytic).max()))
        errs = {}
        for h in (1e-4, 1e-5):
            plus = solve_exact(problem.with_b(problem.b + h * p), tol=1e-13)
            minus = solve_exact(problem.with_b(problem.b - h * p), tol=1e-13)
            fd = (plus - minus) / (2.0 * h)
            errs[h] = float(np.abs(analytic - fd).max()) / scale
        worst_rel = max(worst_rel, errs[1e-5])
        # order-2 shrinkage: shrinking h by 10 should shrink the
        # truncation error by ~100; allow 20x plus an absolute noise
        # floor from the solver tolerance
        if errs[1e-4] > 1e-7:
            informative += 1
            if errs[1e-5] > 0.05 * errs[1e-4] + 1e-9:
                shrink_ok = False
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-3 and shrink_ok and informative >= 5 and elapsed < 60
    report(1, "sensitivity matches central finite differences", ok,
           "worst rel err %.2e at h=1e-5, %d instances with measurable "
           "h^2 error, %.1fs" % (worst_rel, informative, elapsed))


def test_criterion_2_killed_walk_identity_suite():
    start = time.monotonic()
    worst_restricted = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(5, 31))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 10)))
        walk = WeightedWalk(g, rng.uniform(0.2, 2.5, g.n_edges))
        Lp = walk.pinv()
        for kill in range(walk.n):
            rl = RestrictedLaplacian(walk, kill)
            worst_restricted = max(worst_restricted,
                                   restricted_vs_full(rl, Lp))
    worst_series = 0.0
    worst_green = 0.0
    rng = np.random.default_rng(4242)
    done = 0
    while done < 10:
        g = random_connected_graph(rng, 12, extra_edges=8)
        walk = WeightedWalk(g, rng.uniform(0.4, 1.8, g.n_edges))
        rl = RestrictedLaplacian(walk, 0)
        G, _ = killed_green_series(rl)
        worst_series = max(worst_series,
                           float(np.abs(killed_green(rl) - G).max()))
        if is_aperiodic(walk):
            u, v, w, z = rng.choice(walk.n, size=4, replace=False)
            exact = green_difference(walk, u, v, w, z)
            series, _ = green_difference(walk, u, v, w, z, form="series")
            worst_green = max(worst_green, abs(exact - series))
            done += 1
    tri = green_difference(WeightedWalk(triangle(), np.ones(3)),
                           "1", "2", "1", "2")
    tri_dev = abs(tri - 2.0 / 3.0)
    elapsed = time.monotonic() - start
    ok = (worst_restricted <= 1e-9 and worst_series <= 1e-8
          and worst_green <= 1e-8 and tri_dev <= 1e-10 and elapsed < 60)
    report(2, "killed-walk Green's function identities", ok,
           "restricted dev %.1e, series dev %.1e, difference dev %.1e, "
           "triangle dev %.1e, %.1fs"
           % (worst_restricted, worst_series, worst_green, tri_dev, elapsed))


def test_criterion_3_dual_formula_equivalence():
    worst = 0.0
    done = 0
    seed = 0
    while done < 10:
        seed += 1
        g = generate("random-k-regular", n=60, k=3, seed=seed)
        rng = np.random.default_rng(900 + seed)
        costs = [EdgeCost("quadratic", a=float(rng.uniform(0.5, 2.0)))
                 for _ in range(g.n_edges)]
        problem = FlowProblem(g, ObjectiveBundle(costs),
                              random_balanced(rng, g.n_vertices))
        op = sensitivity_operator(problem)
        if not is_aperiodic(op.walk):
            continue
        done += 1
        p = random_balanced(rng, g.n_vertices)
        worst = max(worst,
                    float(np.abs(op.apply(p) - series_apply(op, p)).max()))
    ok = worst <= 1e-8
    report(3, "Laplacian form equals Green's-series form", ok,
           "worst dev %.1e over 10 expanders" % worst)


def test_criterion_4_decay_bound_and_slope(expander200):
    start = time.monotonic()
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    dist0 = g.bfs_distances([0])
    far = int(dist0.argmax())
    p = np.zeros(g.n_vertices)
    p[0], p[far] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    full = measure_decay(problem, pert, [[k] for k in range(g.n_edges)])
    violations = sum(1 for row in full.rows
                     if row.measured > row.bound + 1e-9)
    ds = np.array([row.distance for row in full.rows], dtype=float)
    ms = np.array([row.measured for row in full.rows])
    keep = ms > 0
    slope = float(np.polyfit(ds[keep], np.log(ms[keep]), 1)[0])
    lam = full.lam
    elapsed = time.monotonic() - start
    ok = (violations == 0 and slope <= math.log(lam) + 0.05
          and elapsed < 120)
    report(4, "expander decay-of-correlation bound", ok,
           "%d/%d bound violations, fit slope %.3f vs log(lambda)+0.05 = "
           "%.3f, %.1fs"
           % (violations, len(full.rows), slope,
              math.log(lam) + 0.05, elapsed))


def test_criterion_5_set_to_point_and_point_to_set(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    rng = np.random.default_rng(55)
    stp_viol = ptp_viol = 0
    for _ in range(50):
        e = int(rng.integers(0, g.n_edges))
        F = [int(k) for k in rng.choice(g.n_edges, size=5, replace=False)]
        m, b = set_to_point(problem, e, F)
        if m > b + 1e-9:
            stp_viol += 1
        m, b = point_to_set(problem, e, F)
        if m > b + 1e-9:
            ptp_viol += 1
    # |F|-independence: doubling F with a disjoint edge at the same
    # distance leaves the set-to-point bound unchanged
    e = 0
    V_e = induced_vertex_set(g, [e])
    by_dist = {}
    for k in range(g.n_edges):
        d = geodesic_distance(g, induced_vertex_set(g, [k]), V_e)
        by_dist.setdefault(d, []).append(k)
    target = next(d for d in sorted(by_dist)
                  if d >= 2 and len(by_dist[d]) >= 2)
    f1 = by_dist[target][0]
    f2 = next(k for k in by_dist[target][1:]
              if not (induced_vertex_set(g, [k]) & induced_vertex_set(g, [f1])))
    _, b1 = set_to_point(problem, e, [f1])
    _, b2 = set_to_point(problem, e, [f1, f2])
    size_free = abs(b1 - b2) <= 1e-12
    ok = stp_viol == 0 and ptp_viol == 0 and size_free
    report(5, "set-to-point and point-to-set decay bounds", ok,
           "violations %d/%d and %d/%d, bound |F|-independent: %s"
           % (stp_viol, 50, ptp_viol, 50, size_free))


def test_criterion_6_interlacing():
    violations = 0
    graphs = [generate("random-k-regular", n=100, k=3, seed=s)
              for s in (13, 29)]
    # subgraph = whole graph keeps every weighted degree at least
    # w_minus * k_minus, the hypothesis the bound's proof needs; a narrow
    # weight band keeps the bound below 1 so the check is not vacuous
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        g = graphs[seed % len(graphs)]
        w_minus, w_plus = 1.0, 1.02
        walk = WeightedWalk(g, rng.uniform(w_minus, w_plus, g.n_edges))
        lam_prime, bound, _ = interlacing_bound(g, walk, w_minus, w_plus)
        if lam_prime > bound + 1e-10:
            violations += 1
        assert bound < 1.0
    gk4 = generate("complete", n=4)
    lam_prime, bound, _ = interlacing_bound(
        gk4, WeightedWalk(gk4, np.ones(6)), 1.0, 1.0)
    k4_dev = abs(lam_prime - 1.0 / 3.0)
    equality = abs(bound - 1.0 / 3.0) <= 1e-12 and k4_dev <= 1e-10
    ok = violations == 0 and equality
    report(6, "eigenvalue interlacing bound", ok,
           "%d/100 violations, K4 equality dev %.1e" % (violations, k4_dev))


def test_criterion_7_bias_variance_budget(expander200):
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    budget = budget_for(problem)
    assert budget.valid
    p = np.zeros(g.n_vertices)
    p[0], p[neighbors(g)[0][0]] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    p_norm = float(np.linalg.norm(p))
    x_star = solve_exact(problem)
    x_pert = solve_exact(problem.with_b(problem.b + p))
    bias_viol = var_viol = id_viol = off_viol = 0
    from localflow import LocalizedSolver
    for r in range(1, 7):
        sub = ball_subgraph(g, g.vertices[0], r)
        local = LocalizedSolver(problem, sub)
        b_target = problem.b + p
        limit = local.restricted_optimum(x_star, b_target)
        bias = x_pert - limit
        dist = geodesic_distance(g, sub.boundary, pert.support) \
            if sub.boundary else 0
        if np.linalg.norm(bias) > budget.bias_bound(
                p_norm, dist, sub.is_whole_graph) + 1e-9:
            bias_viol += 1
        outside = np.setdiff1d(np.arange(g.n_edges), sub.e_in)
        x = x_star.copy()
        for t in range(1, 101):
            x = local.step(x, b_target)
            variance = limit - x
            if np.linalg.norm(variance) > \
                    budget.variance_bound(p_norm, t) + 1e-9:
                var_viol += 1
            if len(outside) and np.abs(variance[outside]).max() > 0.0:
                off_viol += 1
            error = x_pert - x
            if np.abs(error - (bias + variance)).max() > 1e-12:
                id_viol += 1
    ok = bias_viol == 0 and var_viol == 0 and id_viol == 0 and off_viol == 0
    report(7, "localized-algorithm bias/variance budget", ok,
           "bias violations %d, variance violations %d, identity "
           "violations %d, off-subgraph variance violations %d"
           % (bias_viol, var_viol, id_viol, off_viol))


def test_criterion_8_pgd_rate():
    rate_ok = True
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(6, 20))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(2, 8)))
        problem = FlowProblem(g, logcosh_bundle(rng, g.n_edges),
                              random_balanced(rng, n))
        # tight reference optimum so the measured error does not floor
        # at the default solve tolerance
        x_star = solve_exact(problem, tol=1e-13)
        Q = problem.bundle.Q
        A = incidence(problem.graph)
        x = A.T @ (pseudoinverse(A @ A.T) @ problem.b)
        err0 = np.linalg.norm(x - x_star)
        for t in range(1, 201):
            x = pgd_step(problem, x)
            if np.linalg.norm(x - x_star) > \
                    math.exp(-t / (2.0 * Q)) * err0 + 1e-12:
                rate_ok = False
    # isotropic quadratic: one projected-gradient step is exact
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 15, extra_edges=8)
    problem = quadratic_problem(g, random_balanced(rng, 15))
    A = incidence(problem.graph)
    x0 = A.T @ (pseudoinverse(A @ A.T) @ problem.b) \
        + (np.eye(g.n_edges) - A.T @ (pseudoinverse(A @ A.T) @ A)) \
        @ rng.standard_normal(g.n_edges)
    one_step = float(np.abs(pgd_step(problem, x0)
                            - solve_exact(problem)).max())
    ok = rate_ok and one_step <= 1e-9
    report(8, "projected gradient contraction rate", ok,
           "rate bound held on 20 instances: %s, isotropic one-step dev "
           "%.1e" % (rate_ok, one_step))


def test_criterion_9_tuner_end_to_end(expander200):
    from localflow import adjacency_slem
    g = expander200
    problem = quadratic_problem(g, np.zeros(g.n_vertices))
    p = np.zeros(g.n_vertices)
    p[0], p[neighbors(g)[0][0]] = 1.0, -1.0
    pert = PerturbationSpec(g, p)
    p_norm = float(np.linalg.norm(p))
    mu = adjacency_slem(g)
    family = TunerFamily(Q=1.0, k=3, mu=mu, z=1, p_norm=p_norm)
    x_pert = solve_exact(problem.with_b(problem.b + p))
    rmax = radius_max(g, g.vertices[0])
    ok = True
    details = []
    for eps in (1e-2, 1e-3):
        result = tune(family, eps)
        # closed-form recomputation
        rho = family.Q - 1.0 + family.Q * mu / family.k
        c = math.sqrt(2.0) * family.Q / math.sqrt(family.k)
        gamma = c * (1.0 + c * math.sqrt(family.k - 1))
        nu_bias = p_norm * gamma / ((1.0 - rho) ** 2 * rho)
        nu_var = p_norm * c / (1.0 - rho)
        r_formula = max(1, math.ceil(math.log(2 * nu_bias / eps)
                                     / math.log(1.0 / rho)))
        t_formula = max(1, math.ceil(2.0 * family.Q
                                     * math.log(2 * nu_var / eps)))
        if (result.r, result.t) != (r_formula, t_formula):
            ok = False
        sub = ball_subgraph(g, g.vertices[0], min(result.r, rmax))
        out = warm_start_reoptimize(problem, pert, sub, result.t)
        err = float(np.linalg.norm(out - x_pert))
        details.append("eps=%g: r=%d t=%d err=%.2e" %
                       (eps, result.r, result.t, err))
        if err > eps:
            ok = False
    report(9, "tuned warm-start reoptimization meets accuracy target", ok,
           "; ".join(details))


def test_criterion_10_gaussian_analogy_identities():
    rng = np.random.default_rng(1)
    worst_g = worst_b = worst_fd = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        M = rng.standard_normal((n, n))
        Sigma = M @ M.T + n * np.eye(n)
        m = int(rng.integers(1, n))
        A = rng.standard_normal((m, n))
        worst_g = max(worst_g, gaussian_identity_check(Sigma, A))
        perm = rng.permutation(n)
        I_set = [int(v) for v in perm[: n // 2]]
        B_set = [int(v) for v in perm[n // 2:]]
        H = Sigma  # any SPD matrix works as a Hessian here
        block_dev, fd_dev = boundary_sensitivity_check(H, I_set, B_set)
        worst_b = max(worst_b, block_dev)
        worst_fd = max(worst_fd, fd_dev)
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    Sigma = np.linalg.inv(H)
    value = Sigma[0, 1] / Sigma[1, 1]
    hand_dev = abs(value - (-0.5))
    ok = (worst_g <= 1e-10 and worst_b <= 1e-10 and worst_fd <= 1e-4
          and hand_dev <= 1e-12)
    report(10, "Gaussian conditional-mean identities", ok,
           "worst conditional-mean dev %.1e, worst block dev %.1e, "
           "2x2 hand case dev %.1e" % (worst_g, worst_b, hand_dev))
