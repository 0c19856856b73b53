"""Max-min and proportional fairness: allocators and checkers."""

import itertools
import random

import numpy as np
import pytest

from multcp.fairness import (Network, MaxminVerdict, _nnls, check_maxmin,
                             check_weighted_pf, maxmin_allocate, wpf_allocate)

TRIANGLE = Network(
    capacities={"ab": 10.0, "bc": 10.0},
    routes=(("ab", "bc"), ("ab",), ("bc",)),
)


def test_network_validation():
    with pytest.raises(ValueError):
        Network(capacities={"l": 0.0}, routes=(("l",),))
    with pytest.raises(ValueError):
        Network(capacities={"l": 1.0}, routes=((),))
    with pytest.raises(ValueError):
        Network(capacities={"l": 1.0}, routes=(("m",),))
    with pytest.raises(ValueError, match="at least one connection"):
        Network(capacities={"l": 1.0}, routes=())


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_network_rejects_non_finite_capacity(cap):
    with pytest.raises(ValueError, match="positive finite capacity"):
        Network(capacities={"l": cap}, routes=(("l",),))


def test_network_queries():
    assert TRIANGLE.n_connections == 3
    assert TRIANGLE.users("ab") == [0, 1]
    assert TRIANGLE.route_cap(0) == 10.0
    assert TRIANGLE.loads([1, 2, 3]) == {"ab": 3.0, "bc": 4.0}
    assert TRIANGLE.is_feasible([5, 5, 5])
    assert not TRIANGLE.is_feasible([6, 5, 5])
    assert not TRIANGLE.is_feasible([-1, 0, 0])


def test_maxmin_single_link_splits_equally():
    net = Network(capacities={"l": 12.0}, routes=(("l",),) * 3)
    assert maxmin_allocate(net) == pytest.approx([4.0, 4.0, 4.0])


def test_maxmin_two_link_classic():
    # the long connection shares both links; 5 each, then the short
    # ones top up to the remaining capacity
    rates = maxmin_allocate(TRIANGLE)
    assert rates == pytest.approx([5.0, 5.0, 5.0])


def test_maxmin_uneven_capacities():
    net = Network(capacities={"thin": 2.0, "fat": 9.0},
                  routes=(("thin", "fat"), ("fat",)))
    rates = maxmin_allocate(net)
    # thin caps the long connection at 2; the rest of fat goes to conn 1
    assert rates == pytest.approx([2.0, 7.0])


def test_check_maxmin_accepts_the_allocator():
    for net in (TRIANGLE,
                Network(capacities={"l": 7.0}, routes=(("l",),) * 4)):
        verdict = check_maxmin(net, maxmin_allocate(net))
        assert verdict.passed
        assert verdict.method == "brute-force"


def test_check_maxmin_rejects_skewed_vector():
    verdict = check_maxmin(TRIANGLE, [1.0, 9.0, 9.0])
    assert not verdict.passed
    assert verdict.witness is not None


def test_check_maxmin_strict_reading_differs_on_equal_rates():
    net = Network(capacities={"l": 10.0}, routes=(("l",),) * 2)
    verdict = check_maxmin(net, [5.0, 5.0])
    assert verdict.passed
    assert verdict.passed_strict is False
    assert "strict" in verdict.detail


def test_check_maxmin_infeasible_fails_fast():
    verdict = check_maxmin(TRIANGLE, [20.0, 0.0, 0.0])
    assert not verdict.passed
    assert verdict.method == "feasibility"


def test_check_maxmin_large_instance_uses_bottleneck_rule():
    net = Network(capacities={f"l{i}": 10.0 for i in range(5)},
                  routes=tuple((f"l{i}",) for i in range(5)))
    verdict = check_maxmin(net, [10.0] * 5)
    assert verdict.passed
    assert verdict.method == "bottleneck"
    assert verdict.passed_strict is None
    # one full link, but the connection at rate 1 is not among its fastest
    shared = Network(capacities={"l": 10.0}, routes=(("l",),) * 5)
    verdict = check_maxmin(shared, [1.0, 2.0, 2.0, 2.0, 3.0])
    assert verdict.passed is False
    assert verdict.method == "bottleneck"


def reference_maxmin(network, rates):
    """check_maxmin on a small instance, one grid point at a time.

    This is the itertools loop that the one-pass numpy search replaced,
    kept as the reference it must match bit for bit.  The only change is
    the early exit once both witnesses are found, after which the loop
    could change nothing.
    """
    rates = [float(r) for r in rates]
    if not network.is_feasible(rates):
        return MaxminVerdict(False, False, "feasibility", None,
                             "rate vector is not feasible")
    n = network.n_connections
    scale = max(max(network.capacities.values()), 1.0)
    eps = 1e-9 * scale
    axes = [np.linspace(0.0, network.route_cap(i), 11) for i in range(n)]
    passed = True
    passed_strict = True
    witness = None
    witness_strict = None
    for y in itertools.product(*axes):
        if not passed and not passed_strict:
            break
        if not network.is_feasible(y):
            continue
        for r in range(n):
            if y[r] <= rates[r] + eps:
                continue
            pays = any(y[s] < rates[s] - eps and rates[s] <= rates[r] + eps
                       for s in range(n))
            pays_strict = any(y[s] < rates[s] - eps and rates[s] < rates[r] - eps
                              for s in range(n))
            if not pays and passed:
                passed = False
                witness = (tuple(y), r)
            if not pays_strict and passed_strict:
                passed_strict = False
                witness_strict = (tuple(y), r)
    detail = ""
    if passed and not passed_strict:
        detail = ("fails only the strict reading (no strictly smaller victim); "
                  "typical for equal-rate allocations")
    return MaxminVerdict(passed, passed_strict, "brute-force",
                         witness if witness is not None else witness_strict, detail)


def test_check_maxmin_matches_the_point_loop():
    # 300 random networks of 1-3 links and 1-4 connections, each with its
    # max-min optimum, that scaled by 0.9 and 0.5, a 5% transfer between
    # two connections (which may be infeasible) and the zero vector
    rng = random.Random(12)
    checked = failed = 0
    for _ in range(300):
        links = [f"l{i}" for i in range(rng.randint(1, 3))]
        caps = {name: rng.uniform(1.0, 100.0) for name in links}
        routes = tuple(tuple(rng.sample(links, rng.randint(1, len(links))))
                       for _ in range(rng.randint(1, 4)))
        net = Network(capacities=caps, routes=routes)
        best = maxmin_allocate(net)
        shifted = list(best)
        if len(best) > 1:
            i, j = rng.sample(range(len(best)), 2)
            shifted[i] -= 0.05 * best[i]
            shifted[j] += 0.05 * best[i]
        for rates in (best, [0.9 * x for x in best], [0.5 * x for x in best],
                      shifted, [0.0] * len(best)):
            got = check_maxmin(net, rates)
            want = reference_maxmin(net, rates)
            assert got == want, (caps, routes, rates)
            if got.witness is not None:
                assert [x.hex() for x in map(float, got.witness[0])] == \
                    [x.hex() for x in map(float, want.witness[0])]
            checked += 1
            failed += not got.passed
    assert checked == 1500 and 0 < failed < checked


def test_wpf_single_link_closed_form():
    net = Network(capacities={"l": 30.0}, routes=(("l",),) * 3)
    alloc = wpf_allocate(net, [1.0, 2.0, 3.0])
    assert alloc.method == "closed-form"
    assert alloc.converged
    assert alloc.rates == pytest.approx([5.0, 10.0, 15.0])


def test_wpf_zero_weight_gets_nothing():
    net = Network(capacities={"l": 10.0}, routes=(("l",),) * 2)
    alloc = wpf_allocate(net, [0.0, 4.0])
    assert alloc.rates == pytest.approx([0.0, 10.0])


def test_wpf_multi_link_known_optimum():
    # one long flow against two locals, equal weights: x0 = C/3, locals 2C/3
    alloc = wpf_allocate(TRIANGLE, [1.0, 1.0, 1.0])
    assert alloc.method == "dual-descent"
    assert alloc.converged
    assert alloc.kkt_residual <= 1e-6
    assert alloc.rates == pytest.approx([10 / 3, 20 / 3, 20 / 3], rel=1e-3)


def test_wpf_output_passes_pf_check():
    alloc = wpf_allocate(TRIANGLE, [2.0, 1.0, 1.0])
    verdict = check_weighted_pf(TRIANGLE, alloc.rates, [2.0, 1.0, 1.0])
    assert verdict.passed, verdict


def test_pf_check_rejects_maxmin_on_asymmetric_net():
    # equal split is not proportionally fair when routes differ in length
    rates = maxmin_allocate(TRIANGLE)
    verdict = check_weighted_pf(TRIANGLE, rates, [1.0] * 3)
    assert not verdict.passed
    assert verdict.worst_sum > 0


def test_pf_check_flags_infeasible_and_starved():
    assert not check_weighted_pf(TRIANGLE, [9, 9, 9], [1, 1, 1]).passed
    out = check_weighted_pf(TRIANGLE, [0.0, 5.0, 5.0], [1, 1, 1])
    assert not out.passed and "zero rate" in out.detail


def test_wpf_restarts_a_stalled_solve():
    # L-BFGS-B, the solver before the projected Newton method, stopped at a
    # KKT residual of 1.8e-6 on this network and needed a warm restart
    net = Network(capacities={"l0": 1.6463932040459577,
                              "l1": 11.324557036636554,
                              "l2": 89.19022939192499},
                  routes=(("l1",), ("l0",), ("l2",), ("l0", "l1", "l2")))
    alloc = wpf_allocate(net, [2.4789521990777565, 3.709034296521901,
                               6.364686090913879, 6.380761077452064])
    assert alloc.converged and alloc.kkt_residual <= 1e-6, alloc


def test_wpf_triangle_optimum_to_rounding():
    alloc = wpf_allocate(TRIANGLE, [1.0, 1.0, 1.0])
    assert alloc.converged
    assert alloc.rates == pytest.approx([10 / 3, 20 / 3, 20 / 3], rel=1e-12)


def test_wpf_fills_every_saturated_link():
    # the network of the FAIRNESS_ALLOCATE golden pin: all three links bind
    net = Network(capacities={"a": 10.0, "b": 6.0, "c": 4.0},
                  routes=(("a", "b"), ("a",), ("b", "c"), ("c",)))
    alloc = wpf_allocate(net, [3.0, 1.0, 2.0, 1.0])
    assert alloc.converged
    for name, load in net.loads(alloc.rates).items():
        assert load == pytest.approx(net.capacities[name], rel=1e-12)


@pytest.mark.parametrize("caps, routes, weights", [
    # l0 and l2 carry the same connections, so the incidence is rank-deficient
    ({"l0": 25.89995516157655, "l1": 16.598965643575486,
      "l2": 10.947762539455585},
     (("l0", "l1"), ("l0", "l2"), ("l0", "l2"), ("l0", "l2")),
     [7.973905104958563, 0.18239853218669128, 5.4661971867414945,
      8.255682063322933]),
    # L-BFGS-B reported this one as not converged at a residual of 2e-9
    ({"l0": 76.6733056822096, "l1": 70.240332871925, "l2": 16.76330351725771},
     (("l0", "l2"), ("l0", "l1"), ("l0", "l1"), ("l0", "l2")),
     [0.899409058257387, 7.769316406649126, 8.371752495203292,
      2.555102143776166]),
], ids=["rank-deficient", "flagged-by-lbfgsb"])
def test_wpf_converges_on_hard_networks(caps, routes, weights):
    alloc = wpf_allocate(Network(capacities=caps, routes=routes), weights)
    assert alloc.converged and alloc.kkt_residual <= 1e-12, alloc


def test_wpf_converges_on_a_seeded_sweep():
    # three links and four connections, drawn as the benchmark draws them
    rng = random.Random(21)
    links = ["l0", "l1", "l2"]
    for _ in range(600):
        caps = {name: rng.uniform(1.0, 100.0) for name in links}
        routes = tuple(tuple(sorted(rng.sample(links, rng.randint(1, 3))))
                       for _ in range(4))
        weights = [rng.uniform(0.1, 10.0) for _ in routes]
        alloc = wpf_allocate(Network(capacities=caps, routes=routes), weights)
        assert alloc.converged and alloc.kkt_residual <= 1e-7, \
            (caps, routes, weights, alloc)


def test_wpf_rejects_bad_weights():
    with pytest.raises(ValueError):
        wpf_allocate(TRIANGLE, [1.0, 1.0])
    with pytest.raises(ValueError):
        wpf_allocate(TRIANGLE, [-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        wpf_allocate(TRIANGLE, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_weights_are_rejected(bad):
    # a NaN weight used to be read as 0, and an infinite one gave NaN rates
    with pytest.raises(ValueError, match="finite and non-negative"):
        wpf_allocate(TRIANGLE, [bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite and non-negative"):
        check_weighted_pf(TRIANGLE, [5.0, 5.0, 5.0], [bad, 1.0, 1.0])


def test_wpf_price_interpretation_two_users():
    # doubling the weight doubles the share on a shared link
    net = Network(capacities={"l": 9.0}, routes=(("l",), ("l",)))
    alloc = wpf_allocate(net, [2.0, 1.0])
    assert alloc.rates[0] / alloc.rates[1] == pytest.approx(2.0, rel=1e-9)


def test_random_instances_satisfy_kkt():
    rng = np.random.default_rng(0)
    for _ in range(10):
        caps = {f"l{i}": float(rng.uniform(1, 20)) for i in range(3)}
        routes = []
        for _ in range(4):
            k = rng.integers(1, 4)
            routes.append(tuple(rng.choice(sorted(caps), size=k, replace=False)))
        net = Network(capacities=caps, routes=tuple(routes))
        w = rng.uniform(0.5, 4.0, size=4)
        alloc = wpf_allocate(net, w)
        assert alloc.kkt_residual <= 1e-5
        assert net.is_feasible(alloc.rates, tol=1e-6)


def test_converged_allocations_pass_the_pf_check():
    # random three-link, four-connection networks; the solver stops at a
    # small positive overload, which the PF check must accept
    rng = random.Random(0)
    links = ["l0", "l1", "l2"]
    converged = 0
    for _ in range(60):
        caps = {name: rng.uniform(1.0, 100.0) for name in links}
        routes = tuple(tuple(sorted(rng.sample(links, rng.randint(1, 3))))
                       for _ in range(4))
        net = Network(capacities=caps, routes=routes)
        weights = [rng.uniform(0.1, 10.0) for _ in routes]
        alloc = wpf_allocate(net, weights)
        if not alloc.converged:
            continue
        converged += 1
        verdict = check_weighted_pf(net, alloc.rates, weights)
        assert verdict.passed, (caps, routes, weights, verdict.detail)
    assert converged >= 50


def test_pf_check_still_accepts_samples():
    # bench/workloads.py passes samples=; the certificate ignores it
    alloc = wpf_allocate(TRIANGLE, [2.0, 1.0, 1.0])
    assert check_weighted_pf(TRIANGLE, alloc.rates, [2.0, 1.0, 1.0],
                             samples=1000).passed


def test_nnls_matches_every_active_set(monkeypatch):
    # the least-squares residual over each set of columns whose solution is
    # non-negative; the smallest is the non-negative optimum
    lstsq = np.linalg.lstsq
    stepped_back = []

    def spy(a, b, rcond=None):
        out = lstsq(a, b, rcond=rcond)
        # a negative trial is one _nnls steps back from
        stepped_back.append((out[0] < 0).any())
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.integers(0, 2, size=(3, 3)).astype(float)
        b = rng.uniform(0.1, 2.0, size=3)
        z = _nnls(a, b)
        best = np.linalg.norm(b)
        for cols in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in (1, 2, 3)):
            sub = lstsq(a[:, cols], b, rcond=None)[0]
            if (sub >= 0).all():
                best = min(best, np.linalg.norm(a[:, cols] @ sub - b))
        assert (z >= 0).all()
        assert np.linalg.norm(a @ z - b) == pytest.approx(best, abs=1e-12)
    assert any(stepped_back)


# -- the PF certificate against an exact linear program ---------------------

def exact_pf_gain(network, rates, weights):
    """max of sum_s w_s (y_s - x_s) / x_s over feasible y, and its y.

    A reference for small instances (up to 3 links and 4 connections): the
    objective is linear in y, so its maximum over the polytope
    {y >= 0, A y <= c} is attained at a vertex, and every vertex is the
    solution of n active constraints.
    """
    names = sorted(network.capacities)
    n = network.n_connections
    a = np.array([[name in route for route in network.routes] for name in names],
                 dtype=float)
    g = np.vstack([a, -np.eye(n)])
    h = np.concatenate([[network.capacities[name] for name in names], np.zeros(n)])
    x, w = np.asarray(rates, dtype=float), np.asarray(weights, dtype=float)
    c = np.divide(w, x, out=np.zeros(n), where=w > 0)
    best, best_y = -np.inf, None
    for rows in itertools.combinations(range(len(g)), n):
        sub = g[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        y = np.linalg.solve(sub, h[list(rows)])
        if (g @ y <= h + 1e-9).all() and c @ y > best:
            best, best_y = c @ y, y
    return best - w.sum(), best_y


def _pf_instances():
    """The seven max-min instances of acceptance criterion 6 and 150 seeded
    networks of 1-3 links and 1-4 connections, each with seeded weights."""
    nets = [Network(capacities={"a": 12.0}, routes=(("a",),) * k)
            for k in (2, 3, 4)]
    nets += [Network(capacities={"a": 10.0, "b": 6.0},
                     routes=(("a", "b"), ("a",), ("b",))),
             Network(capacities={"a": 8.0, "b": 5.0, "c": 9.0},
                     routes=(("a", "b", "c"), ("a",), ("b",), ("c",))),
             Network(capacities={"a": 4.0, "b": 16.0},
                     routes=(("a",), ("a", "b"), ("b",), ("b",))),
             Network(capacities={"a": 6.0, "b": 7.0, "c": 8.0},
                     routes=(("a", "b"), ("b", "c"), ("a", "c")))]
    rng = random.Random(22)
    for _ in range(150):
        links = [f"l{i}" for i in range(rng.randint(1, 3))]
        caps = {name: rng.uniform(1.0, 100.0) for name in links}
        routes = tuple(tuple(sorted(rng.sample(links, rng.randint(1, len(links)))))
                       for _ in range(rng.randint(1, 4)))
        nets.append(Network(capacities=caps, routes=routes))
    return rng, [(net, [rng.uniform(0.1, 10.0) for _ in net.routes])
                 for net in nets]


def test_pf_certificate_passes_optima_and_near_optima():
    _, instances = _pf_instances()
    for net, weights in instances:
        alloc = wpf_allocate(net, weights)
        assert alloc.converged
        gain, _ = exact_pf_gain(net, alloc.rates, weights)
        assert gain <= 1e-9, (net, weights, gain)
        # 1e-8 below capacity: the certificate measures against the loads
        for rates in (alloc.rates, [r * (1 - 1e-8) for r in alloc.rates]):
            verdict = check_weighted_pf(net, rates, weights)
            assert verdict.passed and verdict.worst_sum <= 1e-9, \
                (net, weights, rates, verdict)


def test_pf_certificate_bounds_the_exact_gain():
    # max-min allocations and random points on the capacity boundary; the
    # certificate must fail every point that the exact LP shows can gain
    rng, instances = _pf_instances()
    failed = 0
    for net, weights in instances:
        n = net.n_connections
        box = [net.route_cap(i) for i in range(n)]
        points = [maxmin_allocate(net)]
        for _ in range(4):
            y = [rng.uniform(0.1, 1.0) * b for b in box]
            loads = net.loads(y)
            points.append([r / max(loads[k] / c for k, c in net.capacities.items())
                           for r in y])
        for rates in points:
            gain, _ = exact_pf_gain(net, rates, weights)
            verdict = check_weighted_pf(net, rates, weights)
            if gain >= 1e-4:
                failed += 1
                assert not verdict.passed, (net, weights, rates, gain)
                assert verdict.worst_sum >= gain * (1 - 1e-9), \
                    (net, weights, rates, gain, verdict)
            elif verdict.passed:
                assert gain <= 1e-7, (net, weights, rates, gain)
    assert failed >= 500


def test_pf_certificate_on_links_that_carry_the_same_connections():
    # a and b carry connections 0 and 1 alike, so their price rows coincide
    net = Network(capacities={"a": 10.0, "b": 10.0, "c": 5.0},
                  routes=(("a", "b"), ("a", "b", "c"), ("c",)))
    weights = [1.0, 2.0, 3.0]
    alloc = wpf_allocate(net, weights)
    verdict = check_weighted_pf(net, alloc.rates, weights)
    assert verdict.passed and verdict.worst_sum <= 1e-9, verdict
    rates = maxmin_allocate(net)
    gain, _ = exact_pf_gain(net, rates, weights)
    verdict = check_weighted_pf(net, rates, weights)
    assert gain > 0.1 and not verdict.passed and verdict.worst_sum >= gain


def test_pf_certificate_ignores_a_weight_zero_connection():
    # connection 2 has weight 0: its rate, even one that fills link bc, and
    # its presence do not move the verdict
    without = Network(capacities={"ab": 10.0, "bc": 10.0},
                      routes=(("ab", "bc"), ("ab",)))
    alloc = wpf_allocate(without, [2.0, 1.0])
    assert alloc.rates == pytest.approx([20 / 3, 10 / 3], rel=1e-12)
    alone = check_weighted_pf(without, alloc.rates, [2.0, 1.0])
    assert wpf_allocate(TRIANGLE, [2.0, 1.0, 0.0]).rates[2] == 0.0
    for spare in (0.0, 1.0, 10 / 3):
        verdict = check_weighted_pf(TRIANGLE, alloc.rates + [spare],
                                    [2.0, 1.0, 0.0])
        assert verdict.passed and verdict.worst_sum == \
            pytest.approx(alone.worst_sum, abs=1e-12), (spare, verdict)


def test_rounded_wpf_optimum_is_not_pf():
    # the weighted-PF optimum of the FAIRNESS_RATES golden network, rounded
    # to three decimals: y = (2, 8, 4, 0) gains 8.79e-4 over it
    net = Network(capacities={"a": 10.0, "b": 6.0, "c": 4.0},
                  routes=(("a", "b"), ("a",), ("b", "c"), ("c",)))
    rates, weights = [4.086, 5.914, 1.914, 2.086], [3.0, 1.0, 2.0, 1.0]
    gain, y = exact_pf_gain(net, rates, weights)
    assert gain == pytest.approx(8.79e-4, abs=1e-6)
    assert y == pytest.approx([2.0, 8.0, 4.0, 0.0])
    verdict = check_weighted_pf(net, rates, weights)
    assert not verdict.passed and verdict.worst_sum >= gain
