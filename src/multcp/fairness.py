"""Fairness definitions and reference allocators on capacitated networks.

A Network is a set of capacitated links plus one fixed route (a set of
links) per connection.  Two fairness notions are covered:

* max-min: no connection's rate can be raised without lowering that of
  a connection with an already smaller-or-equal rate.  Checked either
  definitionally against a grid of alternative feasible vectors (small
  instances) or via the bottleneck criterion: every connection must
  cross a saturated link on which it is among the fastest.
* (weighted) proportional fairness: for every feasible alternative y,
  sum_s w_s (y_s - x_s) / x_s <= 0.  Checked by a certificate: link
  prices, fitted by non-negative least squares, that bound that sum.

The strict variant of the max-min test demands a strictly smaller
victim (x_s < x_r instead of x_s <= x_r).  Equal-rate allocations can
fail the strict reading while being max-min fair under the standard
one, so verdicts report both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the functions that use it, so that importing this
# module (and the CLI, which imports it) does not load it
_EPS = 1e-9
# wpf_allocate declares convergence at this KKT residual, so the weighted
# PF check accepts rate vectors that are feasible to the same tolerance
_KKT_TOL = 1e-6
# its Newton steps stop near rounding error, and its line search halves
_NEWTON_TOL, _NEWTON_STEPS, _ARMIJO = 1e-15, 100, 1e-4
_HALVINGS = tuple(0.5 ** k for k in range(60))
_GRID_POINTS = 11     # per connection in check_maxmin's definitional search
_BRUTE_MAX_CONNS, _BRUTE_MAX_LINKS = 4, 3     # the largest instance searched


@dataclass(frozen=True)
class Network:
    """Link capacities plus one route (tuple of link names) per connection."""

    capacities: dict[str, float]
    routes: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for name, cap in self.capacities.items():
            if not (cap > 0 and math.isfinite(cap)):
                raise ValueError(
                    f"link {name!r} must have a positive finite capacity")
        if not self.routes:
            raise ValueError("a network needs at least one connection")
        for i, route in enumerate(self.routes):
            if not route:
                raise ValueError(f"connection {i} has an empty route")
            for name in route:
                if name not in self.capacities:
                    raise ValueError(f"connection {i} uses unknown link {name!r}")

    @property
    def n_connections(self) -> int:
        return len(self.routes)

    def users(self, link: str) -> list[int]:
        return [i for i, r in enumerate(self.routes) if link in r]

    def loads(self, rates) -> dict[str, float]:
        out = dict.fromkeys(self.capacities, 0.0)
        for i, route in enumerate(self.routes):
            for name in route:
                out[name] += rates[i]
        return out

    def route_cap(self, conn: int) -> float:
        return min(self.capacities[name] for name in self.routes[conn])

    def is_feasible(self, rates, tol: float = _EPS) -> bool:
        if len(rates) != self.n_connections:
            raise ValueError("rate vector length mismatch")
        if any(r < -tol for r in rates):
            return False
        loads = self.loads(rates)
        return all(loads[name] <= cap * (1.0 + tol) + tol
                   for name, cap in self.capacities.items())


# -- max-min ---------------------------------------------------------------

@dataclass(frozen=True)
class MaxminVerdict:
    passed: bool            # standard form: victim with x_s <= x_r
    passed_strict: bool | None  # strict form: victim with x_s < x_r
    method: str             # "brute-force" or "bottleneck"
    witness: tuple | None   # (alternative y, beneficiary r) refuting the claim
    detail: str = ""


def maxmin_allocate(network: Network) -> list[float]:
    """Progressive filling: raise all rates together, freeze at bottlenecks."""
    n = network.n_connections
    rates = [0.0] * n
    remaining = dict(network.capacities)
    active = set(range(n))
    while active:
        counts = dict.fromkeys(network.capacities, 0)
        for i in active:
            for name in network.routes[i]:
                counts[name] += 1
        step = min(remaining[name] / counts[name]
                   for name in network.capacities if counts[name] > 0)
        for i in active:
            rates[i] += step
        for name in network.capacities:
            remaining[name] -= step * counts[name]
        saturated = {name for name, rem in remaining.items()
                     if counts[name] > 0 and rem <= _EPS * network.capacities[name]}
        frozen = {i for i in active
                  if any(name in saturated for name in network.routes[i])}
        if not frozen:      # numerical corner: freeze everyone touching the minimum
            break
        active -= frozen
    return rates


def check_maxmin(network: Network, rates) -> MaxminVerdict:
    """Is `rates` max-min fair on `network`?

    Small instances are checked against the definition over a grid of
    alternative feasible vectors; larger instances fall back to the
    bottleneck criterion (equivalent for feasible allocations).
    """
    rates = [float(r) for r in rates]
    if not network.is_feasible(rates):
        return MaxminVerdict(False, False, "feasibility", None,
                             "rate vector is not feasible")
    if (network.n_connections <= _BRUTE_MAX_CONNS
            and len(network.capacities) <= _BRUTE_MAX_LINKS):
        return _check_maxmin_brute(network, rates)
    passed = _check_maxmin_bottleneck(network, rates)
    return MaxminVerdict(passed, None, "bottleneck", None,
                         "instance too large for definitional search")


def _check_maxmin_brute(network: Network, rates) -> MaxminVerdict:
    """The definition over the whole grid at once.  Loads are summed in
    `Network.loads` order, so every comparison, and the witness (the first
    failure in itertools.product order), is that of a per-point loop."""
    import numpy as np

    n = network.n_connections
    eps = _EPS * max(max(network.capacities.values()), 1.0)
    axes = [np.linspace(0.0, network.route_cap(i), _GRID_POINTS) for i in range(n)]
    ys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    loads = dict.fromkeys(network.capacities, 0.0)
    for i, route in enumerate(network.routes):
        for name in route:
            loads[name] = loads[name] + ys[:, i]
    feasible = np.ones(len(ys), dtype=bool)
    for name, cap in network.capacities.items():
        feasible &= loads[name] <= cap * (1.0 + _EPS) + _EPS
    x = np.array(rates)
    lowered = ys < x - eps                        # [point, s]
    raised = feasible[:, None] & (ys > x + eps)   # [point, r]

    def first_failure(victim):      # [s, r]: s may pay for raising r
        fails = raised & ~(lowered @ victim)
        return divmod(int(np.argmax(fails)), n) if fails.any() else None

    std = first_failure(x[:, None] <= x + eps)      # smaller-or-equal rate
    strict = first_failure(x[:, None] < x - eps)    # strictly smaller rate
    first = std or strict
    witness = (tuple(ys[first[0]]), first[1]) if first else None
    passed, passed_strict = std is None, strict is None
    detail = ""
    if passed and not passed_strict:
        detail = ("fails only the strict reading (no strictly smaller victim); "
                  "typical for equal-rate allocations")
    return MaxminVerdict(passed, passed_strict, "brute-force", witness, detail)


def _check_maxmin_bottleneck(network: Network, rates) -> bool:
    loads = network.loads(rates)
    for i in range(network.n_connections):
        has_bottleneck = False
        for name in network.routes[i]:
            cap = network.capacities[name]
            saturated = loads[name] >= cap * (1.0 - _EPS) - _EPS
            fastest = all(rates[i] >= rates[j] - _EPS for j in network.users(name))
            if saturated and fastest:
                has_bottleneck = True
                break
        if not has_bottleneck:
            return False
    return True


# -- proportional fairness -------------------------------------------------

@dataclass(frozen=True)
class PfVerdict:
    passed: bool
    worst_sum: float        # bound on max of sum_s w_s (y_s - x_s) / x_s
    detail: str = ""


def check_weighted_pf(network: Network, rates, weights, *,
                      tol: float = 1e-7, samples: int | None = None) -> PfVerdict:
    """Certify sum_s w_s (y_s - x_s) / x_s <= tol over feasible y.

    Prices lambda >= 0 on the links saturated to 10 _KKT_TOL are fitted to
    w_s / x_s along each weighted route by non-negative least squares and
    scaled until every route sum reaches it (Kelly, Eur. Trans. Telecommun.
    8, 1997).  For y that load no saturated link beyond x, the sum is then
    at most `worst_sum` = load . lambda - sum w: 0 at an exact optimum, inf
    for an unpriced route.  `samples` is ignored; only bench/ passes it.
    """
    import numpy as np

    x = np.asarray(rates, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = network.n_connections
    if x.shape != (n,) or w.shape != (n,):
        raise ValueError("rates and weights must have one entry per connection")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("weights must be finite and non-negative")
    if not network.is_feasible(x, tol=_KKT_TOL):
        return PfVerdict(False, math.inf, "rate vector is not feasible")
    if np.any((x <= 0) & (w > 0)):
        return PfVerdict(False, math.inf, "a weighted connection has zero rate")

    caps, incidence = _incidence(network, network.routes,
                                 sorted(network.capacities))
    loads = incidence @ x
    saturated = loads >= caps * (1.0 - 10 * _KKT_TOL)
    active = w > 0
    price_sums = incidence[saturated][:, active].T     # [connection, link]
    need = w[active] / x[active]
    lam = _nnls(price_sums, need)
    got = price_sums @ lam
    if np.any(got <= 0):
        return PfVerdict(False, math.inf)
    scale = (need / got).max(initial=0.0)
    worst_sum = float(scale * (loads[saturated] @ lam) - w[active].sum())
    return PfVerdict(worst_sum <= tol, worst_sum)


def _nnls(a, b):
    """min |a z - b| over z >= 0, by the active-set method of Lawson and
    Hanson (Solving Least Squares Problems, 1974, ch. 23)."""
    import numpy as np

    z = np.zeros(a.shape[1])
    free = np.zeros(a.shape[1], dtype=bool)
    for _ in range(3 * a.shape[1]):
        grad = a.T @ (b - a @ z)
        if free.all() or grad[~free].max() <= 1e-12 * np.abs(b).sum():
            break
        free[np.argmax(np.where(free, -np.inf, grad))] = True
        while True:
            trial = np.zeros_like(z)
            trial[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if (trial[free] >= 0).all():
                break
            # move towards trial until the first free variable reaches zero
            neg = np.flatnonzero(free & (trial < 0))
            ratios = z[neg] / (z[neg] - trial[neg])
            z += ratios.min() * (trial - z)
            z[neg[ratios.argmin()]] = 0.0
            free &= z > 0
        z = trial
    return z


def _incidence(network: Network, routes, names):
    """Capacities of the named links and the 0/1 link x route matrix."""
    import numpy as np

    caps = np.array([network.capacities[name] for name in names])
    incidence = np.array([[1.0 if name in route else 0.0 for route in routes]
                          for name in names])
    return caps, incidence


# -- weighted proportionally fair allocation -------------------------------

@dataclass(frozen=True)
class WpfAllocation:
    rates: list[float]
    converged: bool
    kkt_residual: float
    method: str             # "closed-form" or "dual-descent"


def wpf_allocate(network: Network, weights) -> WpfAllocation:
    """Rates maximising sum_s w_s log x_s subject to link capacities.

    With a single shared link the optimum is the weight-proportional
    split C w_s / sum w.  In general the capacity-constrained optimum is
    found through the dual: each link gets a price lambda_l >= 0, each
    connection a rate w_s / (sum of prices on its route), and a projected
    Newton method (Bertsekas, SIAM J. Control Optim. 20(2), 1982) finds
    the prices that minimise the smooth dual function.  `converged` means
    that the KKT residual, the worst complementary-slackness and
    feasibility violation normalised by capacity, is at most _KKT_TOL.
    """
    import numpy as np

    w = np.asarray(weights, dtype=float)
    n = network.n_connections
    if w.shape != (n,):
        raise ValueError("weights must have one entry per connection")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("weights must be finite and non-negative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")

    active = np.flatnonzero(w > 0)
    sub_routes = [network.routes[i] for i in active]
    w_act = w[active]
    total = w_act.sum()

    used = sorted({name for route in sub_routes for name in route})
    if len(used) == 1:
        cap = network.capacities[used[0]]
        rates = np.zeros(n)
        rates[active] = cap * w_act / total
        return WpfAllocation(list(rates), True, 0.0, "closed-form")

    caps, incidence = _incidence(network, sub_routes, used)

    def kkt(lam):       # route prices, rates, dual gradient and KKT residual
        q = incidence.T @ lam
        x = w_act / q
        loads = incidence @ x
        overload = float((np.maximum(loads - caps, 0.0) / caps).max())
        # complementary slackness, made dimensionless by the total weight
        slack = float((lam * np.abs(caps - loads)).max() / total)
        return q, x, caps - loads, max(overload, slack)

    lam = incidence @ w_act / caps
    lam *= total / (caps @ lam)     # sum(c lambda) = sum(w), as at the optimum
    q, x, grad, residual = kkt(lam)
    for _ in range(_NEWTON_STEPS):
        if residual <= _NEWTON_TOL:
            break
        # the epsilon-active links take a diagonally scaled step, the others
        # a Newton step; the test is on price shares lambda c / sum(w)
        share = lam * caps / total
        eps = min(1e-3, np.abs(np.minimum(share, grad / caps)).max())
        held = (share <= eps) & (grad > 0)
        free = ~held
        rows, curv = incidence[free], x / q
        step = -grad / (incidence @ curv)
        # two links can carry the same connections, so the Hessian's free
        # block can be singular: its diagonal is raised slightly
        hess = (rows * curv) @ rows.T
        hess.flat[::len(hess) + 1] *= 1.0 + 1e-9
        step[free] = np.linalg.solve(hess, -grad[free])
        slope = grad[free] @ step[free]
        # Armijo along the projection arc, first trying the step at which
        # the first free price reaches zero
        shrink = free & (step < 0)
        first = (lam[shrink] / -step[shrink]).min() if shrink.any() else 1.0
        for alpha in (first,) + _HALVINGS if 0 < first < 1 else _HALVINGS:
            move = np.maximum(lam + alpha * step, 0.0) - lam
            dq = incidence.T @ move
            # no route price falls tenfold in a step; the dual decrease is
            # summed from its differences, which stay exact near the optimum
            if (dq > -0.9 * q).all():
                decrease = w_act @ np.log1p(dq / q) - caps @ move
                if decrease >= _ARMIJO * (grad[held] @ -move[held] - alpha * slope):
                    break
        else:
            break
        lam = lam + move
        q, x, grad, residual = kkt(lam)
    rates = np.zeros(n)
    rates[active] = x
    return WpfAllocation(list(rates), residual <= _KKT_TOL, residual, "dual-descent")
