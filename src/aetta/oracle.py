"""Exact checks of the disagreement identities on finite hypothesis spaces.

Everything here is small enough to enumerate. A space is a set of M weighted
inputs, each carrying the distribution of predictions an ensemble of
hypotheses would emit (the expectation function) and the conditional label
distribution. Expected error and expected dropout disagreement then reduce to
closed-form double sums, so the calibration identity (error == disagreement)
and its robust a/b-weighted generalisation can be verified to floating-point
exactness, with i.i.d. samplers as independent cross-checks.

Nothing in this module touches the neural engine; it exists precisely so the
identities are validated without trusting any model code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ROW_TOL = 1e-9


class OracleError(ValueError):
    """Raised for malformed spaces or infeasible constructions."""


@dataclass(frozen=True)
class FiniteHypothesisSpace:
    point_probs: np.ndarray  # (M,) input weights, sum 1
    htilde: np.ndarray  # (M, K) per-input prediction distribution
    label_model: np.ndarray  # (M, K) per-input conditional label distribution

    def __post_init__(self) -> None:
        p = np.asarray(self.point_probs, dtype=np.float64)
        h = np.asarray(self.htilde, dtype=np.float64)
        y = np.asarray(self.label_model, dtype=np.float64)
        object.__setattr__(self, "point_probs", p)
        object.__setattr__(self, "htilde", h)
        object.__setattr__(self, "label_model", y)
        if p.ndim != 1 or p.shape[0] == 0:
            raise OracleError("point_probs must be a non-empty vector")
        if h.shape != y.shape or h.ndim != 2 or h.shape[0] != p.shape[0] or h.shape[1] < 2:
            raise OracleError("htilde and label_model must be matching (M, K>=2) matrices")
        for name, arr in (("point_probs", p[None, :]), ("htilde", h), ("label_model", y)):
            if np.any(arr < -_ROW_TOL) or np.any(arr > 1 + _ROW_TOL):
                raise OracleError(f"{name} entries outside [0, 1]")
            if np.any(np.abs(arr.sum(axis=1) - 1.0) > _ROW_TOL):
                raise OracleError(f"{name} rows must sum to 1")

    @property
    def class_count(self) -> int:
        return self.htilde.shape[1]

    @property
    def is_calibrated(self) -> bool:
        return bool(np.array_equal(self.htilde, self.label_model))


def calibrated_space(point_probs: np.ndarray, htilde: np.ndarray) -> FiniteHypothesisSpace:
    """Space whose label model equals the expectation function rowwise."""
    h = np.asarray(htilde, dtype=np.float64)
    return FiniteHypothesisSpace(point_probs=point_probs, htilde=h, label_model=h.copy())


def random_calibrated_space(n_points: int, class_count: int, rng: np.random.Generator) -> FiniteHypothesisSpace:
    p = rng.dirichlet(np.ones(n_points))
    h = rng.dirichlet(np.ones(class_count), size=n_points)
    return calibrated_space(p, h)


def mis_calibrated_fixture() -> FiniteHypothesisSpace:
    """Fixed negative control: the label model is the flipped expectation function."""
    return FiniteHypothesisSpace(
        point_probs=np.array([1.0]),
        htilde=np.array([[0.7, 0.3]]),
        label_model=np.array([[0.3, 0.7]]),
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def exact_expected_err(space: FiniteHypothesisSpace) -> float:
    """Chance the sampled prediction misses the sampled label, enumerated exactly."""
    per_point = np.sum(space.label_model * (1.0 - space.htilde), axis=1)
    return float(np.dot(space.point_probs, per_point))


def exact_expected_pdd(space: FiniteHypothesisSpace) -> float:
    """Expected disagreement between i.i.d. prediction draws.

    Every dropout draw has the same marginal, so the expectation does not
    depend on how many draws are averaged.
    """
    per_point = np.sum(space.htilde * (1.0 - space.htilde), axis=1)
    return float(np.dot(space.point_probs, per_point))


# ---------------------------------------------------------------------------
# i.i.d. samplers (independent cross-checks of the closed forms)
# ---------------------------------------------------------------------------


def _categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cdf, u, side="right")


def sampled_pdd(space: FiniteHypothesisSpace, n_dropout: int, n_draws: int, seed: int) -> float:
    """Monte Carlo disagreement: base and n_dropout predictions drawn i.i.d."""
    if n_dropout < 1 or n_draws < 1:
        raise OracleError("need at least one dropout draw and one sample")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_draws, space.point_probs)
    total = 0.0
    for i, cnt in enumerate(counts):
        if cnt == 0:
            continue
        cdf = np.cumsum(space.htilde[i])
        labels = _categorical(cdf, rng.random((cnt, n_dropout + 1)))
        total += float(np.sum(labels[:, 1:] != labels[:, :1])) / n_dropout
    return total / n_draws


def sampled_err(space: FiniteHypothesisSpace, n_draws: int, seed: int) -> float:
    """Monte Carlo error rate: prediction from htilde, label from the label model."""
    if n_draws < 1:
        raise OracleError("need at least one sample")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_draws, space.point_probs)
    total = 0
    for i, cnt in enumerate(counts):
        if cnt == 0:
            continue
        pred = _categorical(np.cumsum(space.htilde[i]), rng.random(cnt))
        label = _categorical(np.cumsum(space.label_model[i]), rng.random(cnt))
        total += int(np.sum(pred != label))
    return total / n_draws


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def verify_theorem1(space: FiniteHypothesisSpace) -> float:
    """|E[Err] - E[PDD]|: zero (to rounding) iff the space is calibrated."""
    return abs(exact_expected_err(space) - exact_expected_pdd(space))


@dataclass(frozen=True)
class RobustConstruction:
    """Space satisfying the a/b-reweighted calibration with one dominant class.

    The dominant class's prediction probability is pinned to a single value q0
    on every point; with a*q0 + b*(1-q0) = 1 the reweighted label rows still
    normalise, which is exactly the regime where the robust identity holds
    with correction constant C = (b-a)*q0*(1-q0).
    """

    space: FiniteHypothesisSpace
    q0: float
    a: float
    b: float
    dominant_class: int


def make_robust_construction(
    point_probs: np.ndarray,
    other_probs: np.ndarray,
    q0: float,
    b: float,
    dominant_class: int = 0,
) -> RobustConstruction:
    """Build the pinned-q0 space for given (q0, b); a is forced by normalisation."""
    p = np.asarray(point_probs, dtype=np.float64)
    others = np.asarray(other_probs, dtype=np.float64)
    if not 0.0 < q0 < 1.0:
        raise OracleError("q0 must lie strictly inside (0, 1)")
    if b < 1.0:
        raise OracleError("b must be at least 1")
    a = (1.0 - b * (1.0 - q0)) / q0
    if not -_ROW_TOL <= a <= 1.0 + _ROW_TOL:
        raise OracleError(f"infeasible construction: a = {a:.6f} outside [0, 1]")
    a = min(max(a, 0.0), 1.0)
    if others.ndim != 2 or others.shape[0] != p.shape[0]:
        raise OracleError("other_probs must be (M, K-1)")
    k = others.shape[1] + 1
    if not 0 <= dominant_class < k:
        raise OracleError("dominant_class out of range")
    if np.any(np.abs(others.sum(axis=1) - 1.0) > _ROW_TOL):
        raise OracleError("other_probs rows must sum to 1")

    htilde = np.empty((p.shape[0], k))
    rest = [c for c in range(k) if c != dominant_class]
    htilde[:, dominant_class] = q0
    htilde[:, rest] = (1.0 - q0) * others
    label_model = b * htilde
    label_model[:, dominant_class] = a * q0
    space = FiniteHypothesisSpace(point_probs=p, htilde=htilde, label_model=label_model)
    return RobustConstruction(space=space, q0=q0, a=a, b=b, dominant_class=dominant_class)


def correction_constant(construction: RobustConstruction) -> float:
    return (construction.b - construction.a) * construction.q0 * (1.0 - construction.q0)


def verify_theorem2(construction: RobustConstruction) -> float:
    """|E[Err] - (b*E[PDD] - C)| for the pinned-q0 construction."""
    err = exact_expected_err(construction.space)
    disagreement = exact_expected_pdd(construction.space)
    return abs(err - (construction.b * disagreement - correction_constant(construction)))


def theorem2_sweep(
    n_constructions: int = 120,
    class_count: int = 4,
    n_points: int = 6,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """(q0, b, residual) over a feasibility-respecting grid, deterministic."""
    rng = np.random.default_rng(seed)
    out: list[tuple[float, float, float]] = []
    q_grid = np.linspace(0.1, 0.9, 12)
    while len(out) < n_constructions:
        for q0 in q_grid:
            if len(out) >= n_constructions:
                break
            b_max = 1.0 / (1.0 - q0)
            b = float(rng.uniform(1.0, b_max))
            construction = make_robust_construction(
                point_probs=rng.dirichlet(np.ones(n_points)),
                other_probs=rng.dirichlet(np.ones(class_count - 1), size=n_points),
                q0=float(q0),
                b=b,
                dominant_class=int(rng.integers(class_count)),
            )
            out.append((float(q0), b, verify_theorem2(construction)))
    return out
