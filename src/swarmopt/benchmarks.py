"""The ten benchmark objectives with their search spaces and known optima.

Evaluation is exact, stateless and permitted outside the search space;
bounds constrain the optimizers, not the evaluators. The three separable
sum-form functions (rastrigin, rosenbrock, sphere) accept any dimension,
the rest are strictly two dimensional.

Each objective is one formula over its list of coordinates and an
operations namespace. Its registry evaluator runs the formula on one
point's Python floats with `math`; the evaluator's `batch` attribute runs
it on the float64 columns of an (m, d) matrix with numpy ufuncs, except
exp, which calls math.exp per element. It returns the (m,) values bit for
bit as m scalar calls do, and raises OverflowError where they do; only a
nan's sign may differ, and sin or cos of ±inf gives nan, not ValueError.
core.evaluate_rows is how the optimizers use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .core import OptimizationMode, SearchSpace, UnknownFunctionError

__all__ = ["ObjectiveSpec", "evaluate", "spec_of", "list_functions"]

Evaluator = Callable[[Sequence[float]], float]

# The operations a formula may call besides + - * / and abs.
_FLOATS = SimpleNamespace(sin=math.sin, cos=math.cos, sqrt=math.sqrt, exp=math.exp,
                          square=lambda v: v ** 2)
# Measured on 1e6 points, np.exp differs from math.exp on 4.6% of inputs,
# while sin, cos, sqrt and + - * / abs agree on every one. So a column's exps
# call math.exp once per element. Squares call libm pow, as Python's v ** 2
# does, through np.float_power; np.power(column, 2.0) takes numpy's v * v path
# and differs on about 0.085% of inputs. Where v ** 2 raises OverflowError,
# float_power returns inf with a warning, so a column holding nan, ±inf or a
# magnitude of 1e150 or more is squared element by element. Either way the
# columns match _FLOATS bit for bit.
_COLUMNS = SimpleNamespace(
    sin=np.sin, cos=np.cos, sqrt=np.sqrt,
    exp=lambda column: np.fromiter(map(math.exp, column.tolist()), float, len(column)),
    square=lambda column: (np.float_power(column, 2.0)
                           if np.abs(column).max(initial=0.0) < 1e150
                           else np.array([v ** 2 for v in column.tolist()])),
)


def _objective(least: int, most: float = math.inf):
    """Decorator: a formula's scalar evaluator, carrying its column form as `.batch`.

    A point or batch row must have between `least` and `most` coordinates;
    otherwise ValueError names the function.
    """
    wanted = f"{least}" if most == least else f"{least} or more"

    def decorate(formula) -> Evaluator:
        name = formula.__name__

        def miscounted(count: int) -> ValueError:
            return ValueError(f"{name} takes {wanted} coordinates, got {count}")

        def evaluator(point) -> float:
            coordinates = (list(map(float, point)) if type(point) is list
                           else np.asarray(point, dtype=float).tolist())
            if least <= len(coordinates) <= most:
                return formula(coordinates, _FLOATS)
            raise miscounted(len(coordinates))

        def batch(rows) -> np.ndarray:
            rows = np.asarray(rows, dtype=float)
            if rows.ndim != 2:
                raise ValueError(f"{name} takes an (m, d) batch, got shape {rows.shape}")
            if not least <= rows.shape[1] <= most:
                raise miscounted(rows.shape[1])
            return formula(list(rows.T.copy()), _COLUMNS)

        evaluator.__name__, evaluator.__doc__ = name, formula.__doc__
        evaluator.batch = batch
        return evaluator

    return decorate


@_objective(2, 2)
def ackley(c, ops):
    """Ackley function. Global optimum: f(0, 0) = 0."""
    x, y = c
    radial = -20.0 * ops.exp(-0.2 * ops.sqrt(0.5 * (x * x + y * y)))
    cosine = -ops.exp(0.5 * (ops.cos(2.0 * math.pi * x) + ops.cos(2.0 * math.pi * y)))
    return radial + cosine + math.e + 20.0


@_objective(2, 2)
def schaffer(c, ops):
    """Schaffer function N.2. Global optimum: f(0, 0) = 0."""
    x, y = c
    squares = x * x + y * y
    numerator = ops.square(ops.sin(x * x - y * y)) - 0.5
    denominator = ops.square(1.0 + 0.001 * squares)
    return 0.5 + numerator / denominator


@_objective(1)
def rastrigin(c, ops):
    """Rastrigin function, any dimension. Global optimum: f(0, ..., 0) = 0."""
    total = 10.0 * len(c)
    for x in c:
        total += x * x - 10.0 * ops.cos(2.0 * math.pi * x)
    return total


@_objective(2, 2)
def holders_table(c, ops):
    """Holder's table function. Global optimum: f(8.05502, 9.66459) = -19.2085."""
    x, y = c
    inner = abs(1.0 - ops.sqrt(x * x + y * y) / math.pi)
    return -abs(ops.sin(x) * ops.cos(y) * ops.exp(inner))


@_objective(2)
def rosenbrock(c, ops):
    """Rosenbrock valley, any dimension >= 2. Global optimum: f(1, ..., 1) = 0."""
    total = 0.0
    for x, x_next in zip(c, c[1:]):
        total += 100.0 * ops.square(x_next - x * x) + ops.square(1.0 - x)
    return total


@_objective(1)
def sphere(c, ops):
    """Sphere function, any dimension. Global optimum: f(0, ..., 0) = 0."""
    # A loop, not sum(): from Python 3.12 sum() compensates float rounding,
    # which column additions do not.
    total = 0.0
    for x in c:
        total += x * x
    return total


@_objective(2, 2)
def booth(c, ops):
    """Booth function. Global optimum: f(1, 3) = 0."""
    x, y = c
    return ops.square(x + 2.0 * y - 7.0) + ops.square(2.0 * x + y - 5.0)


@_objective(2, 2)
def easom(c, ops):
    """Easom function. Global optimum: f(pi, pi) = -1."""
    x, y = c
    distance = ops.square(x - math.pi) + ops.square(y - math.pi)
    return -ops.cos(x) * ops.cos(y) * ops.exp(-distance)


@_objective(2, 2)
def himmelblau(c, ops):
    """Himmelblau function; four global minima. f(3, 2) = 0."""
    x, y = c
    return ops.square(x * x + y - 11.0) + ops.square(x + y * y - 7.0)


@_objective(2, 2)
def goldstein_price(c, ops):
    """Goldstein-Price function. Global optimum: f(0, -1) = 3."""
    x, y = c
    first = 1.0 + ops.square(x + y + 1.0) * (
        19.0 - 14.0 * x + 3.0 * x * x - 14.0 * y + 6.0 * x * y + 3.0 * y * y
    )
    second = 30.0 + ops.square(2.0 * x - 3.0 * y) * (
        18.0 - 32.0 * x + 12.0 * x * x + 48.0 * y - 36.0 * x * y + 27.0 * y * y
    )
    return first * second


@dataclass(frozen=True)
class ObjectiveSpec:
    """Registry entry for one benchmark function.

    known_argmin is one representative optimum as published; himmelblau in
    particular has three more at the same value.
    """

    name: str
    space: SearchSpace
    known_minimum: float
    known_argmin: tuple[float, ...]
    evaluator: Evaluator
    mode: OptimizationMode = OptimizationMode.MIN


_REGISTRY: dict[str, ObjectiveSpec] = {
    spec.name: spec
    for spec in (
        ObjectiveSpec("ackley", SearchSpace(2, -5.0, 5.0), 0.0, (0.0, 0.0), ackley),
        ObjectiveSpec("schaffer", SearchSpace(2, -100.0, 100.0), 0.0, (0.0, 0.0), schaffer),
        ObjectiveSpec("rastrigin", SearchSpace(2, -5.12, 5.12), 0.0, (0.0, 0.0), rastrigin),
        ObjectiveSpec("holders_table", SearchSpace(2, -10.0, 10.0), -19.2085,
                      (8.05502, 9.66459), holders_table),
        ObjectiveSpec("rosenbrock", SearchSpace(2, -5.0, 10.0), 0.0, (1.0, 1.0), rosenbrock),
        ObjectiveSpec("sphere", SearchSpace(2, -100.0, 100.0), 0.0, (0.0, 0.0), sphere),
        ObjectiveSpec("booth", SearchSpace(2, -10.0, 10.0), 0.0, (1.0, 3.0), booth),
        ObjectiveSpec("easom", SearchSpace(2, -100.0, 100.0), -1.0, (math.pi, math.pi), easom),
        ObjectiveSpec("himmelblau", SearchSpace(2, -5.0, 5.0), 0.0, (3.0, 2.0), himmelblau),
        ObjectiveSpec(
            "goldstein_price", SearchSpace(2, -2.0, 2.0), 3.0, (0.0, -1.0), goldstein_price
        ),
    )
}


def list_functions() -> list[str]:
    """The ten function ids in registry order."""
    return list(_REGISTRY)


def spec_of(name: str) -> ObjectiveSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown function {name!r}; valid ids: {', '.join(_REGISTRY)}"
        ) from None


def evaluate(name: str, point) -> float:
    """Evaluate one benchmark function at a point."""
    return spec_of(name).evaluator(point)
