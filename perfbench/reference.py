"""Reference evaluator: the ten objectives written apart from swarmopt.

Every formula here is transcribed from its published definition, with its
own box and published minimum, and imports nothing from swarmopt. The
benchmark checks the program's outputs against these values, so a change
that makes swarmopt faster but wrong cannot pass.

The published minimum of holders_table (-19.2085) is rounded; the true
minimum lies about 2.6e-8 below it, and runs legitimately report values in
between. EXACT_MINIMUM therefore holds the value this module computes at a
refined argmin, and the "never below the minimum" check uses it.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi


def ackley(x, y):
    mean_square = (x * x + y * y) / 2.0
    mean_cos = (math.cos(TWO_PI * x) + math.cos(TWO_PI * y)) / 2.0
    return 20.0 + math.e - 20.0 * math.exp(-0.2 * math.sqrt(mean_square)) - math.exp(mean_cos)


def schaffer(x, y):
    return 0.5 + (math.sin(x * x - y * y) ** 2 - 0.5) / (1.0 + 0.001 * (x * x + y * y)) ** 2


def rastrigin(x, y):
    return sum(c * c - 10.0 * math.cos(TWO_PI * c) + 10.0 for c in (x, y))


def holders_table(x, y):
    return -abs(math.sin(x) * math.cos(y) * math.exp(abs(1.0 - math.hypot(x, y) / math.pi)))


def rosenbrock(x, y):
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def sphere(x, y):
    return x * x + y * y


def booth(x, y):
    return (x + 2.0 * y - 7.0) ** 2 + (2.0 * x + y - 5.0) ** 2


def easom(x, y):
    return -math.cos(x) * math.cos(y) * math.exp(-((x - math.pi) ** 2) - (y - math.pi) ** 2)


def himmelblau(x, y):
    return (x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2


def goldstein_price(x, y):
    a = 1.0 + (x + y + 1.0) ** 2 * (
        19.0 - 14.0 * x + 3.0 * x ** 2 - 14.0 * y + 6.0 * x * y + 3.0 * y ** 2
    )
    b = 30.0 + (2.0 * x - 3.0 * y) ** 2 * (
        18.0 - 32.0 * x + 12.0 * x ** 2 + 48.0 * y - 36.0 * x * y + 27.0 * y ** 2
    )
    return a * b


# id -> (formula, lower, upper, published minimum, published argmin)
FUNCTIONS = {
    "ackley": (ackley, -5.0, 5.0, 0.0, (0.0, 0.0)),
    "schaffer": (schaffer, -100.0, 100.0, 0.0, (0.0, 0.0)),
    "rastrigin": (rastrigin, -5.12, 5.12, 0.0, (0.0, 0.0)),
    "holders_table": (holders_table, -10.0, 10.0, -19.2085, (8.05502, 9.66459)),
    "rosenbrock": (rosenbrock, -5.0, 10.0, 0.0, (1.0, 1.0)),
    "sphere": (sphere, -100.0, 100.0, 0.0, (0.0, 0.0)),
    "booth": (booth, -10.0, 10.0, 0.0, (1.0, 3.0)),
    "easom": (easom, -100.0, 100.0, -1.0, (math.pi, math.pi)),
    "himmelblau": (himmelblau, -5.0, 5.0, 0.0, (3.0, 2.0)),
    "goldstein_price": (goldstein_price, -2.0, 2.0, 3.0, (0.0, -1.0)),
}

FUNCTION_IDS = tuple(FUNCTIONS)


def close(a: float, b: float) -> bool:
    """Agreement allowed between two transcriptions of one formula."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def value(function_id: str, point) -> float:
    return FUNCTIONS[function_id][0](float(point[0]), float(point[1]))


def in_box(function_id: str, point) -> bool:
    _, lower, upper, _, _ = FUNCTIONS[function_id]
    return len(point) == 2 and all(lower <= float(c) <= upper for c in point)


def _refine(f, x, y, radius=1e-3, sweeps=8):
    """Coordinate-wise golden-section descent around a published argmin."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(sweeps):
        for axis in (0, 1):
            lo, hi = (x - radius, x + radius) if axis == 0 else (y - radius, y + radius)
            g = (lambda t: f(t, y)) if axis == 0 else (lambda t: f(x, t))
            for _ in range(80):
                a = hi - ratio * (hi - lo)
                b = lo + ratio * (hi - lo)
                if g(a) < g(b):
                    hi = b
                else:
                    lo = a
            if axis == 0:
                x = (lo + hi) / 2.0
            else:
                y = (lo + hi) / 2.0
    return f(x, y)


EXACT_MINIMUM = {
    name: min(f(*argmin), _refine(f, *argmin))
    for name, (f, _, _, _, argmin) in FUNCTIONS.items()
}


def self_check(evaluate, list_functions, seed: int, samples: int = 200) -> list[str]:
    """Compare the program's registry with this module; return the mismatches.

    `evaluate(name, point)` and `list_functions()` are the program's own
    entry points. Points are each published argmin plus `samples` uniform
    in-box points per function drawn from `seed`.
    """
    problems = []
    if tuple(list_functions()) != FUNCTION_IDS:
        problems.append(f"registry ids {list_functions()} differ from {FUNCTION_IDS}")
        return problems
    draw = random.Random(seed)
    for name, (f, lower, upper, minimum, argmin) in FUNCTIONS.items():
        points = [argmin] + [
            (draw.uniform(lower, upper), draw.uniform(lower, upper)) for _ in range(samples)
        ]
        for point in points:
            ours, theirs = f(*point), evaluate(name, list(point))
            if not close(ours, theirs):
                problems.append(f"{name}{point}: reference {ours!r}, registry {theirs!r}")
        if abs(f(*argmin) - minimum) > 1e-4:
            problems.append(f"{name}: published minimum {minimum} not met at {argmin}")
        if EXACT_MINIMUM[name] > minimum + 1e-4:
            problems.append(f"{name}: refined minimum {EXACT_MINIMUM[name]!r} above {minimum}")
    return problems
