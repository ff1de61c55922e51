"""Named benchmark problems and the seeded random problem generator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnknownProblem
from .problem import (
    CoefficientFunction,
    LQProblem,
    SamplingGrid,
    grid_from_durations,
    make_problem,
    uniform_grid,
    validate_problem,
)


@dataclass(frozen=True)
class ProblemRegistryEntry:
    name: str
    problem: LQProblem
    reference_control: Optional[Callable] = None
    note: str = ""


def _dontchev_reference(t: float) -> float:
    e3 = math.exp(3.0)
    return 2.0 * (math.exp(3.0 * t) - e3) / (math.exp(1.5 * t) * (2.0 + e3))


def _build_registry() -> dict:
    entries = {}

    # scalar benchmark: minimize int_0^1 q^2 + u^2/2 with dq/dt = q/2 + u, q(0) = 1
    dontchev = validate_problem(
        make_problem(
            a=0.0, b=1.0,
            A=[[0.5]], B=[[1.0]],
            W=[[2.0]], R=[[1.0]], S=[[0.0]],
            q_a=[1.0],
        )
    )
    entries["dontchev"] = ProblemRegistryEntry(
        name="dontchev",
        problem=dontchev,
        reference_control=_dontchev_reference,
        note="closed-form optimal permanent control u*(t) = 2(e^{3t} - e^3) / (e^{3t/2} (2 + e^3))",
    )

    double_integrator = validate_problem(
        make_problem(
            a=0.0, b=1.0,
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
            W=np.eye(2), R=[[1.0]], S=np.eye(2),
            q_a=[1.0, 0.0],
        )
    )
    entries["double-integrator"] = ProblemRegistryEntry(
        name="double-integrator",
        problem=double_integrator,
        note="position/velocity chain, homogeneous",
    )

    # nonautonomous, nonhomogeneous: A(t) and omega(t) polynomial in t
    timevarying = validate_problem(
        make_problem(
            a=0.0, b=1.0,
            A=CoefficientFunction.poly([[[0.0], [1.0]], [[-1.0, -0.5], [0.0, -0.25]]]),
            B=[[0.0], [1.0]],
            W=np.eye(2), R=[[1.0]], S=np.eye(2),
            q_a=[1.0, 0.0],
            omega=CoefficientFunction.poly([[0.0], [0.0, 0.2]]),
            v=[0.1],
            q_b=[0.5, 0.0],
        )
    )
    entries["timevarying-demo"] = ProblemRegistryEntry(
        name="timevarying-demo",
        problem=timevarying,
        note="polynomial A(t), forced and target-shifted",
    )
    return entries


_REGISTRY = _build_registry()


def get_problem(name: str) -> ProblemRegistryEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(f"unknown problem: {name!r}") from None


def list_problems() -> list:
    return sorted(_REGISTRY)


def random_problem(seed: int):
    """Seeded random validated problem plus a matching grid.

    Weights are built as W = M^T M and R = c_R I + M^T M, so validation always
    passes; dimensions stay desk-scale (n <= 4, m <= 3, N <= 8).  Even seeds
    give homogeneous problems, odd seeds forced ones; every third seed gets a
    polynomial (nonautonomous) A(t).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    N = int(rng.integers(1, 9))
    a, b = 0.0, float(rng.uniform(0.8, 1.4))

    if seed % 3 == 0:
        deg = int(rng.integers(1, 3))
        A = CoefficientFunction.poly(np.moveaxis(rng.uniform(-0.8, 0.8, size=(deg + 1, n, n)), 0, -1))
    else:
        A = rng.uniform(-1.0, 1.0, size=(n, n))
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    Mw = rng.uniform(-1.0, 1.0, size=(n, n))
    W = Mw.T @ Mw
    Mr = rng.uniform(-1.0, 1.0, size=(m, m))
    R = 0.3 * np.eye(m) + Mr.T @ Mr
    if rng.integers(0, 2):
        Ms = rng.uniform(-1.0, 1.0, size=(n, n))
        S = Ms.T @ Ms
    else:
        S = np.zeros((n, n))
    q_a = rng.uniform(-1.0, 1.0, size=n)

    homogeneous = seed % 2 == 0
    if homogeneous:
        omega = x = v = q_b = None
    else:
        omega = CoefficientFunction.poly(np.moveaxis(rng.uniform(-0.5, 0.5, size=(2, n)), 0, -1))
        x = rng.uniform(-0.5, 0.5, size=n)
        v = rng.uniform(-0.5, 0.5, size=m)
        q_b = rng.uniform(-0.5, 0.5, size=n)

    problem = validate_problem(
        make_problem(a, b, A=A, B=B, W=W, R=R, S=S, q_a=q_a, omega=omega, x=x, v=v, q_b=q_b)
    )
    if rng.integers(0, 2):
        grid = uniform_grid(N, a, b)
    else:
        d = rng.uniform(0.5, 1.5, size=N)
        grid = grid_from_durations(d / d.sum() * (b - a), a, b)
    return problem, grid

