"""Problem data: time-dependent coefficients, the LQ problem record, sampling grids.

The cost functional being minimized over piecewise-constant (zero-order-hold)
controls is

    C(u) = 1/2 <S (q(b) - q_b), q(b) - q_b>
         + 1/2 int_a^b [ <W(t)(q - x), q - x> + <R(t)(u - v), u - v> ] dt

subject to  dq/dt = A(t) q + B(t) u + omega(t),  q(a) = q_a.

Problem data has one way in: `make_problem` builds every `LQProblem`, and
`load_problem` reshapes a JSON document's arrays and passes them to it.  A
coefficient has one way out: `CoefficientFunction.eval_many` at an array of
times of any shape.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DurationMismatch,
    InvalidInterval,
    NonPositiveDuration,
    NotPD,
    NotPSD,
    TooLarge,
    ValidationError,
)

TOL_PD = 1e-10
PROBES = 33  # equally spaced times at which validate_problem checks the coefficients
INTP_MAX = int(np.iinfo(np.intp).max)  # the largest array length or index

# named coefficient callables usable from problem files: name -> (shape, fn)
_BUILTIN_COEFFICIENTS: dict = {}


def register_coefficient(name: str, shape, fn: Callable) -> None:
    """Register a named pure callable for use as a 'builtin' coefficient."""
    _BUILTIN_COEFFICIENTS[name] = (tuple(shape), fn)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class CoefficientFunction:
    """A pure time-dependent matrix or vector coefficient.

    kind is 'constant', 'poly' (per-entry polynomial in t, lowest degree
    first) or 'builtin' (named callable).  Evaluation at equal times is
    bitwise identical; for 'builtin' that purity is the callable's
    responsibility.

    Parameters
    ----------
    kind : str
    shape : tuple
        (rows, cols) for matrices, (n,) for vectors.
    data : ndarray or callable
        Constant value, polynomial coefficient stack of shape (deg+1, *shape),
        or the callable itself.
    """

    __slots__ = ("kind", "shape", "data", "name", "_sym")

    def __init__(self, kind, shape, data, name=None, _sym=False):
        self.kind = kind
        self.shape = tuple(shape)
        self.data = np.ascontiguousarray(data) if kind == "constant" else data  # eval_many views its buffer
        self.name = name
        self._sym = _sym

    @classmethod
    def constant(cls, value) -> "CoefficientFunction":
        arr = _readonly(value)
        return cls("constant", arr.shape, arr)

    @classmethod
    def poly(cls, coeffs) -> "CoefficientFunction":
        """Per-entry polynomial coefficients, lowest degree first.

        coeffs is a nested list (or array) matching the target shape, each
        entry a list [c0, c1, ...]; entries are zero-padded to a common degree.
        An array's last axis is the degree axis; data holds it first.
        """
        lists = coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs
        shape = _poly_shape(lists)
        flat: list = []
        _poly_flatten(lists, len(shape), flat)
        if len(flat) != np.prod(shape, dtype=int):
            raise DimensionMismatch(f"polynomial entries do not fill a grid of shape {shape}")
        stack = np.zeros((len(flat), max(len(c) for c in flat)))
        for k, c in enumerate(flat):
            stack[k, : len(c)] = c
        stack = np.ascontiguousarray(np.moveaxis(stack.reshape(shape + (-1,)), -1, 0))
        stack.setflags(write=False)
        return cls("poly", shape, stack)

    @classmethod
    def builtin(cls, name: str) -> "CoefficientFunction":
        if not isinstance(name, str) or name not in _BUILTIN_COEFFICIENTS:
            raise ValidationError(f"unknown builtin coefficient: {name!r}")
        shape, fn = _BUILTIN_COEFFICIENTS[name]
        return cls("builtin", shape, fn, name=name)

    @classmethod
    def zeros(cls, shape) -> "CoefficientFunction":
        return cls.constant(np.zeros(shape))

    def __call__(self, t: float) -> np.ndarray:
        return self.eval_many(np.array([t], dtype=float))[0]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Values at times ts of any shape, stacked as ts.shape + self.shape.

        A constant gives `np.broadcast_to`'s view of data, stride 0 on the
        time axes, built directly on data's buffer (C-contiguous since
        __init__) and read-only even when data is writable; other kinds give
        a fresh array.
        """
        ts = np.asarray(ts, dtype=float)
        if self.kind == "constant":
            data = self.data
            out = np.ndarray(ts.shape + self.shape, data.dtype, buffer=data, strides=(0,) * ts.ndim + data.strides)
            out.setflags(write=False)
            return out
        if self.kind == "poly":
            tcol = ts.reshape(ts.shape + (1,) * len(self.shape))
            out = np.empty(ts.shape + self.shape)
            out[...] = self.data[-1]
            for d in range(self.data.shape[0] - 2, -1, -1):
                out *= tcol
                out += self.data[d]
            return out
        out = np.empty(ts.shape + self.shape)
        rows = out.reshape((-1,) + self.shape)  # a view: filling it fills out
        for k, t in enumerate(ts.ravel()):
            v = np.asarray(self.data(t), dtype=float)
            if v.shape != self.shape:
                raise DimensionMismatch(f"builtin {self.name!r} returned shape {v.shape}, declared {self.shape}")
            rows[k] = v
        if self._sym:
            out = 0.5 * (out + np.swapaxes(out, -1, -2))
        return out

    def symmetrized(self) -> "CoefficientFunction":
        """Coefficient with values replaced by their symmetric parts."""
        if self._sym:
            return self
        if len(self.shape) != 2 or self.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"cannot symmetrize shape {self.shape}")
        data = self.data
        if self.kind != "builtin":
            data = _readonly(0.5 * (data + np.swapaxes(data, -1, -2)))
        return CoefficientFunction(self.kind, self.shape, data, name=self.name, _sym=True)


def _poly_shape(lists) -> tuple:
    """Shape of the entry grid: nesting above the innermost coefficient lists."""
    if not isinstance(lists, list) or not lists:
        raise DimensionMismatch("polynomial coefficient data must be nested lists")
    if all(isinstance(v, (int, float)) for v in lists):
        return ()  # a bare coefficient list: scalar entry
    if all(isinstance(v, list) and v and all(isinstance(c, (int, float)) for c in v) for v in lists):
        return (len(lists),)
    inner = _poly_shape(lists[0])
    return (len(lists),) + inner


def _poly_flatten(lists, levels: int, out: list) -> None:
    if levels == 0:
        out.append([float(c) for c in lists])
        return
    for sub in lists:
        _poly_flatten(sub, levels - 1, out)


def as_coefficient(value, shape, name: str) -> CoefficientFunction:
    """The CoefficientFunction of one problem field of the given shape.

    Accepted forms of value:
      - None: zero;
      - a CoefficientFunction, used as it is;
      - a callable t -> array, wrapped as a 'builtin' of the given shape;
      - {"poly": nested coefficient lists} (see `CoefficientFunction.poly`);
      - {"builtin": name} of a coefficient added by `register_coefficient`;
      - an array (a scalar counts as a vector of length 1): a constant.
    The result must have the given shape, else DimensionMismatch; name is
    used only in error messages.
    """
    shape = tuple(shape)
    if value is None:
        cf = CoefficientFunction.zeros(shape)
    elif isinstance(value, CoefficientFunction):
        cf = value
    elif callable(value):
        cf = CoefficientFunction("builtin", shape, value, name=getattr(value, "__name__", "callable"))
    elif isinstance(value, dict):
        cf = _coefficient_object(value, name)
    else:
        cf = CoefficientFunction.constant(np.atleast_1d(value))
    if cf.shape != shape:
        raise DimensionMismatch(f"{name} has shape {cf.shape}, expected {shape}")
    return cf


def _coefficient_object(value: dict, name: str) -> CoefficientFunction:
    """The coefficient of a {"poly": ...} or {"builtin": name} object."""
    if "poly" in value:
        return CoefficientFunction.poly(value["poly"])
    if "builtin" in value:
        return CoefficientFunction.builtin(value["builtin"])
    raise ValidationError(f"{name}: expected a nested array, 'poly' or 'builtin' object")


@dataclass(frozen=True, eq=False)
class LQProblem:
    """Full data of one LQ problem; immutable once validated."""

    a: float
    b: float
    n: int
    m: int
    A: CoefficientFunction
    B: CoefficientFunction
    W: CoefficientFunction
    R: CoefficientFunction
    S: np.ndarray
    omega: CoefficientFunction
    x_ref: CoefficientFunction
    v_ref: CoefficientFunction
    q_a: np.ndarray
    q_b: np.ndarray
    validated: bool = False
    c_R: Optional[float] = None


def make_problem(a, b, A, B, W, R, S, q_a, omega=None, x=None, v=None, q_b=None) -> LQProblem:
    """Convenience constructor: wraps plain data, fills zero defaults.

    Coefficients take the forms `as_coefficient` accepts; S must be a
    constant matrix and q_a, q_b constant vectors.  A scalar A, W, R or S
    stands for that multiple of the identity, None for zero (q_a has no
    default), and a 1-D B for one column.
    """
    q_a = _state_vector(q_a, "q_a")
    n = q_a.shape[0]
    # control dimension comes from B's column count
    if isinstance(B, dict):
        B = _coefficient_object(B, "B")
    if isinstance(B, CoefficientFunction):
        m = B.shape[1] if len(B.shape) == 2 else 1  # other shapes fail as_coefficient's (n, m) check
    elif callable(B):
        m = np.atleast_2d(np.asarray(B(float(a)), dtype=float)).shape[1]
    else:
        arr = np.asarray(B, dtype=float)
        m = 1 if arr.ndim < 2 else arr.shape[1]
        B = arr.reshape(-1, m)
    if isinstance(S, CoefficientFunction) and S.kind == "constant":
        S = S.data
    elif isinstance(S, dict) or callable(S):
        raise ValidationError("S must be a constant matrix")
    return LQProblem(
        a=float(a),
        b=float(b),
        n=n,
        m=m,
        A=as_coefficient(_as_matrix(A, n), (n, n), "A"),
        B=as_coefficient(B, (n, m), "B"),
        W=as_coefficient(_as_matrix(W, n), (n, n), "W"),
        R=as_coefficient(_as_matrix(R, m), (m, m), "R"),
        S=_readonly(_as_matrix(S, n)),
        omega=as_coefficient(omega, (n,), "omega"),
        x_ref=as_coefficient(x, (n,), "x"),
        v_ref=as_coefficient(v, (m,), "v"),
        q_a=_readonly(q_a),
        q_b=_readonly(np.zeros(n) if q_b is None else _state_vector(q_b, "q_b")),
    )


def _state_vector(value, name):
    """q_a or q_b as a 1-D array: plain numbers, never None or a coefficient."""
    if value is None or isinstance(value, (CoefficientFunction, dict)) or callable(value):
        raise ValidationError(f"{name} must be a constant vector, got {type(value).__name__}")
    return np.atleast_1d(np.asarray(value, dtype=float))


def _as_matrix(value, n):
    """An n x n matrix field's value: None is zero, and a scalar stands for that multiple of the identity."""
    if value is None:
        return np.zeros((n, n))
    if isinstance(value, (CoefficientFunction, dict)) or callable(value):
        return value
    arr = np.asarray(value, dtype=float)
    return np.diag(np.full(n, float(arr))) if arr.ndim == 0 else np.atleast_2d(arr)


def validate_problem(p: LQProblem) -> LQProblem:
    """Check dimensions and definiteness; return the validated problem.

    S, W(t), R(t) are symmetrized as (M + M^T)/2 before the checks.  PSD/PD
    holds only at the PROBES equally spaced times; with continuous coefficients
    this is a practical guard, not a proof.  Every coefficient is evaluated at
    all probes before any check, so a builtin that raises does so first.
    """
    _check_interval(p.a, p.b)
    n, m = p.n, p.m
    _expect_shape("A", p.A.shape, (n, n))
    _expect_shape("B", p.B.shape, (n, m))
    _expect_shape("W", p.W.shape, (n, n))
    _expect_shape("R", p.R.shape, (m, m))
    _expect_shape("S", p.S.shape, (n, n))
    _expect_shape("omega", p.omega.shape, (n,))
    _expect_shape("x", p.x_ref.shape, (n,))
    _expect_shape("v", p.v_ref.shape, (m,))
    _expect_shape("q_a", p.q_a.shape, (n,))
    _expect_shape("q_b", p.q_b.shape, (n,))
    for name, value in (("S", p.S), ("q_a", p.q_a), ("q_b", p.q_b)):
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} is not finite")

    S = 0.5 * (p.S + p.S.T)
    W = p.W.symmetrized()
    R = p.R.symmetrized()

    s_min = float(np.linalg.eigvalsh(S)[0])
    if s_min < -TOL_PD:
        raise NotPSD("S", p.a, s_min)

    ts = np.linspace(p.a, p.b, PROBES)
    vals = [cf.eval_many(ts) for cf in (p.A, p.B, p.omega, p.x_ref, p.v_ref, W, R)]
    bad = [~np.isfinite(v).reshape(PROBES, -1).all(axis=1) for v in vals]
    # a non-finite W or R probe is decomposed as zero: its finite check fails before its eigenvalue one
    w_min, r_min = (
        np.linalg.eigvalsh(np.where(b[:, None, None], 0.0, v))[:, 0] for b, v in zip(bad[5:], vals[5:])
    )
    # All probes are checked at once, and the error raised is the one a
    # probe-by-probe scan meets first: the earliest failing probe, and within
    # it the first failing check in this order.
    names = ("A", "B", "omega", "x", "v", "W", None, "R", None)
    fails = np.stack(bad[:6] + [w_min < -TOL_PD, bad[6], r_min <= TOL_PD], axis=1)
    if fails.any():
        k = int(np.argmax(fails.any(axis=1)))
        check = int(np.argmax(fails[k]))
        t = ts[k]
        if check == 6:
            raise NotPSD("W", t, float(w_min[k]))
        if check == 8:
            raise NotPD("R", t, float(r_min[k]))
        raise ValidationError(f"{names[check]}({t}) is not finite")
    c_R = np.min(r_min)

    return replace(p, S=_readonly(S), W=W, R=R, validated=True, c_R=float(c_R))


def _check_interval(a, b) -> None:
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise InvalidInterval(f"need finite a < b, got a={a}, b={b}")


def _expect_shape(name, got, want):
    if tuple(got) != tuple(want):
        raise DimensionMismatch(f"{name} has shape {tuple(got)}, expected {tuple(want)}")


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Subdivision of [a, b]: durations h_i and sample times s_i.

    s[i+1] - s[i] == h[i] holds exactly: h is recomputed from s after the
    final node is snapped to b.
    """

    h: np.ndarray
    s: np.ndarray

    @property
    def N(self) -> int:
        return self.h.shape[0]

    @property
    def a(self) -> float:
        return float(self.s[0])

    @property
    def b(self) -> float:
        return float(self.s[-1])

    @property
    def norm_delta(self) -> float:
        return float(np.max(self.h))

    def tail(self, j: int) -> "SamplingGrid":
        """Sub-grid over [s_j, b], sharing node values bitwise."""
        if not 0 <= j < self.N:
            raise InvalidInterval(f"tail index {j} out of range for N={self.N}")
        return SamplingGrid(h=self.h[j:], s=self.s[j:])


def check_grid(p: LQProblem, grid: SamplingGrid) -> None:
    """A grid must end at b and start no earlier than a: a grid on [a, b] or one of its tails."""
    if grid.b != p.b or grid.a < p.a:
        raise InvalidInterval(f"grid spans [{grid.a}, {grid.b}], the problem's interval is [{p.a}, {p.b}]")


def _grid_from_nodes(s: np.ndarray) -> SamplingGrid:
    h = np.diff(s)
    if not np.all(h > 0):
        raise NonPositiveDuration("sample times must be strictly increasing")
    s.setflags(write=False)
    h.setflags(write=False)
    return SamplingGrid(h=h, s=s)


def uniform_grid(N: int, a: float, b: float) -> SamplingGrid:
    _check_interval(a, b)
    if N < 1:
        raise InvalidInterval(f"need N >= 1, got {N}")
    if N + 1 > INTP_MAX:
        raise TooLarge(f"N = {N} intervals: N+1 sample times exceed the platform's array index range")
    try:
        s = np.linspace(float(a), float(b), N + 1)
    except MemoryError:
        raise TooLarge(f"N = {N} intervals: N+1 sample times do not fit in memory") from None
    return _grid_from_nodes(s)


def grid_from_durations(h, a: float, b: float) -> SamplingGrid:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if not np.all(h > 0):
        raise NonPositiveDuration(f"durations must be positive, got {h.tolist()}")
    _check_interval(a, b)
    total = float(np.sum(h))
    span = float(b) - float(a)
    if abs(total - span) > 1e-12 * max(1.0, abs(span)):
        raise DurationMismatch(f"durations sum to {total!r}, interval length is {span!r}")
    s = np.concatenate(([float(a)], float(a) + np.cumsum(h)))
    s[-1] = float(b)
    return _grid_from_nodes(s)


def load_problem(source) -> LQProblem:
    """Build an (unvalidated) problem from a JSON file path or a parsed dict.

    Every field takes the forms `make_problem` takes, with nested arrays
    reshaped to the field's shape first, so a flat list of 4 numbers is a
    2x2 matrix; {"poly": [[[c0, c1, ...], ...], ...]} holds per-entry
    polynomial coefficients in t, lowest degree first.  B is read at the
    file's m.  Missing omega, x, v, qb default to zero; a key that names no
    field is rejected.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read problem file {source!r}: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"problem file {source!r} must hold a JSON object")
    for key in ("a", "b", "n", "m", "A", "B", "W", "R", "S", "qa"):
        if key not in doc:
            raise ValidationError(f"problem file missing field {key!r}")
    a, b = (_json_number(doc, key, float) for key in ("a", "b"))
    n, m = (_json_number(doc, key, int) for key in ("n", "m"))
    if n < 1 or m < 1:
        raise DimensionMismatch(f"need positive dimensions, got n={n}, m={m}")
    # problem file key -> (make_problem argument, shape of the field)
    table = {
        "A": ("A", (n, n)),
        "B": ("B", (n, m)),
        "W": ("W", (n, n)),
        "R": ("R", (m, m)),
        "S": ("S", (n, n)),
        "qa": ("q_a", (n,)),
        "omega": ("omega", (n,)),
        "x": ("x", (n,)),
        "v": ("v", (m,)),
        "qb": ("q_b", (n,)),
    }
    unknown = [key for key in doc if key not in table and key not in ("a", "b", "n", "m")]
    if unknown:
        raise ValidationError(f"problem file has unknown fields {unknown}")
    fields = {}
    for key, (field, shape) in table.items():
        if key in doc:
            value = doc[key]
            # null and objects go on to make_problem as they are, except for
            # q_a and q_b, which make_problem reads only as arrays
            if field in ("q_a", "q_b") or not (value is None or isinstance(value, dict)):
                value = _json_array(value, shape, key)
            fields[field] = value
    # make_problem takes m from B's columns; converted here, B has the file's m
    fields["B"] = as_coefficient(fields["B"], (n, m), "B")
    return make_problem(a, b, **fields)


def _json_number(doc: dict, key: str, cast):
    """doc[key] as a float, or as an int for cast=int; booleans, strings and fractional counts are rejected."""
    value = doc[key]
    number = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = cast(value)
        except (ValueError, OverflowError):  # int() of nan or inf, float() of a huge int
            pass
    if number is None or (cast is int and number != value):
        kind = "an integer" if cast is int else "a number"
        raise ValidationError(f"problem file field {key!r} must be {kind}, got {value!r}")
    return number


def _json_array(value, shape, name) -> np.ndarray:
    """value as an array of the given shape, reshaped from any shape of the same size.

    Every entry must be a number: strings and booleans are rejected, not parsed.
    """
    entries = np.asarray(value, dtype=object)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entries.flat):
        raise ValidationError(f"{name} is not a rectangular array of numbers")
    try:
        arr = entries.astype(float)
    except OverflowError:
        raise ValidationError(f"{name} has an entry too large for a float") from None
    try:
        return arr.reshape(shape)
    except ValueError:
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {tuple(shape)}") from None
