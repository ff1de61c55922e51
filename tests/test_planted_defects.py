"""Planted defects: each case plants one small defect in the library, and at least one cheap check must fail.

A case patches one function at the name its caller looks up.  A defect
inside a function's body is planted by recompiling that function's source
with one snippet replaced, so the case fails loudly once the snippet is no
longer in the code.  The checks are independent of the path they check:

- oracle: the sweep against the dense QP on random seeds 3-5, at 1e-10
  relative (clean: about 2e-14);
- costate: criterion 5's sampled stationarity residual, the solution at
  M = 64 against a costate run at M = 256, on N = 5 intervals, at 1e-6
  relative (clean: about 2e-9);
- van-loan: the constant-data blocks converge to Van Loan's exact
  integrals at fourth order from M = 8 to 16;
- long-double: the sweep and synthesis against the same recursion in long
  double at 1e-14, on seeds 3-5 (seeds 4 and 5 have m = 3);
- ode: time-varying blocks converge to scipy's DOP853 reference at fourth
  order from M = 8 to 16;
- riccati: the sweep's K_i and J_i converge to the classical Riccati
  solution at second order and its gains at first order, on uniform:8, 16
  and 32 at M = 32, on timevarying-demo and seed 7 (both forced, with
  S q_b != 0).

A defect that no check sees does not get a weaker check: it is recorded as
an open finding.
"""

import __future__
import functools
import inspect

import numpy as np
import pytest

import sampledlq as sq
from sampledlq import blocks, riccati, simulate, transition
from sampledlq.errors import SampledLQError

from conftest import max_relative_residual
from test_blocks import _ode_case, _ode_reference, _van_loan_blocks
from test_riccati import _assert_riccati_orders, _classical_riccati, _longdouble_solve, _riccati_source

ORACLE_SEEDS = (3, 4, 5)


def _relative(got, ref):
    return np.max(np.abs(got - ref)) / (1.0 + np.max(np.abs(ref)))


def check_oracle():
    for seed in ORACLE_SEEDS:
        report = sq.cross_check(*sq.random_problem(seed), M=16)
        assert report.max_rel_diff <= 1e-10, (seed, report.max_rel_diff)


def check_costate():
    for name in ("dontchev", "timevarying-demo"):
        p = sq.get_problem(name).problem
        _, _, sol = sq.solve(p, sq.uniform_grid(5, p.a, p.b), M=64)
        residual = max_relative_residual(p, sol, 256)
        assert residual <= 1e-6, (name, residual)


def _fourth_order(errors):
    for e0, e1 in zip(errors, errors[1:]):
        assert 15.0 <= e0 / e1 <= 17.0, errors


def check_van_loan():
    for source in ("dontchev", 2):
        p = sq.get_problem(source).problem if isinstance(source, str) else sq.random_problem(source)[0]
        grid = sq.uniform_grid(4, p.a, p.b)
        refs = _van_loan_blocks(p, float(grid.h[0]))
        errors = [[_relative(got[0], ref) for got, ref in zip((b.step, b.state_cost), refs)]
                  for b in (sq.compute_all_blocks(p, grid, M) for M in (8, 16))]
        for errs in zip(*errors):
            _fourth_order(errs)


def check_long_double():
    for seed in ORACLE_SEEDS:
        p, grid = sq.random_problem(seed)
        blocks_, _, sol = sq.solve(p, grid, M=16)
        ref_U, ref_cost = _longdouble_solve(blocks_, p.S, p.q_a)
        assert np.max(np.abs(sol.U - ref_U)) <= 1e-14 * (1.0 + np.max(np.abs(ref_U))), seed
        assert abs(sol.predicted_cost - ref_cost) <= 1e-14 * (1.0 + abs(ref_cost)), seed


@functools.cache
def _ode_case_and_reference():
    p, grid = _ode_case("timevarying-demo")
    return p, grid, _ode_reference(p, grid, np.stack((grid.s[:-1], grid.s[1:]), axis=1))


def check_ode():
    p, grid, (Ys, state_cost, _) = _ode_case_and_reference()
    errors = [(_relative(b.Ys[:, -1], Ys[:, -1]), _relative(b.state_cost, state_cost))
              for b in (sq.compute_all_blocks(p, grid, M) for M in (8, 16))]
    for errs in zip(*errors):
        _fourth_order(errs)


@functools.cache
def _riccati_case(source):
    p = _riccati_source(source)
    return p, _classical_riccati(p)


def check_riccati():
    for source in ("timevarying-demo", 7):
        p, reference = _riccati_case(source)
        _assert_riccati_orders(p, reference, [sq.uniform_grid(N, p.a, p.b) for N in (8, 16, 32)], K_from=0, gain_from=0)


CHECKS = {"oracle": check_oracle, "costate": check_costate, "van-loan": check_van_loan,
          "long-double": check_long_double, "ode": check_ode, "riccati": check_riccati}


def _mutant(function, old, new):
    """function recompiled from its source, in a copy of its module's namespace, with old, found once, as new."""
    source = inspect.getsource(function)
    assert source.count(old) == 1, (function.__qualname__, old)
    namespace = dict(function.__globals__)
    code = compile(source.replace(old, new), f"<{function.__module__}.{function.__qualname__}, planted>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[function.__name__]


def _trapezoid_weights(times):
    w = np.ones(times.shape[-1])
    w[[0, -1]] = 0.5
    return w * ((times[..., -1] - times[..., 0]) / (times.shape[-1] - 1))[..., None]


def _scaled_nodes(maps, i, M):
    return transition.propagate_interval(maps, i, M) * (1.0 + 1e-6)


# case -> [(module, name, replacement)]; a replacement is a function or an (old, new) snippet of the source.
# The comment names the checks that catch the case.
DEFECTS = {
    # oracle, costate, van-loan, ode
    "nodes-scaled": [(blocks, "propagate_interval", _scaled_nodes)],
    # van-loan, ode; the oracle's batch and the blocks integrate the same trapezoid functional
    "trapezoid-weights": [(blocks, "simpson_weights", _trapezoid_weights),
                          (simulate, "simpson_weights", _trapezoid_weights)],
    # costate
    "costate-left-node": [(simulate, "_costate", ("0.5 * (q[..., 1:, :] + q[..., :-1, :])", "q[..., :-1, :]"))],
    # costate, ode; the blocks and the oracle's batch share the table
    "A-half-step-late": [(transition, "_affine_table", (
        'else half)', 'else half + (half[..., 1:2] - half[..., :1]) * (cf is p.A))'))],
    # costate, on N = 5 intervals: the run's joins read the padding
    "tree-padded-in-front": [(simulate, "_vector_run", ("ends[0, r] =", "ends[0, ends.shape[1] - N :][r] ="))],
    # long-double
    "m2-feedback-scaled": [(riccati, "backward_sweep", (
        "np.linalg.solve(L.T, np.linalg.solve(L, f))", "np.linalg.solve(L.T, np.linalg.solve(L, f)) * (1 + 1e-13)"))],
    # oracle, riccati: the -W x forcing of J enters the blocks with the wrong sign
    "J-forcing-sign": [(blocks, "compute_blocks", ("Y[..., -1] -= xk", "Y[..., -1] += xk"))],
    # oracle, costate, riccati: the last step misses the -q_b shift, so J(b) = -S q_b is lost
    "q_b-shift-missing": [(riccati, "compute_all_blocks", ("step[-1, :, -1] -= p.q_b", "step[-1, :, -1] -= 0.0"))],
    # oracle, costate, long-double, riccati: the blocks carry the wrong terminal weight
    "S-wrong": [(riccati, "compute_all_blocks", ("p.S, Ys, times", "2.0 * p.S, Ys, times"))],
}


def _failing():
    """The names of the checks that fail, by an assertion or a typed library error."""
    failing = []
    for name, check in CHECKS.items():
        try:
            check()
        except (AssertionError, SampledLQError):
            failing.append(name)
    return failing


def test_every_check_passes_on_the_unpatched_code():
    assert _failing() == []


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_planted_defect_is_caught(case, monkeypatch):
    for module, name, replacement in DEFECTS[case]:
        if isinstance(replacement, tuple):
            replacement = _mutant(getattr(module, name), *replacement)
        monkeypatch.setattr(module, name, replacement)
    assert _failing(), case
