import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampledlq as sq
from sampledlq.errors import (
    DimensionMismatch,
    DurationMismatch,
    InvalidInterval,
    NonPositiveDuration,
    NotPD,
    NotPSD,
    TooLarge,
    ValidationError,
)
from sampledlq.problem import CoefficientFunction, make_problem


class TestCoefficientFunction:
    def test_constant_is_pure(self):
        cf = CoefficientFunction.constant([[1.0, 2.0], [3.0, 4.0]])
        a = cf(0.3)
        b = cf(0.3)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            a[0, 0] = 99.0  # read-only

    def test_poly_matches_horner(self):
        cf = CoefficientFunction.poly([[[1.0, 2.0], [0.0, 0.0, 3.0]], [[5.0], [-1.0, 1.0]]])
        t = 0.7
        expected = np.array([[1.0 + 2.0 * t, 3.0 * t * t], [5.0, -1.0 + t]])
        assert np.allclose(cf(t), expected, atol=1e-15)
        assert cf.shape == (2, 2)

    def test_poly_vector(self):
        cf = CoefficientFunction.poly([[0.0, 1.0], [2.0]])
        assert cf.shape == (2,)
        assert np.allclose(cf(0.5), [0.5, 2.0])

    @pytest.mark.parametrize("cf", [
        CoefficientFunction.constant([[1.0, 2.0], [3.0, 4.0]]),
        CoefficientFunction.poly([[[0.3, 1.0, -0.5], [2.0]], [[0.0, 0.0, 1.5], [-1.0, 0.25]]]),
        CoefficientFunction("builtin", (2, 2), lambda t: np.array([[t, 1.0], [0.0, 2.0]]), name="forms"),
        CoefficientFunction("builtin", (2, 2), lambda t: np.array([[t, 1.0 / 3.0], [t * t, 0.1]]),
                            name="asym").symmetrized(),
    ], ids=["constant", "poly", "builtin", "symmetrized-builtin"])
    def test_eval_many_any_time_shape(self, cf):
        ts = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, 5))
        out = cf.eval_many(ts)
        assert out.shape == ts.shape + cf.shape
        assert np.array_equal(out, np.stack([cf.eval_many(row) for row in ts]))

    @pytest.mark.parametrize("cf", [
        CoefficientFunction.constant([[1.0, 2.0], [3.0, 4.0]]),
        CoefficientFunction.constant([0.5, -1.5, 2.5]),
        CoefficientFunction("constant", (2, 2), np.array([[1.0, 2.0], [3.0, 4.0]])),  # data left writable
        CoefficientFunction("constant", (2,), np.arange(4.0)[::2]),  # strided data
    ], ids=["matrix", "vector", "writable-data", "strided-data"])
    @pytest.mark.parametrize("ts", [np.float64(0.3), np.linspace(0.0, 1.0, 5), np.ones((3, 4))],
                             ids=["ndim0", "ndim1", "ndim2"])
    def test_eval_many_constant_is_a_broadcast_view(self, cf, ts):
        out = cf.eval_many(ts)
        assert out.shape == np.shape(ts) + cf.shape
        assert out.tobytes() == np.broadcast_to(cf.data, out.shape).tobytes()
        assert np.shares_memory(out, cf.data)
        with pytest.raises(ValueError):
            out[...] = 0.0

    def test_eval_many_poly_is_fresh(self):
        cf = CoefficientFunction.poly([[[0.3, 1.0 / 3.0, -0.5], [2.0]], [[0.0, 0.0, 1.5], [-1.0, 0.25]]])
        ts = np.random.default_rng(1).uniform(-1.0, 2.0, size=(4, 3))
        tcol = ts[..., None, None]
        expected = np.broadcast_to(cf.data[-1], ts.shape + cf.shape).copy()  # reference: broadcast-and-copy Horner
        for d in range(cf.data.shape[0] - 2, -1, -1):
            expected *= tcol
            expected += cf.data[d]
        out = cf.eval_many(ts)
        assert out.tobytes() == expected.tobytes() and out.shape == expected.shape
        assert out.flags.writeable and out.flags.owndata
        out[...] = 0.0
        assert cf.eval_many(ts).tobytes() == expected.tobytes()

    def test_eval_many_matches_single(self):
        cf = CoefficientFunction.poly([[[0.0, 1.0, -0.5]]])
        ts = np.linspace(0.0, 1.0, 7)
        stacked = cf.eval_many(ts)
        for k, t in enumerate(ts):
            assert np.array_equal(stacked[k], cf(t))

    def test_symmetrized_idempotent(self):
        cf = CoefficientFunction.constant([[0.0, 1.0], [0.0, 0.0]])
        s1 = cf.symmetrized()
        s2 = s1.symmetrized()
        assert s2 is s1
        assert np.array_equal(s1(0.0), np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_symmetrized_poly(self):
        cf = CoefficientFunction.poly([[[1.0], [2.0, 4.0]], [[0.0], [3.0]]])
        sym = cf.symmetrized()
        t = 0.25
        val = cf(t)
        assert np.allclose(sym(t), 0.5 * (val + val.T))

    def test_builtin_shape_enforced(self):
        cf = CoefficientFunction("builtin", (2, 2), lambda t: np.eye(3), name="bad")
        with pytest.raises(DimensionMismatch):
            cf(0.0)


class TestValidation:
    def test_scalar_benchmark(self, dontchev):
        assert dontchev.validated
        assert dontchev.c_R == pytest.approx(1.0)
        assert dontchev.n == 1 and dontchev.m == 1

    def test_antisymmetric_S_symmetrizes_to_zero(self):
        p = make_problem(0, 1, A=np.zeros((2, 2)), B=np.eye(2), W=np.eye(2), R=np.eye(2),
                         S=[[0.0, 1.0], [-1.0, 0.0]], q_a=[1.0, 0.0])
        v = sq.validate_problem(p)
        assert np.array_equal(v.S, np.zeros((2, 2)))

    def test_zero_R_rejected(self):
        p = make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[1.0]], R=[[0.0]], S=[[0.0]], q_a=[1.0])
        with pytest.raises(NotPD):
            sq.validate_problem(p)

    def test_indefinite_W_rejected(self):
        p = make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[-1.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0])
        with pytest.raises(NotPSD):
            sq.validate_problem(p)

    def test_definiteness_errors_are_distinct(self):
        psd, pd = NotPSD("W", 0.5, -1.0), NotPD("R", None, -2.0)
        assert str(psd) == "W is not positive semidefinite at t=0.5: min eigenvalue -1"
        assert str(pd) == "R is not positive definite: min eigenvalue -2"
        assert (psd.name, psd.t, psd.eigenvalue) == ("W", 0.5, -1.0)
        assert (pd.name, pd.t, pd.eigenvalue) == ("R", None, -2.0)
        assert psd.exit_code == pd.exit_code == 2
        # pytest.raises(NotPSD) must not catch NotPD, nor the other way round
        assert not isinstance(pd, NotPSD) and not isinstance(psd, NotPD)

    def test_dimension_mismatch(self):
        from dataclasses import replace

        p = make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[1.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0])
        p2 = replace(p, S=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            sq.validate_problem(p2)

    def test_reversed_interval(self):
        p = make_problem(1, 0, A=[[0.0]], B=[[1.0]], W=[[1.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0])
        with pytest.raises(InvalidInterval):
            sq.validate_problem(p)

    def test_idempotent(self, dontchev):
        again = sq.validate_problem(dontchev)
        assert np.array_equal(again.S, dontchev.S)
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(again.W(t), dontchev.W(t))
            assert np.array_equal(again.R(t), dontchev.R(t))
        assert again.c_R == dontchev.c_R

    @pytest.mark.parametrize(
        "r_root, error, name",
        [(0.4, NotPD, "R"), (0.6, NotPSD, "W")],
    )
    def test_earliest_probe_wins(self, r_root, error, name):
        # W(t) = 0.6 - t fails PSD from t = 0.625 on; R(t) = r_root - t fails
        # PD from the first probe past r_root.  R failing first must raise for
        # R even though W is checked before R within a probe; at the same
        # probe, W's check comes first.
        p = make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=CoefficientFunction.poly([[[0.6, -1.0]]]),
                         R=CoefficientFunction.poly([[[r_root, -1.0]]]), S=[[0.0]], q_a=[1.0])
        ts = np.linspace(0.0, 1.0, 33)
        with pytest.raises(error) as info:
            sq.validate_problem(p)
        assert info.value.name == name
        k = 13 if name == "R" else 20
        assert info.value.t == ts[k]
        assert info.value.eigenvalue == pytest.approx((r_root if name == "R" else 0.6) - ts[k])

    def test_nonfinite_before_definiteness_at_same_probe(self):
        # A is not finite from t = 0.5 on and R fails PD from t = 0.5 on: A is checked first.
        p = make_problem(0, 1, A=lambda t: np.array([[np.inf if t >= 0.5 else 0.0]]), B=[[1.0]],
                         W=[[1.0]], R=CoefficientFunction.poly([[[0.5, -1.0]]]), S=[[0.0]], q_a=[1.0])
        with pytest.raises(ValidationError, match=r"^A\(0\.5\) is not finite$"):
            sq.validate_problem(p)

    # Constants are probed once, at a; builtins and polynomials at every probe.
    # a = 0.25 so that "at a" is not t = 0.

    def test_failing_constant_fails_at_a_before_a_later_builtin(self):
        # W has a NaN entry; x turns non-finite only past t = 0.5
        W = np.eye(2)
        W[0, 1] = np.nan
        p = make_problem(0.25, 1.25, A=np.zeros((2, 2)), B=[[0.0], [1.0]], W=W, R=[[1.0]], S=np.eye(2),
                         q_a=[1.0, 0.0], x=lambda t: np.array([np.inf if t > 0.5 else 0.0, 0.0]))
        with pytest.raises(ValidationError, match=r"^W\(0\.25\) is not finite$"):
            sq.validate_problem(p)

    def test_constant_not_pd_fails_at_a_before_a_builtin_at_probe_5(self):
        t5 = np.linspace(0.25, 1.25, 33)[5]
        p = make_problem(0.25, 1.25, A=lambda t: np.array([[np.inf if t == t5 else 0.0]]), B=[[1.0, 0.0]],
                         W=[[1.0]], R=[[1.0, 2.0], [2.0, 1.0]], S=[[0.0]], q_a=[1.0])
        with pytest.raises(NotPD) as info:
            sq.validate_problem(p)
        assert (info.value.name, info.value.t) == ("R", 0.25)
        assert info.value.eigenvalue == pytest.approx(-1.0)

    def test_constants_keep_the_check_order_within_a_probe(self):
        p = make_problem(0.25, 1.25, A=[[np.inf]], B=[[1.0]], W=[[-1.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0])
        with pytest.raises(ValidationError, match=r"^A\(0\.25\) is not finite$"):
            sq.validate_problem(p)

    def test_c_R_of_a_constant_is_its_eigenvalue(self):
        R = np.array([[2.0, 0.3, -0.1], [0.1, 1.5, 0.2], [0.4, -0.2, 1.1]])
        p = make_problem(0.25, 1.25, A=np.zeros((3, 3)), B=np.eye(3), W=np.eye(3), R=R, S=np.eye(3), q_a=np.ones(3))
        assert sq.validate_problem(p).c_R == float(np.linalg.eigvalsh(0.5 * (R + R.T))[0])

    def test_builtin_is_evaluated_at_every_probe_first(self):
        # W fails at a, but x is evaluated at all 33 probes before any check
        ts = []

        def x(t):
            ts.append(t)
            return np.zeros(1)

        p = make_problem(0.25, 1.25, A=[[0.0]], B=[[1.0]], W=[[-1.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0], x=x)
        with pytest.raises(NotPSD):
            sq.validate_problem(p)
        assert np.array_equal(ts, np.linspace(0.25, 1.25, 33))

    def test_c_R_quantified(self):
        rng = np.random.default_rng(5)
        problem, _ = sq.random_problem(11)
        for t in np.linspace(problem.a, problem.b, 9):
            R = problem.R(t)
            for _ in range(10):
                z = rng.normal(size=problem.m)
                assert z @ (R @ z) >= problem.c_R * (z @ z) * (1.0 - 1e-12)


class TestNonFiniteAndMisSizedData:
    """Bad problem data raises a ValidationError subclass (CLI exit code 2)."""

    def _base(self, **overrides):
        return make_problem(**{**dict(a=0.0, b=1.0, A=[[0.0]], B=[[1.0]], W=[[1.0]], R=[[1.0]],
                                      S=[[0.0]], q_a=[1.0]), **overrides})

    @pytest.mark.parametrize("field, value, error", [
        ("S", [[np.nan]], ValidationError),
        ("S", [[np.inf]], ValidationError),
        ("q_a", [np.nan], ValidationError),
        ("q_b", [-np.inf], ValidationError),
        ("a", -np.inf, InvalidInterval),
        ("a", np.nan, InvalidInterval),
        ("b", np.inf, InvalidInterval),
    ])
    def test_nonfinite_constant_data(self, field, value, error):
        with pytest.raises(error, match="finite"):
            sq.validate_problem(self._base(**{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("q_a", None),
        ("q_a", {"poly": [[1.0], [0.0]]}),
        ("q_a", lambda t: np.array([1.0, 0.0])),
        ("q_a", CoefficientFunction.constant([1.0, 0.0])),
        ("q_b", {"poly": [[1.0], [0.0]]}),
        ("q_b", lambda t: np.array([1.0, 0.0])),
        ("q_b", CoefficientFunction.constant([1.0, 0.0])),
    ])
    def test_state_vectors_are_constant(self, field, value):
        # double-integrator data; q_a and q_b have no other form than numbers
        data = dict(a=0.0, b=1.0, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], W=np.eye(2),
                    R=[[1.0]], S=np.eye(2), q_a=[1.0, 0.0])
        with pytest.raises(ValidationError, match=field):
            make_problem(**{**data, field: value})
        assert np.array_equal(make_problem(**{**data, "q_b": None}).q_b, np.zeros(2))

    @pytest.mark.parametrize("B", [1.0, [1.0], [[0.0, 1.0]], [[1.0], [2.0], [3.0]], np.ones((2, 2, 2))])
    def test_mis_sized_B(self, B):
        with pytest.raises(DimensionMismatch):
            make_problem(**{**_make_base(), "B": B})

    @pytest.mark.parametrize("data, dims", [
        (dict(A=np.zeros((0, 0)), B=np.zeros((0, 1)), W=np.zeros((0, 0)), S=np.zeros((0, 0)), q_a=[]), "n=0, m=1"),
        (dict(B=np.zeros((1, 0)), R=np.zeros((0, 0))), "n=1, m=0"),
    ])
    def test_empty_dimensions(self, data, dims):
        # make_problem is the library's way in, so it rejects n or m < 1 as load_problem does, before
        # validation would index an empty eigenvalue list or B is reshaped to no columns
        with pytest.raises(DimensionMismatch, match=dims):
            self._base(**data)

    @pytest.mark.parametrize("field, value", [("S", [[1.0]]), ("qa", [1.0]), ("qb", [1.0, 2.0, 3.0])])
    def test_mis_sized_json_constants(self, field, value):
        with pytest.raises(DimensionMismatch):
            sq.load_problem({**_doc_base(), field: value})

    @pytest.mark.parametrize("coeffs", [[[[1.0], [2.0]], [[3.0]]], [[[1.0]], [[2.0], [3.0]]]])
    def test_ragged_poly_grid(self, coeffs):
        with pytest.raises(DimensionMismatch):
            CoefficientFunction.poly(coeffs)

    @pytest.mark.parametrize("N, a, b", [(2, -np.inf, 1.0), (2, 0.0, np.inf), (2, np.nan, 1.0)])
    def test_uniform_grid_nonfinite_interval(self, N, a, b):
        with pytest.raises(InvalidInterval):
            sq.uniform_grid(N, a, b)

    @pytest.mark.parametrize("h, a, b, error", [
        ([np.nan, 1.0], 0.0, 1.0, NonPositiveDuration),
        ([0.5, 0.5], -np.inf, 1.0, InvalidInterval),
        ([0.5, 0.5], 0.0, np.nan, InvalidInterval),
        ([np.inf, 1.0], 0.0, 1.0, DurationMismatch),
    ])
    def test_durations_nonfinite(self, h, a, b, error):
        with pytest.raises(error):
            sq.grid_from_durations(h, a, b)


class TestGrids:
    def test_uniform_single(self):
        g = sq.uniform_grid(1, 0.0, 1.0)
        assert np.array_equal(g.h, [1.0])
        assert np.array_equal(g.s, [0.0, 1.0])

    def test_uniform_quarters(self):
        g = sq.uniform_grid(4, 0.0, 1.0)
        assert np.array_equal(g.s, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_uniform_offset(self):
        g = sq.uniform_grid(3, -1.0, 2.0)
        assert np.allclose(g.h, [1.0, 1.0, 1.0])
        assert g.s[0] == -1.0 and g.s[-1] == 2.0

    def test_duration_examples(self):
        g = sq.grid_from_durations([0.5, 0.5], 0.0, 1.0)
        assert np.array_equal(g.s, [0.0, 0.5, 1.0])
        g = sq.grid_from_durations([0.3, 0.7], 0.0, 1.0)
        assert np.allclose(g.s, [0.0, 0.3, 1.0])

    def test_duration_mismatch(self):
        with pytest.raises(DurationMismatch):
            sq.grid_from_durations([0.5, 0.6], 0.0, 1.0)

    def test_nonpositive_duration(self):
        with pytest.raises(NonPositiveDuration):
            sq.grid_from_durations([0.5, -0.5, 1.0], 0.0, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            sq.uniform_grid(2, 1.0, 1.0)

    @pytest.mark.parametrize("N", [2.5, 2.0, True, "2", None])
    def test_uniform_count_must_be_an_integer(self, N):
        with pytest.raises(InvalidInterval, match="integer"):
            sq.uniform_grid(N, 0.0, 1.0)

    def test_uniform_numpy_integer_count(self):
        g = sq.uniform_grid(np.int64(3), 0.0, 1.0)
        assert g.s.tobytes() == sq.uniform_grid(3, 0.0, 1.0).s.tobytes()

    def test_uniform_beyond_index_range(self):
        # N + 1 sample times past np.intp's range; nothing is allocated before the check
        with pytest.raises(TooLarge, match=f"N = {2**64}"):
            sq.uniform_grid(2**64, 0.0, 1.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12))
    @settings(deadline=None, max_examples=50)
    def test_exact_difference_invariant(self, durations):
        total = sum(durations)
        g = sq.grid_from_durations(durations, 0.0, total)
        assert np.array_equal(g.s[1:] - g.s[:-1], g.h)
        assert g.s[-1] == total
        assert g.norm_delta == np.max(g.h)

    def test_tail_shares_nodes_bitwise(self):
        g = sq.grid_from_durations([0.2, 0.3, 0.5], 0.0, 1.0)
        t = g.tail(1)
        assert t.N == 2
        assert np.array_equal(t.s, g.s[1:])
        assert np.array_equal(t.h, g.h[1:])

    def test_tail_index_must_be_an_integer(self):
        g = sq.grid_from_durations([0.2, 0.3, 0.5], 0.0, 1.0)
        for bad in (1.5, True, np.float64(1.0)):  # True would slice as 1
            with pytest.raises(InvalidInterval):
                g.tail(bad)
        assert np.array_equal(g.tail(np.int64(1)).s, g.tail(1).s)


class TestJsonLoading:
    def _doc(self):
        return {
            "a": 0.0, "b": 1.0, "n": 1, "m": 1,
            "A": [[0.5]], "B": [[1.0]], "W": [[2.0]], "R": [[1.0]], "S": [[0.0]],
            "qa": [1.0],
        }

    def test_constant_problem_roundtrip(self, tmp_path, analytic):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self._doc()))
        p = sq.validate_problem(sq.load_problem(str(path)))
        _, _, sol = sq.solve(p, sq.uniform_grid(1, 0, 1), 64)
        assert sol.U[0, 0] == pytest.approx(analytic["U0"], abs=1e-9)

    def test_defaults_are_zero(self):
        p = sq.load_problem(self._doc())
        ts = np.linspace(p.a, p.b, 5)
        for cf in (p.omega, p.x_ref, p.v_ref):  # n = m = 1
            assert np.array_equal(cf.eval_many(ts), np.zeros((5, 1)))
        assert np.array_equal(p.q_b, np.zeros(1))

    def test_polynomial_entries(self):
        doc = self._doc()
        doc["A"] = {"poly": [[[0.5, -0.25]]]}
        doc["omega"] = {"poly": [[0.0, 1.0]]}
        p = sq.load_problem(doc)
        assert p.A(0.0)[0, 0] == 0.5
        assert p.A(1.0)[0, 0] == 0.25
        assert p.omega(0.5)[0] == 0.5

    def test_missing_field(self):
        doc = self._doc()
        del doc["W"]
        with pytest.raises(ValidationError):
            sq.load_problem(doc)

    def test_S_must_be_constant(self):
        doc = self._doc()
        doc["S"] = {"poly": [[[1.0]]]}
        with pytest.raises(ValidationError):
            sq.load_problem(doc)

    def test_bad_shape(self):
        doc = self._doc()
        doc["B"] = [[1.0], [2.0]]
        with pytest.raises(DimensionMismatch):
            sq.load_problem(doc)

    def test_unknown_builtin(self):
        doc = self._doc()
        doc["A"] = {"builtin": "no-such-coefficient"}
        with pytest.raises(ValidationError):
            sq.load_problem(doc)

    @pytest.mark.parametrize("key", ["qB", "omgea"])
    def test_unknown_key_rejected(self, key):
        # a misspelled optional field is not read as zero
        with pytest.raises(ValidationError, match=repr(key)):
            sq.load_problem({**self._doc(), key: [5.0]})



def _make_base():
    return dict(a=0.0, b=1.0, A=np.zeros((2, 2)), B=[[0.0], [1.0]], W=np.eye(2), R=[[1.0]],
                S=np.eye(2), q_a=[1.0, 0.0])


def _doc_base():
    return {"a": 0.0, "b": 1.0, "n": 2, "m": 1, "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]],
            "W": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]], "S": [[1.0, 0.0], [0.0, 1.0]], "qa": [1.0, 0.0]}


_MATRIX_AT_HALF = np.array([[0.5, 1.0], [0.0, 2.0]])
_VECTOR_AT_HALF = np.array([0.5, 3.0])

# (field, value, expected value at t = 0.5 or exception class); n = 2, m = 1
MAKE_PROBLEM_CASES = [
    ("A", 0.5, np.diag([0.5, 0.5])),
    ("A", [1.0, 2.0], DimensionMismatch),
    ("A", [[1.0, 2.0], [3.0, 4.0]], np.array([[1.0, 2.0], [3.0, 4.0]])),
    ("A", [[1.0, 2.0, 3.0]], DimensionMismatch),
    ("A", CoefficientFunction.poly([[[0.0, 1.0], [1.0]], [[0.0], [2.0]]]), _MATRIX_AT_HALF),
    ("A", CoefficientFunction.poly([[[0.0, 1.0]]]), DimensionMismatch),
    ("A", CoefficientFunction.constant([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])),
    ("A", lambda t: np.array([[t, 1.0], [0.0, 2.0]]), _MATRIX_AT_HALF),
    ("A", None, np.zeros((2, 2))),
    ("W", 2.0, np.diag([2.0, 2.0])),
    ("R", 3.0, np.array([[3.0]])),
    ("R", [3.0], np.array([[3.0]])),
    ("B", [0.0, 1.0], np.array([[0.0], [1.0]])),
    ("B", [[0.0], [1.0]], np.array([[0.0], [1.0]])),
    ("B", CoefficientFunction.poly([[[0.0]], [[0.0, 2.0]]]), np.array([[0.0], [1.0]])),
    ("B", CoefficientFunction.poly([[[0.0, 2.0]]]), DimensionMismatch),
    ("B", lambda t: np.array([[0.0], [2.0 * t]]), np.array([[0.0], [1.0]])),
    ("omega", 0.5, DimensionMismatch),
    ("omega", [0.5, 3.0], _VECTOR_AT_HALF),
    ("omega", [[0.5, 3.0]], DimensionMismatch),
    ("omega", CoefficientFunction.poly([[0.0, 1.0], [3.0]]), _VECTOR_AT_HALF),
    ("omega", CoefficientFunction.poly([[0.0, 1.0]]), DimensionMismatch),
    ("omega", CoefficientFunction.constant([0.5, 3.0]), _VECTOR_AT_HALF),
    ("omega", lambda t: np.array([t, 3.0]), _VECTOR_AT_HALF),
    ("omega", None, np.zeros(2)),
    ("x", [0.5, 3.0], _VECTOR_AT_HALF),
    ("v", 0.5, np.array([0.5])),
    ("v", [0.5], np.array([0.5])),
    ("v", [0.5, 1.0], DimensionMismatch),
    ("v", None, np.zeros(1)),
    ("A", {"poly": [[[0.0, 1.0], [1.0]], [[0.0], [2.0]]]}, _MATRIX_AT_HALF),
    ("A", {"builtin": "decay"}, ValidationError),  # the retired named-coefficient form
    ("A", {"matrix": [[1.0]]}, ValidationError),
    ("W", {"poly": [[[1.0], [0.0]], [[0.0], [0.0, 2.0]]]}, np.eye(2)),
    ("W", None, np.zeros((2, 2))),
    ("R", {"poly": [[[1.0, 2.0]]]}, np.array([[2.0]])),
    ("R", None, NotPD),  # a zero R
    ("B", {"poly": [[[0.0]], [[0.0, 2.0]]]}, np.array([[0.0], [1.0]])),
    ("B", {"poly": [[[0.0, 2.0]]]}, DimensionMismatch),
    ("B", None, ValidationError),
    ("S", None, np.zeros((2, 2))),
    ("S", {"poly": [[[1.0], [0.0]], [[0.0], [1.0]]]}, ValidationError),
    ("S", lambda t: np.eye(2), ValidationError),
]

# (field, value, expected value at t = 0.5 or exception class); n = 2, m = 1
LOAD_PROBLEM_CASES = [
    ("A", 0.5, DimensionMismatch),
    ("A", [1.0, 2.0, 3.0, 4.0], np.array([[1.0, 2.0], [3.0, 4.0]])),  # flat 2x2 is reshaped
    ("A", [1.0, 2.0], DimensionMismatch),
    ("A", [[1.0, 2.0], [3.0, 4.0]], np.array([[1.0, 2.0], [3.0, 4.0]])),
    ("A", [[1.0, 2.0, 3.0]], DimensionMismatch),
    ("A", {"poly": [[[0.0, 1.0], [1.0]], [[0.0], [2.0]]]}, _MATRIX_AT_HALF),
    ("A", {"poly": [[[0.0, 1.0]]]}, DimensionMismatch),
    ("A", [[1, 2], [3, 4]], np.array([[1.0, 2.0], [3.0, 4.0]])),  # JSON integers read as floats
    ("A", {"builtin": "decay"}, ValidationError),  # the retired named-coefficient form
    ("A", {"matrix": [[1.0]]}, ValidationError),
    ("A", lambda t: np.eye(2), ValidationError),
    ("A", None, np.zeros((2, 2))),
    ("B", [0.0, 1.0], np.array([[0.0], [1.0]])),
    ("B", [[0.0, 1.0]], np.array([[0.0], [1.0]])),
    ("B", 1.0, DimensionMismatch),
    ("R", 3.0, np.array([[3.0]])),
    ("omega", 0.5, DimensionMismatch),
    ("omega", [0.5, 3.0], _VECTOR_AT_HALF),
    ("omega", [[0.5, 3.0]], _VECTOR_AT_HALF),  # a (1, 2) JSON vector is reshaped
    ("omega", [[0.5], [3.0], [1.0]], DimensionMismatch),
    ("omega", {"poly": [[0.0, 1.0], [3.0]]}, _VECTOR_AT_HALF),
    ("omega", [[0.5], [3.0]], _VECTOR_AT_HALF),  # a (2, 1) JSON column is reshaped
    ("omega", {"poly": [[0.0, 1.0]]}, DimensionMismatch),
    ("omega", lambda t: np.zeros(2), ValidationError),
    ("omega", None, np.zeros(2)),
    ("x", [0.5, 3.0], _VECTOR_AT_HALF),
    ("v", 0.5, np.array([0.5])),
    ("v", [[0.5]], np.array([0.5])),
    ("v", None, np.zeros(1)),
    ("n", 2.5, ValidationError),  # not truncated to 2
    ("n", "2", ValidationError),
    ("m", True, ValidationError),
    ("qa", ["1.5", "0.0"], ValidationError),  # not parsed as numbers
    ("qa", [True, 0.0], ValidationError),
    ("W", [["1", "0"], ["0", "1"]], ValidationError),
    ("qa", [10**400, 0.0], ValidationError),  # an integer no float holds
    ("S", None, np.zeros((2, 2))),  # null reads as zero, as make_problem reads None
    ("qa", None, ValidationError),  # qa and qb are only ever arrays
    ("qb", {"poly": [[1.0], [0.0]]}, ValidationError),
]

_ATTR = {"x": "x_ref", "v": "v_ref"}


def _check_case(build, field, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            sq.validate_problem(build())
        return
    p = sq.validate_problem(build())
    value = getattr(p, _ATTR.get(field, field))
    if isinstance(value, CoefficientFunction):
        value = value.eval_many(np.array([0.5]))[0]
    assert value.shape == expected.shape
    assert np.array_equal(value, expected)


class TestCoefficientForms:
    """Which value forms each constructor accepts for each kind of field."""

    @pytest.mark.parametrize("field, value, expected", MAKE_PROBLEM_CASES)
    def test_make_problem(self, field, value, expected):
        _check_case(lambda: make_problem(**{**_make_base(), field: value}), field, expected)

    @pytest.mark.parametrize("field, value, expected", LOAD_PROBLEM_CASES)
    def test_load_problem(self, field, value, expected):
        _check_case(lambda: sq.load_problem({**_doc_base(), field: value}), field, expected)

    def test_symmetrized_builtin_call_matches_eval_many(self):
        cf = CoefficientFunction("builtin", (2, 2), lambda t: np.array([[t, 1.0 / 3.0], [t * t, 0.1]]),
                                 name="asym").symmetrized()
        ts = np.linspace(0.0, 1.0, 9)
        stacked = cf.eval_many(ts)
        for k, t in enumerate(ts):
            value = cf(t)
            assert value.shape == (2, 2)
            assert np.array_equal(value, stacked[k])
            assert np.array_equal(value, value.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_poly_from_degree_last_stack_is_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        deg = int(rng.integers(0, 4))
        for shape in ((deg + 1, n, n), (deg + 1, n)):
            stack = rng.uniform(-1.0, 1.0, size=shape)
            cf = CoefficientFunction.poly(np.moveaxis(stack, 0, -1))
            assert cf.shape == shape[1:]
            assert cf.data.shape == stack.shape
            assert np.array_equal(cf.data, stack)


# make_problem argument -> problem file key, where they differ
_FILE_KEYS = {"q_a": "qa", "q_b": "qb"}


def _random_data(seed):
    """Seeded problem data as make_problem takes it: arrays at their shapes, polynomials as objects."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    data = {"a": float(rng.uniform(-1.0, 0.0)), "b": float(rng.uniform(0.5, 2.0)),
            "B": rng.normal(size=(n, m)), "W": rng.normal(size=(n, n)), "R": rng.normal(size=(m, m)),
            "S": rng.normal(size=(n, n)), "q_a": rng.normal(size=n)}
    data["A"] = {"poly": rng.normal(size=(n, n, 3)).tolist()} if seed % 3 == 0 else rng.normal(size=(n, n))
    if seed % 2:
        data.update(omega={"poly": rng.normal(size=(n, 2)).tolist()}, x=rng.normal(size=n),
                    v=rng.normal(size=m), q_b=rng.normal(size=n))
    return data


_REGISTRY_DATA = [
    dict(a=0.0, b=1.0, A=[[0.5]], B=[[1.0]], W=[[2.0]], R=[[1.0]], S=[[0.0]], q_a=[1.0]),
    dict(a=0.0, b=1.0, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], W=np.eye(2), R=[[1.0]], S=np.eye(2),
         q_a=[1.0, 0.0]),
    dict(a=0.0, b=1.0, A={"poly": [[[0.0], [1.0]], [[-1.0, -0.5], [0.0, -0.25]]]}, B=[[0.0], [1.0]],
         W=np.eye(2), R=[[1.0]], S=np.eye(2), q_a=[1.0, 0.0], omega={"poly": [[0.0], [0.0, 0.2]]}, v=[0.1],
         q_b=[0.5, 0.0]),
]


@pytest.mark.parametrize("data", [_random_data(seed) for seed in range(30)] + _REGISTRY_DATA)
def test_load_problem_equals_make_problem(data):
    doc = {_FILE_KEYS.get(k, k): np.asarray(v).tolist() if isinstance(v, (list, np.ndarray)) else v
           for k, v in data.items()}
    doc.update(n=len(data["q_a"]), m=np.shape(data["B"])[1])
    loaded, made = sq.load_problem(json.loads(json.dumps(doc))), make_problem(**data)
    for f in dataclasses.fields(made):
        x, y = getattr(loaded, f.name), getattr(made, f.name)
        if isinstance(y, CoefficientFunction):
            assert (x.kind, x.shape) == (y.kind, y.shape)
            x, y = x.data, y.data
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and not x.flags.writeable
            assert np.array_equal(x, y)
        else:
            assert type(x) is type(y) and x == y


def _problem_digest(seeds) -> str:
    """SHA-256 of every field of random_problem(K) for K in seeds, in dataclasses.fields order, then its grid."""
    h = hashlib.sha256()

    def array(a):
        h.update(repr((a.dtype.str, a.shape, a.flags.writeable, a.flags.c_contiguous)).encode())
        h.update(a.tobytes())

    for seed in seeds:
        p, grid = sq.random_problem(seed)
        for f in dataclasses.fields(p):
            v = getattr(p, f.name)
            if isinstance(v, CoefficientFunction):
                h.update(repr((v.kind, v.shape)).encode())
                array(v.data)
            elif isinstance(v, np.ndarray):
                array(v)
            else:
                h.update(repr(v).encode())
        array(grid.h)
        array(grid.s)
    return h.hexdigest()


class TestRandomProblem:
    def test_workload_problems_are_pinned(self):
        # K = 0..599 are the oracle-random workload's problems at workload seed 0
        assert _problem_digest(range(600)) == "56a40df943a694af72f85315d6fde0e2cdcf9064a6b00b5195bbb6bcde509ccb"

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, 2.0])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValidationError, match="must be an integer"):
            sq.random_problem(seed)

    def test_numpy_integer_seed(self):
        assert _problem_digest([np.int64(5)]) == _problem_digest([5])
