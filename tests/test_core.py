import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from online_unlearning import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    InvalidInputError,
    InvalidScheduleError,
    project,
    retained,
)
from online_unlearning.core import (
    EMPTY_SCHEDULE,
    _check_curvatures,
    as_point,
    decode_vector,
    encode_vector,
    stack_quadratics,
)
from online_unlearning.engine import StepEngine
from online_unlearning.ogd import ConstantRate

from conftest import iso_quad, quad, random_spd_quad, row_at, stream_of


class TestProject:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scales_onto_sphere(self):
        out = project(np.array([3.0, 4.0]), BallDomain(1.0))
        assert np.allclose(out, [0.6, 0.8], rtol=1e-12, atol=0)
        # A finite point whose squared norm overflows (past about 1.3e154)
        # takes its rescaled norm, without numpy's overflow warning, and so
        # does one whose norm itself is past the float range.
        assert project(np.array([1e200, 0.0]), BallDomain(1.0)).tolist() == [1.0, 0.0]
        out = project(np.array([1.5e308, 1.5e308]), BallDomain(1.0))
        assert np.array_equal(out, project(np.array([1.0, 1.0]), BallDomain(1.0)))
        assert np.allclose(out, [np.sqrt(0.5)] * 2, rtol=1e-15, atol=0)
        # Against a radius past 1.3e154 the point is measured the same way.
        assert project(np.array([1.5e154, 0.0]), BallDomain(1e200)).tolist() == [1.5e154, 0.0]
        out = project(np.array([1.5e308, 1.5e308]), BallDomain(1e200))
        assert np.allclose(out, [np.sqrt(0.5) * 1e200] * 2, rtol=1e-15, atol=0)

    def test_interior_point_unchanged(self):
        out = project(np.array([0.1, 0.0]), BallDomain(1.0))
        assert np.array_equal(out, [0.1, 0.0])

    def test_center_fixed_point(self):
        out = project(np.zeros(2), BallDomain(2.0))
        assert np.array_equal(out, np.zeros(2))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            project(np.array([np.nan, 0.0]), BallDomain(1.0))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, coords, radius):
        dom = BallDomain(radius)
        once = project(np.array(coords), dom)
        assert np.array_equal(project(once, dom), once)

    def test_one_lipschitz_sampled(self):
        rng = np.random.default_rng(0)
        dom = BallDomain(1.5)
        for _ in range(1000):
            x = rng.standard_normal(3) * 3.0
            y = rng.standard_normal(3) * 3.0
            lhs = np.linalg.norm(project(x, dom) - project(y, dom))
            assert lhs <= np.linalg.norm(x - y) + 1e-12


def _engine_loss_and_grad(row, z):
    """``(f(z), grad f(z))`` of one loss row as the step loop computes them.

    The gradient is read back from one unit step ``z - grad`` in a ball too
    large to bind, and the loss is the trace's score of ``z`` set as the
    step's output.
    """
    engine = StepEngine(stream_of([row]), EMPTY_SCHEDULE, ConstantRate(eta=1.0), BallDomain(1e6))
    engine.z = as_point(z, engine.dim)
    engine.advance(1, 1)
    grad = np.asarray(z, dtype=float) - engine.z
    engine.outputs[0] = z
    return engine.trace("ogd", 0).losses[0], grad


class TestEvalGrad:
    def test_direct_formula(self):
        f = quad(np.eye(2), [2.0, 0.0])
        value, grad = _engine_loss_and_grad(f, np.zeros(2))
        assert value == pytest.approx(2.0, abs=0)
        assert np.array_equal(grad, [-2.0, 0.0])

    def test_minimizer_case(self):
        f = quad(np.diag([1.0, 3.0]), [0.5, -0.25], offset=0.7)
        value, grad = _engine_loss_and_grad(f, f[1])
        assert value == 0.7
        assert np.array_equal(grad, np.zeros(2))

    def test_diagonal_curvature(self):
        f = quad(np.diag([1.0, 3.0]), [0.0, 0.0])
        value, grad = _engine_loss_and_grad(f, np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0, abs=0)
        assert np.array_equal(grad, [1.0, 3.0])

    def test_dimension_mismatch(self):
        f = quad(np.eye(2), [0.0, 0.0])
        with pytest.raises(InvalidInputError, match="expected dimension 2, got 3"):
            _engine_loss_and_grad(f, np.zeros(3))

    def test_curvature_witnesses(self):
        """mu ||dz|| <= ||dgrad|| <= beta ||dz|| for spectra inside [mu, beta]."""
        rng = np.random.default_rng(1)
        mu, beta = 0.5, 2.5
        dom = BallDomain(1.0)
        for _ in range(200):
            f = random_spd_quad(rng, 3, mu, beta, 0.5)
            z1 = project(rng.standard_normal(3), dom)
            z2 = project(rng.standard_normal(3), dom)
            gap = np.linalg.norm(z1 - z2)
            grads = [_engine_loss_and_grad(f, z)[1] for z in (z1, z2)]
            dgrad = np.linalg.norm(grads[0] - grads[1])
            assert mu * gap - 1e-10 <= dgrad <= beta * gap + 1e-10


class TestClassBound:
    """``CostStream.lipschitz_bound``: the largest ``lambda_max(A) * (R + ||c||)`` of a live row."""

    def test_unit_ball(self):
        assert stream_of([quad(np.eye(2), [0.0, 0.0])]).lipschitz_bound(BallDomain(1.0)) == 1.0

    def test_scaled_ball(self):
        stream = stream_of([quad(np.diag([1.0, 3.0]), [0.0, 0.0])])
        assert stream.lipschitz_bound(BallDomain(2.0)) == pytest.approx(6.0)

    def test_offcenter(self):
        stream = stream_of([iso_quad(1.0, [1.0, 0.0]), iso_quad(5.0, [0.0, 0.0])])
        assert stream.lipschitz_bound(BallDomain(1.0)) == pytest.approx(5.0)
        # A deleted slot's row is left out.
        kept = retained(stream, DeletionSchedule(((2, 2),)))
        assert kept.lipschitz_bound(BallDomain(1.0)) == pytest.approx(2.0)

    def test_dominates_sampled_gradients(self):
        rng = np.random.default_rng(2)
        dom = BallDomain(1.3)
        f = random_spd_quad(rng, 4, 0.5, 2.0, 0.6)
        bound = stream_of([f]).lipschitz_bound(dom)
        for _ in range(500):
            z = project(rng.standard_normal(4) * 2.0, dom)
            assert np.linalg.norm(_engine_loss_and_grad(f, z)[1]) <= bound + 1e-12


class TestCostValidation:
    """A stream's rows are checked when it is built, one row stream at a time here."""

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            stream_of([quad([[1.0, 0.5], [0.0, 1.0]], np.zeros(2))])

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            stream_of([quad(np.eye(2), [0.0, 0.0], offset=-0.1)])

    def test_fn_class_ordering(self):
        with pytest.raises(InvalidInputError):
            FnClass(lipschitz=1.0, smoothness=1.0, strong_convexity=2.0)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="positive semidefinite"):
            stream_of([quad(np.diag([1.0, -1e-6]), [0.0, 0.0])])

    def test_psd_within_tolerance_accepted(self):
        stream_of([quad(np.diag([1.0, -1e-12]), [0.0, 0.0])])

    def test_arrays_frozen(self):
        mats, centers, offsets, live = stack_quadratics(stream_of([quad(np.eye(2), [0.0, 0.0])]))
        for arr in (mats, centers, offsets, live):
            with pytest.raises(ValueError):
                arr[0] = 5.0


class TestStackedStream:
    @staticmethod
    def _arrays(horizon=4, dim=2):
        mats = np.stack([np.diag([1.0 + t, 2.0]) for t in range(horizon)])
        centers = np.full((horizon, dim), 0.25)
        return mats, centers, np.zeros(horizon)

    @pytest.mark.parametrize("defect, message", [
        ("asymmetric", "symmetric"),
        ("non-finite", "non-finite"),
        ("negative-offset", "nonnegative"),
        ("indefinite", "positive semidefinite"),
        ("non-finite-center", "non-finite"),
        ("center-shape", "centers of shape"),
        ("live-shape", "live mask of shape"),
    ])
    def test_rejects_bad_rows(self, defect, message):
        mats, centers, offsets = self._arrays()
        live = None
        if defect == "asymmetric":
            mats[2, 0, 1] = 0.5
        elif defect == "non-finite":
            mats[1, 1, 1] = np.inf
        elif defect == "negative-offset":
            offsets[3] = -0.1
        elif defect == "indefinite":
            mats[0] = np.array([[1.0, 2.0], [2.0, 1.0]])
        elif defect == "non-finite-center":
            centers[2, 0] = np.nan
        elif defect == "center-shape":
            centers = centers[:, :1]
        else:
            live = [True] * 3
        with pytest.raises(InvalidInputError, match=message):
            CostStream(mats, centers, offsets, live)

    def test_keeps_the_arrays_uncopied_and_frozen(self):
        mats, centers, offsets = self._arrays()
        live = np.array([True, False, True, True])
        stream = CostStream(mats, centers, offsets + 0.5, live)
        got = stack_quadratics(stream)
        assert got[0] is mats and got[1] is centers and got[2].tolist() == [0.5] * 4
        for arr in (mats, centers, *got):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        live[0] = False  # the stream owns a copy of the mask
        assert got[3].tolist() == [True, False, True, True]
        # Lists and other dtypes are converted into arrays of the stream's own.
        assert CostStream(mats.tolist(), centers.astype(np.float32)).live.all()

    @pytest.mark.parametrize("from_rows", [False, True])
    def test_retained_copies_only_the_mask(self, from_rows):
        mats, centers, offsets = self._arrays(horizon=6)
        stream = CostStream(mats, centers, offsets)
        if from_rows:
            stream = stream_of(quad(m, c) for m, c in zip(mats, centers))
        sched = DeletionSchedule(((2, 3), (5, 6)))
        ret = retained(stream, sched)
        assert stream.live.all()
        assert ret.live.tolist() == [True, False, True, True, False, True]
        assert all(a is b for a, b in zip(stack_quadratics(ret)[:3], stack_quadratics(stream)))
        assert retained(ret, sched, upto=1).live.tolist() == ret.live.tolist()


def _whole_batch_check(mats):
    """``_check_curvatures`` on the whole stack at once, without row blocks."""
    if not np.all(np.isfinite(mats)):
        raise InvalidInputError("curvature matrix has non-finite entries")
    scale = np.maximum(1.0, np.maximum(mats.max(axis=(1, 2)), -mats.min(axis=(1, 2))))
    if np.any(np.abs(mats - np.swapaxes(mats, 1, 2)).max(axis=(1, 2)) > 1e-10 * scale):
        raise InvalidInputError("curvature matrix must be symmetric")
    eigs = np.linalg.eigvalsh(mats)
    if np.any(eigs[:, 0] < -1e-10 * scale):
        raise InvalidInputError("curvature matrix must be positive semidefinite")
    return eigs


class TestRowBlockCheck:
    """``_check_curvatures`` runs in row blocks yet answers as the whole batch does."""

    @staticmethod
    def _psd_stack(horizon, dim, seed):
        raw = np.random.default_rng(seed).standard_normal((horizon, dim, dim))
        mats = raw @ np.swapaxes(raw, 1, 2)
        return 0.5 * (mats + np.swapaxes(mats, 1, 2))

    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 20])
    def test_eigenvalues_match_the_whole_batch(self, horizon, dim):
        mats = self._psd_stack(horizon, dim, horizon + dim)
        assert _check_curvatures(mats).tobytes() == _whole_batch_check(mats).tobytes()

    @pytest.mark.parametrize("defects", [
        {2100: "indefinite"},
        {2100: "asymmetric"},
        {300: "indefinite", 2100: "asymmetric"},
        {300: "asymmetric", 2100: "non-finite"},
        {1024: "indefinite", 2499: "non-finite"},
    ])
    def test_a_later_block_keeps_the_order_of_the_checks(self, defects):
        mats = self._psd_stack(2500, 5, 11)
        for row, defect in defects.items():
            if defect == "indefinite":
                mats[row] = np.diag([1.0, 1.0, 1.0, 1.0, -1e-3])
            elif defect == "asymmetric":
                mats[row, 0, 1] += 1e-3
            else:
                mats[row, 2, 2] = np.nan
        with pytest.raises(InvalidInputError) as want:
            _whole_batch_check(mats)
        with pytest.raises(InvalidInputError) as got:
            _check_curvatures(mats)
        assert str(got.value) == str(want.value)


class TestStreamAndSchedule:
    def test_retained_replaces_exactly(self):
        rows = [iso_quad(1.0, [0.1 * i, 0.0]) for i in range(5)]
        rows[3] = None
        stream = stream_of(rows)
        sched = DeletionSchedule(((1, 2), (5, 5)))
        ret = retained(stream, sched)
        assert len(ret) == len(stream)
        # Slots 1 and 5 are cleared, the deleted slot 4 stays so, and slots 2-3 keep their rows.
        assert ret.live.tolist() == [False, True, True, False, False]
        for t in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(row_at(ret, t), rows[t - 1]))

    def test_retained_prefix(self):
        stream = stream_of([iso_quad(1.0, [0.0, 0.0])] * 4)
        sched = DeletionSchedule(((1, 2), (3, 4)))
        ret1 = retained(stream, sched, upto=1)
        assert ret1.live.tolist() == [False, True, True, True]

    def test_schedule_rejects_index_after_time(self):
        with pytest.raises(InvalidScheduleError):
            DeletionSchedule(((5, 3),))

    def test_schedule_rejects_unordered_times(self):
        with pytest.raises(InvalidScheduleError):
            DeletionSchedule(((1, 5), (2, 5)))

    def test_schedule_rejects_duplicate_indices(self):
        with pytest.raises(InvalidScheduleError):
            DeletionSchedule(((2, 3), (2, 7)))

    def test_schedule_beyond_horizon(self):
        stream = stream_of([iso_quad(1.0, [0.0, 0.0])] * 3)
        with pytest.raises(InvalidScheduleError):
            retained(stream, DeletionSchedule(((1, 5),)))

    def test_stack_quadratics(self):
        rows = [iso_quad(2.0, [0.5, 0.0]), None, quad(np.diag([1.0, 3.0]), [0.0, 0.1])]
        mats, centers, offsets, live = stack_quadratics(stream_of(rows))
        assert mats.shape == (3, 2, 2)
        assert live.tolist() == [True, False, True]
        assert np.array_equal(mats[2], np.diag([1.0, 3.0]))


class TestSerialization:
    def test_examples_roundtrip(self):
        vec = np.array([0.1, -1.0 / 3.0, 1e-300, 12345.6789])
        assert np.array_equal(decode_vector(encode_vector(vec)), vec)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_exact(self, coords):
        vec = np.array(coords, dtype=np.float64)
        assert np.array_equal(decode_vector(encode_vector(vec)), vec)
