import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from online_unlearning import (
    SKIP,
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    InvalidInputError,
    InvalidScheduleError,
    QuadraticCost,
    class_bound_lipschitz,
    eval_grad,
    is_skip,
    project,
    retained,
)
from online_unlearning.core import (
    _check_curvatures,
    decode_vector,
    encode_vector,
    stack_quadratics,
)

from conftest import iso_quad, quad, random_spd_quad, stream_of


class TestProject:
    def test_scales_onto_sphere(self):
        out = project(np.array([3.0, 4.0]), BallDomain(1.0))
        assert np.allclose(out, [0.6, 0.8], rtol=1e-12, atol=0)

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


class TestEvalGrad:
    def test_direct_formula(self):
        f = quad(np.eye(2), [2.0, 0.0])
        value, grad = eval_grad(f, np.zeros(2))
        assert value == pytest.approx(2.0, abs=0)
        assert np.array_equal(grad, [-2.0, 0.0])

    def test_minimizer_case(self):
        f = quad(np.diag([1.0, 3.0]), [0.5, -0.25], offset=0.7)
        value, grad = eval_grad(f, f.center)
        assert value == 0.7
        assert np.array_equal(grad, np.zeros(2))

    def test_diagonal_curvature(self):
        f = quad(np.diag([1.0, 3.0]), [0.0, 0.0])
        value, grad = eval_grad(f, np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0, abs=0)
        assert np.array_equal(grad, [1.0, 3.0])

    def test_dimension_mismatch(self):
        f = quad(np.eye(2), [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            eval_grad(f, np.zeros(3))

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
            dgrad = np.linalg.norm(eval_grad(f, z1)[1] - eval_grad(f, z2)[1])
            assert mu * gap - 1e-10 <= dgrad <= beta * gap + 1e-10


class TestClassBound:
    def test_unit_ball(self):
        assert class_bound_lipschitz(quad(np.eye(2), [0.0, 0.0]), BallDomain(1.0)) == pytest.approx(1.0)

    def test_scaled_ball(self):
        f = quad(np.diag([1.0, 3.0]), [0.0, 0.0])
        assert class_bound_lipschitz(f, BallDomain(2.0)) == pytest.approx(6.0)

    def test_offcenter(self):
        f = quad(np.eye(2), [1.0, 0.0])
        assert class_bound_lipschitz(f, BallDomain(1.0)) == pytest.approx(2.0)

    def test_dominates_sampled_gradients(self):
        rng = np.random.default_rng(2)
        dom = BallDomain(1.3)
        f = random_spd_quad(rng, 4, 0.5, 2.0, 0.6)
        bound = class_bound_lipschitz(f, dom)
        for _ in range(500):
            z = project(rng.standard_normal(4) * 2.0, dom)
            assert np.linalg.norm(eval_grad(f, z)[1]) <= bound + 1e-12


class TestCostValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticCost(matrix=np.array([[1.0, 0.5], [0.0, 1.0]]), center=np.zeros(2))

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidInputError):
            quad(np.eye(2), [0.0, 0.0], offset=-0.1)

    def test_fn_class_ordering(self):
        with pytest.raises(InvalidInputError):
            FnClass(lipschitz=1.0, smoothness=1.0, strong_convexity=2.0)

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="positive semidefinite"):
            quad(np.diag([1.0, -1e-6]), [0.0, 0.0])

    def test_psd_within_tolerance_accepted(self):
        quad(np.diag([1.0, -1e-12]), [0.0, 0.0])

    def test_arrays_frozen(self):
        f = quad(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 5.0


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
    ])
    def test_rejects_bad_rows(self, defect, message):
        mats, centers, offsets = self._arrays()
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
        else:
            centers = centers[:, :1]
        with pytest.raises(InvalidInputError, match=message):
            CostStream.from_arrays(mats, centers, offsets)

    def test_items_are_cached_read_only_views(self):
        mats, centers, offsets = self._arrays()
        stream = CostStream.from_arrays(mats, centers, offsets + 0.5)
        item = stream.item_at(3)
        assert item is stream.item_at(3) and item is stream.items[2]
        assert isinstance(item, QuadraticCost) and item.offset == 0.5
        assert np.array_equal(item.matrix, mats[2]) and np.array_equal(item.center, centers[2])
        for arr in (item.matrix, item.center, *stack_quadratics(stream)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        mats[2, 0, 0] = 99.0  # the stream owns a copy
        assert stream.item_at(3).matrix[0, 0] == 3.0

    @pytest.mark.parametrize("from_items", [False, True])
    def test_retained_copies_only_the_mask(self, from_items):
        mats, centers, offsets = self._arrays(horizon=6)
        stream = CostStream.from_arrays(mats, centers, offsets)
        if from_items:
            stream = stream_of(quad(m, c) for m, c in zip(mats, centers))
        sched = DeletionSchedule(((2, 3), (5, 6)))
        ret = retained(stream, sched)
        assert stream.live.all()
        assert ret.live.tolist() == [True, False, True, True, False, True]
        assert stack_quadratics(ret)[0] is stack_quadratics(stream)[0]
        for t in (1, 3, 4, 6):
            assert ret.item_at(t) is stream.item_at(t)
        assert is_skip(ret.item_at(2)) and is_skip(ret.item_at(5))
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
        items = [iso_quad(1.0, [0.1 * i, 0.0]) for i in range(5)]
        items[3] = SKIP
        stream = stream_of(items)
        sched = DeletionSchedule(((1, 2), (5, 5)))
        ret = retained(stream, sched)
        assert len(ret) == len(stream)
        assert is_skip(ret.item_at(1)) and is_skip(ret.item_at(5))
        assert is_skip(ret.item_at(4))  # pre-existing skip kept
        assert ret.item_at(2) is stream.item_at(2)
        assert ret.item_at(3) is stream.item_at(3)

    def test_retained_prefix(self):
        stream = stream_of([iso_quad(1.0, [0.0, 0.0])] * 4)
        sched = DeletionSchedule(((1, 2), (3, 4)))
        ret1 = retained(stream, sched, upto=1)
        assert is_skip(ret1.item_at(1)) and not is_skip(ret1.item_at(3))

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

    @pytest.mark.parametrize("item", [None, 1.0, np.eye(2), "loss", lambda z: (0.0, z)],
                             ids=["none", "float", "array", "str", "callable"])
    def test_stream_refuses_an_item_that_is_neither_quadratic_nor_skip(self, item):
        with pytest.raises(InvalidInputError, match=r"stream item 2 is not a QuadraticCost or SKIP"):
            CostStream([iso_quad(1.0, [0.0, 0.0]), item, SKIP])

    def test_stack_quadratics(self):
        items = [iso_quad(2.0, [0.5, 0.0]), SKIP, quad(np.diag([1.0, 3.0]), [0.0, 0.1])]
        mats, centers, offsets, live = stack_quadratics(stream_of(items))
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
