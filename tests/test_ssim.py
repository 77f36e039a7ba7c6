"""Structural-similarity metric used by the synthesizer loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melsynth.nn_core import Tensor
from melsynth.nn_core import functional as F
from melsynth.student import gaussian_window, ssim_index
from melsynth.student.ssim import DYNAMIC_RANGE, SHIFT, WINDOW_SIZE, _odd_clip

from conftest import div, filter1d_valid, gradcheck, mean, narrow


class TestGaussianWindow:
    def test_normalized(self):
        w = gaussian_window(11)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_with_center_peak(self):
        w = gaussian_window(11)
        assert np.allclose(w, w[::-1])
        assert np.argmax(w) == 5

    def test_width_controls_spread(self):
        narrow = gaussian_window(11, sigma=0.5)
        wide = gaussian_window(11, sigma=3.0)
        assert narrow[5] > wide[5]


def whole(x, y):
    """SSIM of a prediction array against a target over every frame."""
    return float(ssim_index(Tensor(x), y, [x.shape[2]] * x.shape[0]).data)


class TestSsimIndex:
    def test_identical_images_score_one(self, rng):
        x = rng.normal(size=(1, 40, 60)).astype(np.float32)
        assert whole(x, x) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_in_arguments(self, rng):
        x = rng.normal(size=(1, 20, 30)).astype(np.float32)
        y = rng.normal(size=(1, 20, 30)).astype(np.float32)
        assert whole(x, y) == whole(y, x)

    def test_constant_images_match_closed_form(self):
        # zero variance everywhere: only the luminance term survives.
        # values shift by +4 before windowing, so 0.5 -> 4.5 and 0.6 -> 4.6.
        x = np.full((1, 16, 24), 0.5)
        y = np.full((1, 16, 24), 0.6)
        c1 = (0.01 * 8.0) ** 2
        want = (2 * 4.5 * 4.6 + c1) / (4.5**2 + 4.6**2 + c1)
        assert whole(x, y) == pytest.approx(want, abs=1e-6)
        # float32 inputs run the float32 path and land close but looser
        got32 = whole(x.astype(np.float32), y.astype(np.float32))
        assert got32 == pytest.approx(want, abs=1e-4)

    def test_bounded_by_one(self, rng):
        for _ in range(5):
            x = rng.normal(size=(1, 12, 18)).astype(np.float32)
            y = rng.normal(size=(1, 12, 18)).astype(np.float32)
            assert abs(whole(x, y)) <= 1.0 + 1e-6

    def test_dissimilar_scores_below_similar(self, rng):
        x = rng.normal(size=(1, 20, 40)).astype(np.float32)
        near = x + rng.normal(scale=0.05, size=x.shape).astype(np.float32)
        far = rng.normal(size=x.shape).astype(np.float32)
        assert whole(x, near) > whole(x, far)

    def test_window_shrinks_for_small_images(self, rng):
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        assert whole(x, x) == pytest.approx(1.0, abs=1e-6)
        tiny = rng.normal(size=(1, 1, 1)).astype(np.float32)
        assert whole(tiny, tiny) == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 4, 5)).astype(np.float32)
        y = rng.normal(size=(1, 4, 6)).astype(np.float32)
        with pytest.raises(ValueError):
            ssim_index(Tensor(x), y, [5])

    def test_unbatched_image_rejected(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        with pytest.raises(ValueError):
            ssim_index(Tensor(x), x, [5])

    def test_saturated_values_get_zero_gradient(self):
        # post-shift values beyond [0, 8] are clamped, cutting the gradient
        x = Tensor(np.full((1, 6, 9), 30.0), requires_grad=True)
        out = ssim_index(x, np.full((1, 6, 9), 30.0), [9])
        assert float(out.data) == pytest.approx(1.0, abs=1e-6)
        out.backward()
        assert np.all(x.grad == 0.0)

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6)), requires_grad=True)
        y = rng.normal(size=(1, 4, 6))
        gradcheck(lambda: ssim_index(x, y, [6]), [x])


# ---------------------------------------------------------------------------
# the batched op against the per-item tape composition it replaced
# ---------------------------------------------------------------------------

def _clamp_reference(x, lo, hi):
    return F.add(F.sub(F.relu(F.sub(x, lo)), F.relu(F.sub(x, hi))), lo)


def _blur_reference(x, win_f, win_t):
    return filter1d_valid(filter1d_valid(x, win_f, axis=1), win_t, axis=2)


def ssim_reference(x, y):
    """Mean local SSIM of one (1, bins, T) item, as a chain of tape ops."""
    _, bins, frames = x.shape
    win_f = gaussian_window(_odd_clip(WINDOW_SIZE, bins))
    win_t = gaussian_window(_odd_clip(WINDOW_SIZE, frames))
    half = DYNAMIC_RANGE / 2.0
    xc = F.sub(_clamp_reference(F.add(x, SHIFT), 0.0, DYNAMIC_RANGE), half)
    yc = F.sub(_clamp_reference(F.add(y, SHIFT), 0.0, DYNAMIC_RANGE), half)
    c1 = (0.01 * DYNAMIC_RANGE) ** 2
    c2 = (0.03 * DYNAMIC_RANGE) ** 2
    mu_xc = _blur_reference(xc, win_f, win_t)
    mu_yc = _blur_reference(yc, win_f, win_t)
    mu_x = F.add(mu_xc, half)
    mu_y = F.add(mu_yc, half)
    var_x = F.sub(_blur_reference(F.mul(xc, xc), win_f, win_t), F.mul(mu_xc, mu_xc))
    var_y = F.sub(_blur_reference(F.mul(yc, yc), win_f, win_t), F.mul(mu_yc, mu_yc))
    cov = F.sub(_blur_reference(F.mul(xc, yc), win_f, win_t), F.mul(mu_xc, mu_yc))
    num = F.mul(F.add(F.mul(F.mul(mu_x, mu_y), 2.0), c1),
                F.add(F.mul(cov, 2.0), c2))
    den = F.mul(F.add(F.add(F.mul(mu_x, mu_x), F.mul(mu_y, mu_y)), c1),
                F.add(F.add(var_x, var_y), c2))
    return mean(div(num, den))


def batch_ssim_reference(x, y, lengths):
    scores = []
    for i, t in enumerate(lengths):
        scores.append(ssim_reference(narrow(narrow(x, 0, i, 1), 2, 0, t),
                                     narrow(narrow(y, 0, i, 1), 2, 0, t)))
    total = scores[0]
    for s in scores[1:]:
        total = F.add(total, s)
    return F.mul(total, 1.0 / len(scores))


LENGTHS = [14, 7, 12]  # the 7-frame item runs on a shrunk 7-frame window


def padded_pair(rng, bins, lengths, dtype):
    shape = (len(lengths), bins, max(lengths))
    x = rng.uniform(-3.5, 3.5, size=shape)
    y = rng.uniform(-3.5, 3.5, size=shape)
    return x.astype(dtype), y.astype(dtype)


class TestBatchedSsim:
    # the target is a constant: only the prediction gradient exists
    def test_gradients_match_finite_differences(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float64)
        x[0, 0, :3] = 5.0  # saturated: clamped, zero gradient
        xt = Tensor(x, requires_grad=True)
        gradcheck(lambda: ssim_index(xt, y, LENGTHS), [xt])

    def test_padding_gets_no_gradient(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float64)
        xt = Tensor(x, requires_grad=True)
        ssim_index(xt, y, LENGTHS).backward()
        for i, t in enumerate(LENGTHS):
            assert not np.any(xt.grad[i, :, t:])
        # padding values do not reach the score either
        before = ssim_index(Tensor(x), y, LENGTHS).data.item()
        x[1, :, LENGTHS[1]:] = 99.0
        assert ssim_index(Tensor(x), y, LENGTHS).data.item() == before

    @pytest.mark.parametrize("bins, lengths", [(80, [121, 96]), (6, LENGTHS),
                                               (5, [4, 9, 2, 1])])
    def test_matches_per_item_composition(self, rng, bins, lengths):
        # a prediction near its target, as in training; the score of two
        # unrelated images is a mean of terms near zero that cancel
        x, _ = padded_pair(rng, bins, lengths, np.float32)
        y = x + rng.normal(scale=0.5, size=x.shape).astype(np.float32)
        results = []
        for score in (lambda a: ssim_index(a, y, lengths),
                      lambda a: batch_ssim_reference(a, Tensor(y), lengths)):
            xt = Tensor(x, requires_grad=True)
            out = score(xt)
            out.backward()
            results.append((out.data, xt.grad))
        (got, gx), (want, wx) = results
        assert got.dtype == want.dtype == np.float32
        assert abs(float(got) - float(want)) <= 1e-6 * abs(float(want))
        assert gx.dtype == np.float32
        assert np.max(np.abs(gx - wx)) <= 1e-6 * np.max(np.abs(wx))

    def test_bad_lengths_rejected(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float32)
        for lengths in ([14, 7], [14, 0, 12], [14, 7, 15]):
            with pytest.raises(ValueError):
                ssim_index(Tensor(x), y, lengths)


@st.composite
def padded_batches(draw):
    """(x, y, lengths): a float64 batch of bins 1-12 and lengths 1-40,
    padded with noise to the longest item."""
    bins = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(lengths), bins, max(lengths))
    return (rng.uniform(-4.5, 4.5, size=shape),
            rng.uniform(-4.5, 4.5, size=shape), lengths)


class TestSsimProperties:
    @settings(max_examples=200, deadline=None)
    @given(padded_batches())
    def test_self_similarity_is_one(self, batch):
        x, _, lengths = batch
        assert ssim_index(Tensor(x), x, lengths).data.item() == \
            pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(padded_batches(), st.floats(-1e3, 1e3))
    def test_padding_changes_nothing(self, batch, fill):
        x, y, lengths = batch
        runs = []
        for _ in range(2):
            xt = Tensor(x.copy(), requires_grad=True)
            out = ssim_index(xt, y, lengths)
            out.backward()
            runs.append((out.data.tobytes(), xt.grad.tobytes()))
            for i, t in enumerate(lengths):  # rewrite every padded cell
                x[i, :, t:] = fill
                y[i, :, t:] = -fill
        assert runs[0] == runs[1]
