"""Structural-similarity metric used by the synthesizer loss."""

import numpy as np
import pytest

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


class TestSsimIndex:
    def test_identical_images_score_one(self, rng):
        x = rng.normal(size=(40, 60)).astype(np.float32)
        assert float(ssim_index(x, x).data) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_in_arguments(self, rng):
        x = rng.normal(size=(20, 30)).astype(np.float32)
        y = rng.normal(size=(20, 30)).astype(np.float32)
        assert float(ssim_index(x, y).data) == float(ssim_index(y, x).data)

    def test_constant_images_match_closed_form(self):
        # zero variance everywhere: only the luminance term survives.
        # values shift by +4 before windowing, so 0.5 -> 4.5 and 0.6 -> 4.6.
        x = np.full((16, 24), 0.5)
        y = np.full((16, 24), 0.6)
        c1 = (0.01 * 8.0) ** 2
        want = (2 * 4.5 * 4.6 + c1) / (4.5**2 + 4.6**2 + c1)
        assert float(ssim_index(x, y).data) == pytest.approx(want, abs=1e-6)
        # float32 inputs run the float32 path and land close but looser
        got32 = float(ssim_index(x.astype(np.float32), y.astype(np.float32)).data)
        assert got32 == pytest.approx(want, abs=1e-4)

    def test_bounded_by_one(self, rng):
        for _ in range(5):
            x = rng.normal(size=(12, 18)).astype(np.float32)
            y = rng.normal(size=(12, 18)).astype(np.float32)
            assert abs(float(ssim_index(x, y).data)) <= 1.0 + 1e-6

    def test_dissimilar_scores_below_similar(self, rng):
        x = rng.normal(size=(20, 40)).astype(np.float32)
        near = x + rng.normal(scale=0.05, size=x.shape).astype(np.float32)
        far = rng.normal(size=x.shape).astype(np.float32)
        assert float(ssim_index(x, near).data) > float(ssim_index(x, far).data)

    def test_window_shrinks_for_small_images(self, rng):
        x = rng.normal(size=(5, 8)).astype(np.float32)
        assert float(ssim_index(x, x).data) == pytest.approx(1.0, abs=1e-6)
        tiny = rng.normal(size=(1, 1)).astype(np.float32)
        assert float(ssim_index(tiny, tiny).data) == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        x = rng.normal(size=(4, 5)).astype(np.float32)
        y = rng.normal(size=(4, 6)).astype(np.float32)
        with pytest.raises(ValueError):
            ssim_index(x, y)

    def test_saturated_values_get_zero_gradient(self):
        # post-shift values beyond [0, 8] are clamped, cutting the gradient
        x = Tensor(np.full((6, 9), 30.0), requires_grad=True)
        y = Tensor(np.full((6, 9), 30.0))
        out = ssim_index(x, y)
        assert float(out.data) == pytest.approx(1.0, abs=1e-6)
        out.backward()
        assert np.all(x.grad == 0.0)

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 6)))
        gradcheck(lambda: ssim_index(x, y), [x])


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
    def test_gradients_match_finite_differences(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float64)
        x[0, 0, :3] = 5.0  # saturated: clamped, zero gradient
        xt = Tensor(x, requires_grad=True)
        yt = Tensor(y, requires_grad=True)
        gradcheck(lambda: ssim_index(xt, yt, LENGTHS), [xt, yt])

    def test_padding_gets_no_gradient(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float64)
        xt = Tensor(x, requires_grad=True)
        yt = Tensor(y, requires_grad=True)
        ssim_index(xt, yt, LENGTHS).backward()
        for i, t in enumerate(LENGTHS):
            assert not np.any(xt.grad[i, :, t:]) and not np.any(yt.grad[i, :, t:])
        # padding values do not reach the score either
        before = ssim_index(x, y, LENGTHS).data.item()
        x[1, :, LENGTHS[1]:] = 99.0
        assert ssim_index(x, y, LENGTHS).data.item() == before

    @pytest.mark.parametrize("bins, lengths", [(80, [121, 96]), (6, LENGTHS),
                                               (5, [4, 9, 2, 1])])
    def test_matches_per_item_composition(self, rng, bins, lengths):
        # a prediction near its target, as in training; the score of two
        # unrelated images is a mean of terms near zero that cancel
        x, _ = padded_pair(rng, bins, lengths, np.float32)
        y = x + rng.normal(scale=0.5, size=x.shape).astype(np.float32)
        results = []
        for score in (lambda a, b: ssim_index(a, b, lengths),
                      lambda a, b: batch_ssim_reference(a, b, lengths)):
            xt = Tensor(x, requires_grad=True)
            yt = Tensor(y, requires_grad=True)
            out = score(xt, yt)
            out.backward()
            results.append((out.data, xt.grad, yt.grad))
        (got, gx, gy), (want, wx, wy) = results
        assert got.dtype == want.dtype == np.float32
        assert abs(float(got) - float(want)) <= 1e-6 * abs(float(want))
        for g, w in ((gx, wx), (gy, wy)):
            assert g.dtype == np.float32
            assert np.max(np.abs(g - w)) <= 1e-6 * np.max(np.abs(w))

    def test_bad_lengths_rejected(self, rng):
        x, y = padded_pair(rng, 6, LENGTHS, np.float32)
        for lengths in ([14, 7], [14, 0, 12], [14, 7, 15]):
            with pytest.raises(ValueError):
                ssim_index(x, y, lengths)
