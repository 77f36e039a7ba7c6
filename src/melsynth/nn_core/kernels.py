"""Convolution kernels: a conv of kernel size k is k GEMMs on shifted views.

All kernels take the unpadded input ``x`` of shape (batch, in_channels,
time) and keep its length. Tap j of a conv with dilation d reads input
column ``t - left + j*d`` for output column t, and columns past either end
of ``x`` read as zero, so tap j is one matrix product over the output
columns whose input exists: no padded copy, no im2col buffer and no
transposes. The residual stacks lay their whole batch out as one row with
zero guards between items and pass it as batch 1, so each product is one
wide GEMM.

A wide float32 conv runs on every CPU the process may run on, by output
columns: each range of columns is one job of ``pool.run_in_order``, every
tap, the tap sum, the bias and the caller's elementwise epilogue included,
so no full-width pass is left for the calling thread alone. This happens
only when BLAS itself runs one thread, as numpy's bundled OpenBLAS answers
through ctypes; on top of a multi-threaded BLAS the two kinds of thread
would contend for the CPUs, and where BLAS cannot be asked nothing is
split. Set BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to split. Each
output column sums its taps in the same order in every range, OpenBLAS's
sgemm gives a column range of at least a few dozen columns the same bits
as the same columns of the whole product (tests pin every row width around
the cuts), and an elementwise epilogue does to a column what it would do
in the whole row, so results are bit for bit the same for any worker
count, and run to run.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from . import pool

# A conv splits its output columns into ranges of at least RANGE_COLUMNS
# columns, one range per worker, cut at multiples of 16; a narrower row
# runs on the calling thread alone. On a 2-vCPU Xeon VM with one BLAS thread
# a 128->128 channel, k=3 conv ran 5-45% faster in two ranges from about
# 1000 columns on, the more the wider the row; below that, handing a range
# to a thread cost about what it saved, and splitting the 540-690 column
# rows of batch-1 decoders made a synthesis 12% slower.
RANGE_COLUMNS = 512


def _window(shift, time):
    """Output columns [lo, hi) whose input column, shift away, exists."""
    lo = max(0, -shift)
    return lo, max(lo, min(time, time - shift))


@functools.cache
def _blas_threads():
    """The thread count of the OpenBLAS that numpy bundles, asked once
    through ctypes, or None when there is no such library to ask."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return query()
    return None


def _column_ranges(time, rows, dtype):
    """The output column ranges [a, b) of a conv; one range when the conv
    is not split.

    float64 convs (gradient checks) and one-row products (a matrix-vector
    product in BLAS) are not split: OpenBLAS gives some of their column
    slices other bits than the whole product.
    """
    whole = [(0, time)]
    if (time < 2 * RANGE_COLUMNS or rows < 2 or dtype != np.float32
            or _blas_threads() != 1):
        return whole
    n = min(pool.worker_pool()[1], time // RANGE_COLUMNS)
    if n < 2:
        return whole
    cuts = [0] + [time * i // n // 16 * 16 for i in range(1, n)] + [time]
    return list(zip(cuts, cuts[1:]))


def _sum_taps(x, taps, windows, out, tmp):
    """The tap products summed into `out`.

    `windows` holds (tap, shift, lo, hi) per tap, in the order they are
    summed: tap j reads input column t + shift for output column t of
    `out`, and only output columns [lo, hi) have input. The first tap
    writes straight into `out`; each other tap writes into `tmp`, which is
    then added. Both are zeroed outside the tap's window. Each product runs
    over the whole batch at once.
    """
    width = out.shape[2]
    for i, (j, shift, lo, hi) in enumerate(windows):
        dst = tmp if i else out
        if lo:
            dst[:, :, :lo] = 0
        if hi < width:
            dst[:, :, hi:] = 0
        np.matmul(taps[j], x[:, :, lo + shift:hi + shift], out=dst[:, :, lo:hi])
        if i:
            out += tmp


def _conv(x, weight, dilation, left, finish=None):
    """The tap products summed over their windows, without bias.

    The tap nearest shift 0 has the widest window: it comes first. A tap
    whose window is empty reads only zeros and is left out. Each column
    range is one job, as views of `out` and `tmp` with the windows counted
    from the range's first column. ``finish(view, a, b)``, when given, runs
    in the same job right after the tap sum, on the view of `out` that
    holds columns [a, b); an unsplit conv passes `out` itself.
    """
    cout, _, ksize = weight.shape
    time = x.shape[2]
    out = np.empty((x.shape[0], cout, time), dtype=np.result_type(x, weight))
    taps = weight.transpose(2, 0, 1).copy()  # (ksize, cout, cin), each contiguous
    first = min(ksize - 1, (left + dilation // 2) // dilation)
    windows = []
    for j in [first] + [j for j in range(ksize) if j != first]:
        shift = j * dilation - left
        lo, hi = _window(shift, time)
        if j == first or hi > lo:
            windows.append((j, shift, lo, hi))
    tmp = np.empty_like(out) if len(windows) > 1 else None
    ranges = _column_ranges(time, cout, out.dtype)
    # no views for an unsplit conv: a toy training chain makes thousands
    parts = [(x, taps, windows, out, tmp)] if len(ranges) == 1 else [
        (x, taps,
         [(j, shift + a, min(max(lo, a), b) - a, min(max(hi, a), b) - a)
          for j, shift, lo, hi in windows],
         out[:, :, a:b], None if tmp is None else tmp[:, :, a:b])
        for a, b in ranges]

    def job(k):
        _sum_taps(*parts[k])
        if finish is not None:
            finish(parts[k][3], *ranges[k])

    pool.run_in_order(job, lambda k, _: None, len(parts), len(parts))
    return out


def conv1d_forward(x, weight, bias, dilation, *, left, epilogue=None):
    """(batch, cin, time) -> (batch, cout, time).

    The bias is added in each column range's job. ``epilogue(view, a, b)``,
    when given, runs next in the same job, on the (batch, cout, b - a) view
    of the output that holds columns [a, b), possibly on a pool thread: it
    must run only elementwise numpy work, on those columns.
    """
    bias = bias[:, None]

    def finish(view, a, b):
        view += bias
        if epilogue is not None:
            epilogue(view, a, b)

    return _conv(x, weight, dilation, left, finish)


def conv1d_grad_input(gout, weight, dilation, *, left):
    """Gradient w.r.t. ``x``: the conv with each tap transposed and the taps
    in reverse order, which reads (ksize - 1) * dilation - left to the left."""
    span = (weight.shape[2] - 1) * dilation
    return _conv(gout, weight.transpose(1, 0, 2)[:, :, ::-1], dilation, span - left)


def conv1d_grad_weight(gout, x, dilation, ksize, *, left):
    """Gradient w.r.t. the (cout, cin, ksize) weight, summed over the batch."""
    gw = np.zeros((gout.shape[1], x.shape[1], ksize), dtype=gout.dtype)
    for j in range(ksize):
        shift = j * dilation - left
        lo, hi = _window(shift, x.shape[2])
        products = gout[:, :, lo:hi] @ x[:, :, lo + shift:hi + shift].transpose(0, 2, 1)
        gw[:, :, j] = products.sum(axis=0)
    return gw
