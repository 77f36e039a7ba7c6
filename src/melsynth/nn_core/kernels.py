"""Convolution kernels: a conv of kernel size k is k GEMMs on shifted views.

All kernels take the unpadded input ``x`` of shape (batch, in_channels,
time) and keep its length. Tap j of a conv with dilation d reads input
column ``t - left + j*d`` for output column t, and columns past either end
of ``x`` read as zero, so tap j is one matrix product over the output
columns whose input exists: no padded copy, no im2col buffer and no
transposes. The residual stacks lay their whole batch out as one row with
zero guards between items and pass it as batch 1, so each product is one
wide GEMM.

On a float32 batch-1 row of at least RANGE_COLUMNS columns, with unit
stride along time, each tap after the first adds its product into the
output inside BLAS, as C = A·B + C through the ``cblas_sgemm`` of the
OpenBLAS that numpy bundles, called through ctypes (which releases the
GIL): no tap buffer, and no pass to add it. This is decided once per conv
from the whole row, so every column range of a split conv makes the same
calls. Every other conv writes each later tap into a buffer that is then
added: at toy size the ctypes call costs more than the pass it saves. The
two sums give the same bits up to a few hundred input channels (tests pin
40 to 384); from 512 on, OpenBLAS adds its K panels into C one by one and
the last bits can differ. Where numpy bundles no OpenBLAS, every conv runs
on np.matmul and none is split.

A wide float32 conv runs on every CPU the process may run on, by output
columns: each range of columns is one job of ``pool.run_in_order``, every
tap, the tap sum, the bias and the caller's elementwise epilogue included,
so no full-width pass is left for the calling thread alone. This happens
only when BLAS itself runs one thread, as numpy's bundled OpenBLAS answers
through ctypes; on top of a multi-threaded BLAS the two kinds of thread
would contend for the CPUs, and where BLAS cannot be asked nothing is
split. Set BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to split. Each
output column sums its taps in the same order in every range, and an
elementwise epilogue does to a column what it would do in the whole row.
For a conv whose output and input channel counts multiply to at least
40 * 80 (see ``_column_ranges``), OpenBLAS's sgemm gives each range the
same bits as the same columns of the whole product (tests pin 40 -> 80,
80 -> 40 and 128 -> 128 at every row width around the cuts), so results
are bit for bit the same for any worker count, and run to run. Smaller products are not split: a
40 -> 40 or 32 -> 32 conv of 1024-1600 columns read other bits in two
ranges than in the whole row, likely because OpenBLAS takes its
small-matrix kernel for a range and not for the whole row.
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
# rows of batch-1 decoders made a synthesis 12% slower. A batch-1 row of
# at least RANGE_COLUMNS columns sums its taps inside BLAS.
RANGE_COLUMNS = 512


def _window(shift, time):
    """Output columns [lo, hi) whose input column, shift away, exists."""
    lo = max(0, -shift)
    return lo, max(lo, min(time, time - shift))


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, opened once through ctypes: its
    thread count and its ``cblas_sgemm``, or None when there is no such
    library. The ``64_`` build takes int64 sizes, the other int32."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix, size in (("64_", ctypes.c_int64), ("", ctypes.c_int32)):
            query = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
            sgemm = getattr(lib, "scipy_cblas_sgemm" + suffix, None)
            if query is not None and sgemm is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                ptr, real = ctypes.c_void_p, ctypes.c_float
                sgemm.argtypes = [ctypes.c_int] * 3 + [size] * 3 + [
                    real, ptr, size, ptr, size, real, ptr, size]
                sgemm.restype = None
                return query(), sgemm
    return None


def _blas_threads():
    """The thread count of the OpenBLAS that numpy bundles, or None when
    there is no such library to ask."""
    blas = _openblas()
    return None if blas is None else blas[0]


def _column_ranges(time, rows, depth, dtype):
    """The output column ranges [a, b) of a conv with `rows` output and
    `depth` input channels; one range when the conv is not split.

    float64 convs (gradient checks), one-row products (a matrix-vector
    product in BLAS) and products of fewer than 40 * 80 weights are not
    split: OpenBLAS gives some of their column slices other bits than the
    whole product. OpenBLAS picks its small-matrix sgemm kernel from
    rows * depth * columns of each call, and every range here has at least
    RANGE_COLUMNS - 16 columns, so a split conv of at least 40 * 80 weights
    keeps each range's product above that kernel's cut-off. The bound is a
    conservative one: some smaller products (48 -> 48, 40 -> 56) also kept
    their bits in two ranges, 40 -> 40 and 32 -> 32 did not.
    """
    whole = [(0, time)]
    if (time < 2 * RANGE_COLUMNS or rows < 2 or rows * depth < 40 * 80
            or dtype != np.float32 or _blas_threads() != 1):
        return whole
    n = min(pool.worker_pool()[1], time // RANGE_COLUMNS)
    if n < 2:
        return whole
    cuts = [0] + [time * i // n // 16 * 16 for i in range(1, n)] + [time]
    return list(zip(cuts, cuts[1:]))


def _accumulator(x, taps):
    """The sgemm of numpy's OpenBLAS when the later taps of a conv of `x`
    add into its output inside BLAS, else None: for a float32 batch-1 row
    of at least RANGE_COLUMNS columns whose channels, sgemm's B rows, have
    unit inner stride and lie at least a row apart. numpy's `aligned` flag
    also holds every stride to a multiple of 4 bytes."""
    blas = _openblas()
    step, unit = x.strides[1:]
    if (blas is None or x.shape[0] != 1 or x.shape[2] < RANGE_COLUMNS
            or x.dtype != np.float32 or taps.dtype != np.float32
            or not x.flags.aligned or unit != 4 or step < 4 * x.shape[2]):
        return None
    return blas[1]


def _sum_taps(x, taps, windows, out, tmp, sgemm):
    """The tap products summed into `out`.

    `windows` holds (tap, shift, lo, hi) per tap, in the order they are
    summed: tap j reads input column t + shift for output column t of
    `out`, and only output columns [lo, hi) have input. The first tap
    writes straight into `out`, zeroed outside its window. With `sgemm`,
    each other tap adds its product into columns [lo, hi) of `out` inside
    BLAS (C = A·B + C); without, it writes into `tmp`, zeroed outside its
    window, which is then added. Each product runs over the whole batch at
    once.
    """
    width = out.shape[2]
    for i, (j, shift, lo, hi) in enumerate(windows):
        if i and sgemm is not None:
            if hi > lo:
                a, b, c = taps[j], x[0, :, lo + shift:hi + shift], out[0, :, lo:hi]
                sgemm(101, 111, 111,  # row-major, neither operand transposed
                      *c.shape, a.shape[1], 1.0, a.ctypes.data, a.shape[1],
                      b.ctypes.data, b.strides[0] // 4,
                      1.0, c.ctypes.data, c.strides[0] // 4)
            continue
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
    cout, cin, ksize = weight.shape
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
    sgemm = _accumulator(x, taps)
    tmp = np.empty_like(out) if sgemm is None and len(windows) > 1 else None
    ranges = _column_ranges(time, cout, cin, out.dtype)
    # no views for an unsplit conv: a toy training chain makes thousands
    parts = [(x, taps, windows, out, tmp, sgemm)] if len(ranges) == 1 else [
        (x, taps,
         [(j, shift + a, min(max(lo, a), b) - a, min(max(hi, a), b) - a)
          for j, shift, lo, hi in windows],
         out[:, :, a:b], None if tmp is None else tmp[:, :, a:b], sgemm)
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
