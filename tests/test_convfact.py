import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import loop_conv1d, loop_conv2d, rel_err
from tenkit import (
    TuckerTensor,
    load_model,
    multi_mode_product,
    save_model,
    tucker_hooi,
    tucker_hosvd,
)
from tenkit.convfact import (
    KruskalConvKernel,
    SeparableConvKernel,
    TuckerConvKernel,
    conv1x1,
    conv2d_direct,
    conv_nd_direct,
    decompose_kernel,
    direct_multiply_count,
    kruskal_conv2d,
    kruskal_multiply_count,
    separable_convnd,
    transduce,
    tucker_conv2d,
)
from tenkit.decomp import KruskalTensor
from tenkit.linalg import svd


def random_kruskal_kernel(rng, dims=(3, 4, 3, 3), rank=2):
    t, c, h, w = dims
    return KruskalConvKernel(
        u_out=rng.standard_normal((t, rank)),
        u_in=rng.standard_normal((c, rank)),
        u_h=rng.standard_normal((h, rank)),
        u_w=rng.standard_normal((w, rank)),
    )


def random_separable(rng, t=3, c=2, ks=(3, 2), rank=2):
    return SeparableConvKernel(
        weights=rng.uniform(0.5, 1.5, rank),
        u_out=rng.standard_normal((t, rank)),
        u_in=rng.standard_normal((c, rank)),
        spatial=[rng.standard_normal((k, rank)) for k in ks],
    )


# ---------------------------------------------------------------------------
# direct convolution


def test_conv2d_scalar_kernel_identity(rng):
    x = rng.standard_normal((1, 4, 5))
    w = np.ones((1, 1, 1, 1))
    assert np.allclose(conv2d_direct(x, w), x, atol=1e-15)


def test_conv2d_all_ones_sums():
    x = np.ones((1, 2, 2))
    w = np.ones((1, 1, 2, 2))
    out = conv2d_direct(x, w)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 4.0


def test_conv2d_matches_loop_oracle(rng):
    x = rng.standard_normal((3, 5, 5))
    w = rng.standard_normal((2, 3, 3, 3))
    assert np.abs(conv2d_direct(x, w) - loop_conv2d(x, w)).max() < 1e-12


def test_conv2d_valid_extent(rng):
    out = conv2d_direct(rng.standard_normal((2, 6, 7)), rng.standard_normal((4, 2, 3, 2)))
    assert out.shape == (4, 4, 6)


def test_conv2d_kernel_too_large(rng):
    with pytest.raises(ValueError):
        conv2d_direct(rng.standard_normal((1, 2, 2)), np.ones((1, 1, 3, 3)))


def test_conv_nd_1d_matches_loop(rng):
    x = rng.standard_normal((1, 8))
    w = rng.standard_normal((1, 1, 3))
    got = conv_nd_direct(x, w)
    assert np.allclose(got[0], loop_conv1d(x[0], w[0, 0]), atol=1e-13)


def test_conv_nd_3d_matches_loop_oracle(rng):
    x = rng.standard_normal((2, 4, 3, 4))
    w = rng.standard_normal((2, 2, 2, 2, 3))
    got = conv_nd_direct(x, w)
    t, c, k1, k2, k3 = w.shape
    expect = np.zeros((t, 3, 2, 2))
    for ti in range(t):
        for a in range(3):
            for b in range(2):
                for d in range(2):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(k1):
                            for j in range(k2):
                                for k in range(k3):
                                    acc += (
                                        w[ti, ci, i, j, k]
                                        * x[ci, a + i, b + j, d + k]
                                    )
                    expect[ti, a, b, d] = acc
    assert np.abs(got - expect).max() < 1e-12


def test_conv_nd_valid_extent_random_shapes(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        ks = [int(rng.integers(1, 4)) for _ in range(n)]
        ds = [k + int(rng.integers(0, 4)) for k in ks]
        t, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        out = conv_nd_direct(
            rng.standard_normal((c, *ds)), rng.standard_normal((t, c, *ks))
        )
        assert out.shape == (t, *[d - k + 1 for d, k in zip(ds, ks)])


# ---------------------------------------------------------------------------
# 1x1 convolution


def test_conv1x1_identity(rng):
    x = rng.standard_normal((3, 4, 4))
    assert np.array_equal(conv1x1(x, np.eye(3)), x)


def test_conv1x1_equals_direct_with_1x1_kernel(rng):
    x = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((2, 3))
    direct = conv2d_direct(x, w[:, :, None, None])
    assert np.abs(conv1x1(x, w) - direct).max() < 1e-13


def test_conv1x1_rank_deficient_weight_reduces_rank(rng):
    x = rng.standard_normal((4, 5, 5))
    w = np.outer(rng.standard_normal(4), rng.standard_normal(4))  # rank 1
    out = conv1x1(x, w)
    s = svd(out.reshape(4, -1)).S
    assert np.sum(s > 1e-10 * s[0]) == 1


# ---------------------------------------------------------------------------
# factorized pipelines


def test_kruskal_pipeline_rank_one_exact(rng):
    k = random_kruskal_kernel(rng, rank=1)
    x = rng.standard_normal((4, 6, 6))
    direct = conv2d_direct(x, k.reconstruct())
    assert np.abs(kruskal_conv2d(x, k) - direct).max() <= 1e-12


def test_kruskal_pipeline_matches_direct(rng):
    k = random_kruskal_kernel(rng, dims=(3, 4, 3, 3), rank=3)
    x = rng.standard_normal((4, 8, 8))
    direct = conv2d_direct(x, k.reconstruct())
    assert np.abs(kruskal_conv2d(x, k) - direct).max() <= 1e-10


def test_kruskal_multiply_counts():
    counts = kruskal_multiply_count((8, 4, 3, 3), 2, (4, 10, 10))
    direct = direct_multiply_count((8, 4, 3, 3), (4, 10, 10))
    assert direct == 8 * 4 * 3 * 3 * 8 * 8
    assert counts["conv1x1_in"] == 2 * 4 * 10 * 10
    assert counts["total"] == sum(
        v for k, v in counts.items() if k != "total"
    )


@pytest.mark.parametrize(
    "count, message",
    [
        (lambda: direct_multiply_count((8, 4, 2.5, 3), (4, 10, 10)), "kernel size must be"),
        (lambda: kruskal_multiply_count((8, 4, 3, 3), 2, (4, 10.5, 10)), "input size must be"),
        (lambda: kruskal_multiply_count((8, 4, 3, 3), True, (4, 10, 10)), "rank must be"),
    ],
    ids=["kernel", "input", "rank"],
)
def test_multiply_counts_refuse_a_size_that_is_not_an_integer(count, message):
    # int() used to truncate the direct count of a 2.5-high kernel
    with pytest.raises(ValueError, match=message):
        count()


@pytest.mark.parametrize(
    "kernel_shape, in_shape", [((2, 2, 5, 5), (2, 3, 3)), ((2, 2, 3, 5), (2, 4, 4))]
)
def test_multiply_counts_refuse_a_kernel_larger_than_its_input(kernel_shape, in_shape):
    # the first pair gave a direct count of 100 and depthwise_h = -30
    with pytest.raises(ValueError, match="must be between 1 and the input extent"):
        direct_multiply_count(kernel_shape, in_shape)
    with pytest.raises(ValueError, match="must be between 1 and the input extent"):
        kruskal_multiply_count(kernel_shape, 2, in_shape)


def test_tucker_pipeline_full_rank_hosvd(rng):
    w = rng.standard_normal((3, 3, 3, 3))
    k = TuckerConvKernel(tucker_hosvd(w, (3, 3, 3, 3)))
    x = rng.standard_normal((3, 6, 6))
    direct = conv2d_direct(x, k.reconstruct())
    assert np.abs(tucker_conv2d(x, k) - direct).max() <= 1e-10
    assert rel_err(k.reconstruct(), w) < 1e-10


def test_tucker_pipeline_core_only(rng):
    core = rng.standard_normal((2, 2, 3, 3))
    k = TuckerConvKernel(
        TuckerTensor(core, [np.eye(2), np.eye(2), np.eye(3), np.eye(3)])
    )
    x = rng.standard_normal((2, 5, 5))
    assert np.abs(tucker_conv2d(x, k) - conv2d_direct(x, core)).max() <= 1e-12


def test_tucker_pipeline_truncated_ranks(rng):
    w = rng.standard_normal((3, 3, 3, 3))
    k = TuckerConvKernel(tucker_hooi(w, (2, 2, 3, 3)))
    x = rng.standard_normal((3, 7, 7))
    direct = conv2d_direct(x, k.reconstruct())
    assert np.abs(tucker_conv2d(x, k) - direct).max() <= 1e-10


def test_separable_2d_reduces_to_kruskal(rng):
    sep = random_separable(rng, t=3, c=2, ks=(3, 3), rank=2)
    x = rng.standard_normal((2, 6, 6))
    kru = KruskalConvKernel(
        u_out=sep.u_out * sep.weights,
        u_in=sep.u_in,
        u_h=sep.spatial[0],
        u_w=sep.spatial[1],
    )
    assert np.abs(separable_convnd(x, sep) - kruskal_conv2d(x, kru)).max() <= 1e-12


def test_separable_1d_matches_direct(rng):
    sep = random_separable(rng, t=2, c=3, ks=(3,), rank=2)
    x = rng.standard_normal((3, 9))
    direct = conv_nd_direct(x, sep.reconstruct())
    assert np.abs(separable_convnd(x, sep) - direct).max() <= 1e-11


def test_separable_3d_matches_direct(rng):
    sep = random_separable(rng, t=2, c=2, ks=(2, 3, 2), rank=2)
    x = rng.standard_normal((2, 4, 5, 4))
    direct = conv_nd_direct(x, sep.reconstruct())
    assert np.abs(separable_convnd(x, sep) - direct).max() <= 1e-9


def test_separable_zero_weights_zero_output(rng):
    sep = random_separable(rng)
    sep.weights[:] = 0.0
    x = rng.standard_normal((2, 5, 5))
    assert np.all(separable_convnd(x, sep) == 0)


# ---------------------------------------------------------------------------
# transduction


def test_transduce_ones_factor_broadcasts(rng):
    sep = random_separable(rng, t=2, c=2, ks=(3, 2), rank=2)
    ext = transduce(sep, np.ones((1, 2)))
    x3 = rng.standard_normal((2, 6, 6, 4))
    out3 = separable_convnd(x3, ext)
    for d in range(4):
        out2 = separable_convnd(x3[:, :, :, d], sep)
        assert np.abs(out3[:, :, :, d] - out2).max() <= 1e-11


def test_transduce_2d_to_3d_equivalence(rng):
    sep = random_separable(rng, t=2, c=2, ks=(2, 2), rank=2)
    ext = transduce(sep, rng.standard_normal((2, 2)))
    x = rng.standard_normal((2, 4, 4, 4))
    direct = conv_nd_direct(x, ext.reconstruct())
    assert np.abs(separable_convnd(x, ext) - direct).max() <= 1e-9


def test_transduce_rank_mismatch(rng):
    sep = random_separable(rng, rank=2)
    with pytest.raises(ValueError):
        transduce(sep, np.ones((3, 5)))


# ---------------------------------------------------------------------------
# kernel decomposition


def test_decompose_kernel_cp_exact_rank(rng):
    truth = KruskalTensor(
        np.ones(2), [rng.standard_normal((d, 2)) for d in (3, 4, 3, 3)]
    )
    w = truth.to_tensor()
    fact, info = decompose_kernel(w, "cp", 2)
    assert info["relative_error"] < 1e-6
    assert isinstance(fact, KruskalConvKernel)


def test_decompose_kernel_tucker_full_ranks(rng):
    w = rng.standard_normal((3, 4, 3, 3))
    fact, info = decompose_kernel(w, "tucker", (3, 4, 3, 3))
    assert info["relative_error"] < 1e-10


def test_decompose_kernel_param_counts():
    w = np.zeros((64, 64, 3, 3))
    w[0, 0, 0, 0] = 1.0
    fact, info = decompose_kernel(w, "cp", 16)
    assert info["params_after"] == 16 * (64 + 64 + 3 + 3) == 2144
    assert info["params_before"] == 36864


def test_decompose_kernel_rejects_wrong_order(rng):
    with pytest.raises(ValueError):
        decompose_kernel(rng.standard_normal((2, 2, 2)), "cp", 2)
    with pytest.raises(ValueError):
        decompose_kernel(rng.standard_normal((2, 2, 2, 2)), "bogus", 2)


def test_decompose_kernel_names_the_order(rng):
    with pytest.raises(ValueError, match="order-4 T x C x H x W kernel, got order 3"):
        decompose_kernel(rng.standard_normal((2, 2, 2)), "tucker", (2, 2, 2))


@pytest.mark.parametrize("ranks", [[2, 7], (2,), np.array([2])])
def test_decompose_kernel_cp_rejects_a_rank_sequence(rng, ranks):
    with pytest.raises(ValueError, match="cp form takes one int rank"):
        decompose_kernel(rng.standard_normal((3, 4, 3, 3)), "cp", ranks)


def test_decompose_kernel_cp_takes_a_numpy_int_rank(rng):
    w = rng.standard_normal((3, 4, 3, 3))
    fact, info = decompose_kernel(w, "cp", np.int64(2))
    ref, ref_info = decompose_kernel(w, "cp", 2)
    assert fact.rank == 2
    assert np.array_equal(fact.reconstruct(), ref.reconstruct())
    assert info == ref_info


def test_decompose_kernel_tucker_rejects_a_fractional_rank(rng):
    with pytest.raises(ValueError, match="rank for mode 1 must be a positive integer, got 2.5"):
        decompose_kernel(rng.standard_normal((3, 4, 3, 3)), "tucker", (2, 2.5, 2, 2))


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "x_shape, k_shape, message",
    [
        ((2, 5, 5), (3, 2, 3), "kernel of order 3 does not match input of order 3"),
        ((2, 5, 5), (3, 4, 2, 2), "kernel expects 4 input channels, got 2"),
        ((2, 5, 5), (3, 2, 2, 6), "kernel size 6 on spatial mode 1 must be between 1 and the input extent 5"),
    ],
    ids=["order", "channels", "kernel-longer-than-input"],
)
def test_conv_nd_direct_rejects_mismatched_shapes(rng, x_shape, k_shape, message):
    with pytest.raises(ValueError, match=message):
        conv_nd_direct(rng.standard_normal(x_shape), rng.standard_normal(k_shape))


@pytest.mark.parametrize(
    "ks, message",
    [
        ((0, 2), "kernel size 0 on spatial mode 0 must be between 1 and the input extent 3"),
        ((2, 7), "kernel size 7 on spatial mode 1 must be between 1 and the input extent 6"),
    ],
    ids=["empty-bank", "bank-longer-than-input"],
)
def test_separable_convnd_rejects_a_bank_outside_the_input(rng, ks, message):
    # a 0-row bank used to give an output one entry longer than the input
    kernel = random_separable(rng, c=4, ks=ks)
    with pytest.raises(ValueError, match=message):
        separable_convnd(rng.standard_normal((4, 3, 6)), kernel)


def test_conv1x1_rejects_a_weight_of_the_wrong_width(rng):
    with pytest.raises(ValueError, match=r"weight of shape \(3, 4\) does not match 2 channels"):
        conv1x1(rng.standard_normal((2, 5, 5)), rng.standard_normal((3, 4)))


def test_separable_kernel_factors_must_share_the_rank(rng):
    with pytest.raises(ValueError, match="must share the rank"):
        SeparableConvKernel(
            np.ones(2), rng.standard_normal((3, 2)), rng.standard_normal((4, 3)),
            [rng.standard_normal((3, 2))],
        )


@pytest.mark.parametrize("weights", [5.0, np.ones((2, 1))], ids=["scalar", "matrix"])
def test_separable_kernel_weights_must_be_a_vector(rng, weights):
    # a 0-d weights used to fail as an IndexError reading its length
    with pytest.raises(ValueError, match="weights must be a vector"):
        SeparableConvKernel(
            weights, rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
            [rng.standard_normal((3, 2))],
        )


def test_tucker_conv_kernel_needs_a_4th_order_core(rng):
    core = TuckerTensor(rng.standard_normal((2, 2, 2)), [np.eye(2)] * 3)
    with pytest.raises(ValueError, match="4th-order core"):
        TuckerConvKernel(core)


def test_2d_pipelines_reject_a_non_3d_input(rng):
    x = rng.standard_normal((4, 6))
    with pytest.raises(ValueError, match="kruskal_conv2d expects a C x H x W input"):
        kruskal_conv2d(x, random_kruskal_kernel(rng))
    tucker = TuckerConvKernel(tucker_hosvd(rng.standard_normal((3, 4, 3, 3)), (2, 2, 2, 2)))
    with pytest.raises(ValueError, match="tucker_conv2d expects a C x H x W input"):
        tucker_conv2d(x, tucker)


# ---------------------------------------------------------------------------
# serialization


def test_conv_kernel_manifest_roundtrip(tmp_path, rng):
    kru = random_kruskal_kernel(rng)
    save_model(tmp_path / "kru", kru)
    back = load_model(tmp_path / "kru")
    assert np.array_equal(back.reconstruct(), kru.reconstruct())

    tuc = TuckerConvKernel(tucker_hosvd(rng.standard_normal((3, 3, 2, 2)), (2, 2, 2, 2)))
    save_model(tmp_path / "tuc", tuc)
    back = load_model(tmp_path / "tuc")
    assert np.array_equal(back.reconstruct(), tuc.reconstruct())

    sep = random_separable(rng)
    save_model(tmp_path / "sep", sep)
    back = load_model(tmp_path / "sep")
    assert np.array_equal(back.reconstruct(), sep.reconstruct())


# ---------------------------------------------------------------------------
# direct convolution, one channel contraction per kernel offset


def loop_conv_nd(x, w):
    """Valid N-D multichannel cross-correlation by explicit summation."""
    t, c, *ks = w.shape
    extent = [d - k + 1 for d, k in zip(x.shape[1:], ks)]
    out = np.zeros((t, *extent))
    for idx in np.ndindex(t, *extent):
        acc = 0.0
        for ci in range(c):
            for off in np.ndindex(*ks):
                pos = tuple(p + o for p, o in zip(idx[1:], off))
                acc += w[(idx[0], ci, *off)] * x[(ci, *pos)]
        out[idx] = acc
    return out


@pytest.mark.parametrize(
    "t, c, dims, ks",
    [
        (3, 2, (7,), (3,)),
        (1, 3, (6,), (2,)),
        (2, 1, (5,), (5,)),
        (3, 2, (5, 6), (2, 3)),
        (1, 2, (4, 5), (3, 2)),
        (2, 1, (5, 4), (2, 2)),
        (2, 3, (3, 4), (3, 4)),
        (2, 2, (4, 3, 5), (2, 2, 3)),
        (1, 1, (3, 4, 3), (2, 3, 1)),
        (2, 2, (3, 2, 3), (3, 2, 3)),
    ],
)
def test_conv_nd_direct_matches_loop_oracle(rng, t, c, dims, ks):
    x = rng.standard_normal((c, *dims))
    w = rng.standard_normal((t, c, *ks))
    got = conv_nd_direct(x, w)
    ref = loop_conv_nd(x, w)
    assert got.shape == ref.shape
    # both sums round within n * eps of the sum of the term magnitudes
    terms = c * int(np.prod(ks))
    bound = 2 * terms * np.finfo(np.float64).eps * loop_conv_nd(np.abs(x), np.abs(w))
    assert np.all(np.abs(got - ref) <= bound)


def test_conv_nd_direct_without_spatial_modes_is_matrix_vector(rng):
    x = rng.standard_normal(5)
    w = rng.standard_normal((3, 5))
    assert np.array_equal(conv_nd_direct(x, w), w @ x)


@pytest.mark.parametrize("shape", [(1, 2, 0), (1, 2, 2, 0), (1, 2, 0, 2)])
def test_conv_nd_direct_rejects_an_empty_kernel_mode(shape):
    x = np.ones((2, 3, 4)[: len(shape) - 1])
    mode = shape[2:].index(0)
    with pytest.raises(ValueError, match=f"kernel size 0 on spatial mode {mode}"):
        conv_nd_direct(x, np.ones(shape))


def test_conv_nd_direct_output_is_contiguous_float64(rng):
    x = rng.standard_normal((6, 5, 3)).transpose(2, 1, 0)  # non-contiguous view
    w = rng.integers(-3, 4, size=(4, 3, 2, 2))  # integer kernel
    out = conv_nd_direct(x, w)
    assert out.dtype == np.float64
    assert out.flags.c_contiguous


def test_conv_nd_direct_extra_memory_is_about_one_output(rng):
    x = rng.standard_normal((16, 6, 20, 20))
    w = rng.standard_normal((16, 16, 3, 3, 3))
    out_bytes = 8 * 16 * 4 * 18 * 18
    tracemalloc.start()
    try:
        conv_nd_direct(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an im2col copy of the 27 windows would peak near 27 outputs
    assert peak < 5 * out_bytes


# ---------------------------------------------------------------------------
# bit-identity with the window kernels the pipelines used to run


def kn2row_reference(x, kernel):
    """Zero-initialised sum of one channel contraction per kernel offset."""
    extent = [d - k + 1 for d, k in zip(x.shape[1:], kernel.shape[2:])]
    out = np.zeros((kernel.shape[0], *extent))
    for offset in np.ndindex(*kernel.shape[2:]):
        window = tuple(slice(o, o + e) for o, e in zip(offset, extent))
        out += np.tensordot(kernel[(..., *offset)], x[(slice(None), *window)], axes=1)
    return out


def separable_reference(x, kernel):
    """Depthwise stages as an einsum over a sliding-window view."""
    z = conv1x1(x, kernel.u_in.T)
    for i, bank in enumerate(kernel.spatial):
        windows = sliding_window_view(z, bank.shape[0], axis=i + 1)
        z = np.einsum("r...k,kr->r...", windows, bank)
    return conv1x1(z, kernel.u_out * kernel.weights)


def test_pipelines_match_the_window_kernels_bit_for_bit(rng):
    # the benchmark's conv_max_dev is a rounding-level figure, so a new
    # summation order in any pipeline would move it by chance
    w = rng.standard_normal((16, 16, 3, 3))
    image = rng.standard_normal((16, 12, 12))
    volume = rng.standard_normal((16, 4, 12, 12))
    assert np.array_equal(conv_nd_direct(image, w), kn2row_reference(image, w))
    w3 = rng.standard_normal((16, 16, 2, 3, 3))
    assert np.array_equal(conv_nd_direct(volume, w3), kn2row_reference(volume, w3))

    kru = random_kruskal_kernel(rng, dims=(16, 16, 3, 3), rank=4)
    assert np.array_equal(kruskal_conv2d(image, kru), separable_reference(image, kru))
    sep = transduce(
        SeparableConvKernel(rng.uniform(0.5, 1.5, 4), kru.u_out, kru.u_in, kru.spatial),
        kru.u_h,
    )
    assert np.array_equal(separable_convnd(volume, sep), separable_reference(volume, sep))

    tucker = TuckerConvKernel(tucker_hosvd(w, (4, 4, 3, 3)))
    core, (u_out, u_in, u_h, u_w) = tucker.tucker.core, tucker.tucker.factors
    absorbed = multi_mode_product(core, (u_h, u_w), modes=(2, 3))
    ref = conv1x1(kn2row_reference(conv1x1(image, u_in.T), absorbed), u_out)
    assert np.array_equal(tucker_conv2d(image, tucker), ref)
