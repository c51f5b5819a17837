"""Miscellaneous edge-path tests across modules."""

import numpy as np
import pytest

from repro.errors import ShapeError


class TestLayerBaseClass:
    def test_abstract_methods_raise(self):
        from repro.nn.module import Layer
        layer = Layer("raw")
        with pytest.raises(NotImplementedError):
            layer.forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            layer.backward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            layer.output_shape((1,))

    def test_call_dispatches_to_forward(self, rng):
        from repro.nn import ReLU
        r = ReLU()
        x = rng.standard_normal((2, 2))
        np.testing.assert_array_equal(r(x), r.forward(x))

    def test_parameter_count_default_zero(self):
        from repro.nn import ReLU
        assert ReLU().parameter_count() == 0

    def test_check_nchw(self, rng):
        from repro.nn import ReLU
        from repro.nn.module import check_nchw
        with pytest.raises(ShapeError):
            check_nchw(rng.standard_normal((2, 2)), ReLU())

    def test_parameter_repr_and_zero_grad(self):
        from repro.nn.module import Parameter
        p = Parameter(np.ones((2, 2)), name="w")
        p.grad[:] = 5.0
        p.zero_grad()
        assert p.grad.sum() == 0.0
        assert p.size == 4 and p.shape == (2, 2)


class TestUnrolledShapeRules:
    def test_non_square_kernel_rejected(self, rng):
        from repro.conv import unrolled_forward
        with pytest.raises(ShapeError):
            unrolled_forward(rng.standard_normal((1, 1, 6, 6)),
                             rng.standard_normal((1, 1, 3, 2)))

    def test_backward_weights_non_square_rejected(self, rng):
        from repro.conv.unrolled import backward_weights
        with pytest.raises(ShapeError):
            backward_weights(rng.standard_normal((1, 1, 4, 4)),
                             rng.standard_normal((1, 1, 6, 6)), (3, 2))


class TestFftBackwardShapeRules:
    def test_backward_weights_non_square_kernel(self, rng):
        from repro.conv.fftconv import backward_weights
        with pytest.raises(ShapeError):
            backward_weights(rng.standard_normal((1, 1, 4, 4)),
                             rng.standard_normal((1, 1, 6, 6)), (3, 2))

    def test_backward_input_non_square_input(self, rng):
        from repro.conv.fftconv import backward_input
        with pytest.raises(ShapeError):
            backward_input(rng.standard_normal((1, 1, 4, 4)),
                           rng.standard_normal((1, 1, 3, 3)), (6, 7))


class TestSweepCustomRanges:
    def test_custom_batch_range(self):
        from repro.config import sweep_batch
        cfgs = list(sweep_batch(start=64, stop=128, step=64))
        assert [c.batch for c in cfgs] == [64, 128]

    def test_custom_kernel_range(self):
        from repro.config import sweep_kernel
        assert [c.kernel_size for c in sweep_kernel(3, 5)] == [3, 4, 5]


class TestSimulateFallbacks:
    def test_unknown_layer_gets_streaming_cost(self):
        """A layer type the simulator has no model for still gets a
        bandwidth-bound estimate (the default branch)."""
        from repro.frameworks.registry import get_implementation
        from repro.nn.module import Layer
        from repro.nn.simulate import layer_time

        class Mystery(Layer):
            layer_type = "Mystery"

            def output_shape(self, s):
                return s

        t = layer_time(Mystery(), (8, 16, 32, 32), (8, 16, 32, 32),
                       get_implementation("cudnn"))
        assert t > 0

    def test_fft_impl_falls_back_on_strided_conv(self):
        """Theano-fft profiling a stride-4 conv goes through the
        CorrMM fallback instead of crashing."""
        from repro.nn import Conv2d
        from repro.nn.simulate import layer_time
        from repro.frameworks.registry import get_implementation
        conv = Conv2d(3, 96, 11, stride=4, rng=0)
        t = layer_time(conv, (32, 3, 227, 227), (32, 96, 55, 55),
                       get_implementation("theano-fft"))
        assert t > 0


class TestWorkloadValidation:
    def test_digit_batches_validation(self):
        from repro.workloads import DigitDataset
        ds = DigitDataset.generate(train=32, test=8, rng=0)
        with pytest.raises(ShapeError):
            list(ds.batches(0))

    def test_dataset_epoch_iterations_validation(self):
        from repro.workloads import MNIST
        with pytest.raises(ShapeError):
            MNIST.epoch_iterations(0)


class TestTransferOpDataclass:
    def test_iteration_profile_fraction_zero_division_guard(self):
        from repro.config import BASE_CONFIG
        from repro.core.evalcache import EvalRecord
        r = EvalRecord(implementation="x", paper_name="x",
                       config=BASE_CONFIG, device="Tesla K40c",
                       supported=True, time_s=0.0, gpu_time_s=0.0,
                       transfer_time_s=0.0, exposed_transfer_s=0.0,
                       peak_memory_bytes=0, oom=False, oom_bytes=None)
        assert r.transfer_fraction == 0.0
