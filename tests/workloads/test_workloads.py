"""Tests for the dataset descriptors."""

from repro.workloads import CIFAR10, DATASETS, IMAGENET, MNIST


class TestDatasets:
    def test_paper_statistics(self):
        """Section I quotes these corpus sizes exactly."""
        assert MNIST.train_images == 60_000 and MNIST.test_images == 10_000
        assert CIFAR10.train_images == 50_000 and CIFAR10.size == 32
        assert IMAGENET.train_images > 1_200_000

    def test_epoch_iterations(self):
        assert MNIST.epoch_iterations(100) == 600
        assert CIFAR10.epoch_iterations(128) == 391

    def test_registry(self):
        assert set(DATASETS) == {"MNIST", "CIFAR-10", "ImageNet"}
