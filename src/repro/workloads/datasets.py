"""Dataset descriptors from the paper's introduction.

Section I sizes the training-cost argument with three corpora: MNIST
(60k train / 10k test, 28x28 grey), CIFAR-10 (50k/10k, 32x32 colour)
and ImageNet (1.2M+ high-resolution).  These descriptors carry those
published statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ShapeError


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of an image-classification corpus."""

    name: str
    train_images: int
    test_images: int
    channels: int
    size: int
    classes: int

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return (self.channels, self.size, self.size)

    @property
    def bytes_per_image(self) -> int:
        return self.channels * self.size * self.size * 4

    def epoch_iterations(self, batch: int) -> int:
        """Training iterations per epoch at a given batch size."""
        if batch <= 0:
            raise ShapeError(f"batch must be positive, got {batch}")
        return -(-self.train_images // batch)


MNIST = DatasetSpec("MNIST", 60_000, 10_000, 1, 28, 10)
CIFAR10 = DatasetSpec("CIFAR-10", 50_000, 10_000, 3, 32, 10)
IMAGENET = DatasetSpec("ImageNet", 1_281_167, 50_000, 3, 224, 1000)

DATASETS: Dict[str, DatasetSpec] = {
    d.name: d for d in (MNIST, CIFAR10, IMAGENET)
}
