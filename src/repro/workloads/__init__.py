"""Dataset descriptors.

The paper's measurements need input *shapes*, not labelled data.  This
subpackage carries the published statistics of the corpora the
paper's introduction cites (MNIST, CIFAR-10, ImageNet), which the
training-cost estimate (:mod:`repro.core.training_cost`) reads.
"""

from .datasets import DatasetSpec, MNIST, CIFAR10, IMAGENET, DATASETS

__all__ = [
    "DatasetSpec",
    "MNIST",
    "CIFAR10",
    "IMAGENET",
    "DATASETS",
]
