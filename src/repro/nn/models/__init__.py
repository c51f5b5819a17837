"""Reference CNN architectures.

The four "typical real-life CNN models" the paper breaks down in
Fig. 2 — AlexNet, GoogLeNet, OverFeat and VGG — plus LeNet-5, the
architecture the paper uses to introduce CNNs (its Fig. 1).

Every model is a description built from :mod:`repro.nn` layers:
geometry and parameter shapes, no weights.  :func:`model_registry`
maps the paper's names to constructors.
"""

from .lenet5 import lenet5
from .alexnet import alexnet
from .vgg import vgg19, vgg16
from .overfeat import overfeat
from .googlenet import googlenet
from .resnet import resnet18, resnet34

#: name -> (constructor, canonical input shape (C, H, W)) for the four
#: Fig. 2 models.
FIG2_MODELS = {
    "GoogLeNet": (googlenet, (3, 224, 224)),
    "VGG": (vgg19, (3, 224, 224)),
    "OverFeat": (overfeat, (3, 231, 231)),
    "AlexNet": (alexnet, (3, 227, 227)),
}


def model_registry():
    """All model constructors by name (the Fig. 2 four, LeNet-5, and
    the post-paper ResNet extensions)."""
    return {
        "LeNet-5": (lenet5, (1, 32, 32)),
        "AlexNet": (alexnet, (3, 227, 227)),
        "VGG-16": (vgg16, (3, 224, 224)),
        "VGG": (vgg19, (3, 224, 224)),
        "OverFeat": (overfeat, (3, 231, 231)),
        "GoogLeNet": (googlenet, (3, 224, 224)),
        "ResNet-18": (resnet18, (3, 224, 224)),
        "ResNet-34": (resnet34, (3, 224, 224)),
    }


__all__ = ["lenet5", "alexnet", "vgg16", "vgg19", "overfeat", "googlenet",
           "resnet18", "resnet34", "FIG2_MODELS", "model_registry"]
