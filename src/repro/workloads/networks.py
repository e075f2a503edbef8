"""Network registry (Table I) and per-network operator mixes.

Operator counts per network come from Table II's ``total`` column.  The
class mixes are calibrated so the *measured* population statistics (how many
operators end up influenced / vectorizable, who dominates execution time)
match the paper's profile: BERT and LSTM are element-wise dominated with
about half the operators left untouched by influence, the ResNets carry the
layout-conversion (transpose) operators responsible for the large speedups,
ResNeXt/VGG sit in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NetworkSpec:
    """One Table I row plus the generator's operator-class mix."""

    name: str
    kind: str                 # "nlp" | "cv"
    dataset: str
    total_operators: int
    # class name -> weight; classes are defined in generator.py
    mix: dict = field(default_factory=dict)
    # scale hints for shapes (rows of 2D ops, channels of 4D ops)
    size_class: str = "medium"  # "small" | "medium" | "large"


NETWORKS: dict[str, NetworkSpec] = {
    "BERT": NetworkSpec(
        name="BERT", kind="nlp", dataset="zhwiki", total_operators=109,
        mix={"elementwise_neutral": 46, "elementwise_vec": 30,
             "broadcast": 18, "reduce_producer": 8, "softmax_like": 7,
             "attention_block": 4},
        size_class="large"),
    "LSTM": NetworkSpec(
        name="LSTM", kind="nlp", dataset="ACLIMDB, GloVe", total_operators=4,
        mix={"elementwise_neutral": 1, "elementwise_vec": 2, "broadcast": 1},
        size_class="small"),
    "MobileNetv2": NetworkSpec(
        name="MobileNetv2", kind="cv", dataset="ImageNet", total_operators=18,
        mix={"elementwise_neutral": 2, "elementwise_vec": 8, "broadcast": 5,
             "layout_conversion": 2, "strided_pool": 1,
             "depthwise_conv": 3},
        size_class="small"),
    "ResNet50": NetworkSpec(
        name="ResNet50", kind="cv", dataset="CIFAR-10", total_operators=17,
        mix={"elementwise_neutral": 5, "elementwise_vec": 4, "broadcast": 2,
             "layout_conversion": 4, "layout_conversion_f16": 2},
        size_class="medium"),
    "ResNet101": NetworkSpec(
        name="ResNet101", kind="cv", dataset="ImageNet", total_operators=22,
        mix={"elementwise_neutral": 6, "elementwise_vec": 5, "broadcast": 2,
             "layout_conversion": 4, "layout_conversion_f16": 5},
        size_class="large"),
    "ResNeXt50": NetworkSpec(
        name="ResNeXt50", kind="cv", dataset="ImageNet", total_operators=33,
        mix={"elementwise_neutral": 11, "elementwise_vec": 12, "broadcast": 6,
             "layout_conversion": 4, "transpose2d": 2, "depthwise_conv": 2},
        size_class="medium"),
    "VGG16": NetworkSpec(
        name="VGG16", kind="cv", dataset="CIFAR-10", total_operators=14,
        mix={"elementwise_neutral": 4, "elementwise_vec": 4, "broadcast": 2,
             "layout_conversion": 3, "strided_pool": 1, "stencil_2d": 1},
        size_class="medium"),
}


def table1_rows() -> list[tuple[str, str, str]]:
    """The rows of Table I: (network, type, dataset)."""
    return [(spec.name, spec.kind, spec.dataset)
            for spec in NETWORKS.values()]
