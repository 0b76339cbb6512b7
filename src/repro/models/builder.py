"""Custom model-configuration builder.

Downstream users frequently want "what about a 20B GQA model?" — this
builder constructs valid LLaMA-style :class:`ModelConfig` objects from a
handful of knobs and can synthesize a config targeting an approximate
parameter count, so capacity-planning studies are not limited to the
paper's nine registered checkpoints.
"""

import dataclasses

from repro.models.config import FFNKind, ModelConfig
from repro.utils.validation import require_positive

# Width/depth pairs that follow the published scaling ladder; used by the
# parameter-count-targeted synthesizer.
_LADDER = [
    (512, 8), (768, 12), (1024, 16), (2048, 24), (2560, 32), (4096, 32),
    (5120, 40), (6144, 44), (7168, 48), (8192, 56), (9216, 64),
    (10240, 72), (12288, 96), (14336, 112), (16384, 128),
]


def build_model(name: str,
                n_layers: int,
                d_model: int,
                n_heads: int) -> ModelConfig:
    """Construct a custom LLaMA-style decoder-only configuration.

    Attention is MHA (one KV head per query head; replace ``n_kv_heads``
    on the result for GQA). The FFN is SwiGLU at the conventional ~2.7x
    ratio (which keeps the FFN parameter count comparable to a 4x ReLU
    MLP), with LLaMA's 32k vocabulary, 4096 positions and untied
    embeddings.
    """
    return ModelConfig(
        name=name,
        family="custom",
        n_layers=n_layers,
        d_model=d_model,
        n_heads=n_heads,
        n_kv_heads=n_heads,
        d_ff=int(8 * d_model / 3),
        ffn_kind=FFNKind.SWIGLU,
        vocab_size=32000,
        max_positions=4096,
        tied_embeddings=False,
        learned_positional_embeddings=False,
    )


def scale_to_params(target_billions: float,
                    name: str = None) -> ModelConfig:
    """Synthesize a config whose parameter count approximates the target.

    Walks the published width/depth ladder and picks the rung whose
    derived count is closest to *target_billions*.
    """
    require_positive(target_billions, "target_billions")
    best: ModelConfig = None
    best_err = float("inf")
    for d_model, n_layers in _LADDER:
        candidate = build_model(
            name or f"Custom-{target_billions:g}B",
            n_layers=n_layers,
            d_model=d_model,
            n_heads=max(8, d_model // 128),
        )
        err = abs(candidate.param_count() / 1e9 - target_billions)
        if err < best_err:
            best, best_err = candidate, err
    if name is None:
        actual = best.param_count() / 1e9
        best = dataclasses.replace(best, name=f"Custom-{actual:.1f}B")
    return best
