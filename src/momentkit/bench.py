"""Operation-count evidence for the linear cost of bottleneck attention.

Multiply-accumulate counts come from the tensor library's forward matmul
counter, so they reflect exactly what the blocks execute. Doubling the clip
count should roughly double the cost of a compress+expand round (the token
count is fixed), while a plain all-pairs attention over the clips roughly
quadruples.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autograd as ag
from .autograd import RngState, Tensor
from .blocks import AttentionParams, BottleneckTokens, attention, compress, expand

BENCH_DIM = 4
BENCH_HEADS = 1
BENCH_TOKENS = 4


def measure_bottleneck_macs(n_clips: int, dim: int = BENCH_DIM, heads: int = BENCH_HEADS,
                            n_tokens: int = BENCH_TOKENS) -> int:
    """MACs for one compress+expand round over a length-``n_clips`` sequence."""
    rng = RngState(0)
    comp = AttentionParams(dim, heads, rng)
    expd = AttentionParams(dim, heads, rng)
    tokens = BottleneckTokens(n_tokens, dim, rng)
    x = Tensor(rng.normal((1, n_clips, dim)))
    with ag.no_grad():
        ag.reset_mac_count()
        z = compress(x, tokens.value((1,)), comp)
        expand(x, z, expd)
        return ag.mac_count()


def measure_full_attention_macs(n_clips: int, dim: int = BENCH_DIM, heads: int = BENCH_HEADS) -> int:
    """MACs for one all-pairs self-attention over the same sequence (reference)."""
    rng = RngState(0)
    params = AttentionParams(dim, heads, rng)
    x = Tensor(rng.normal((1, n_clips, dim)))
    with ag.no_grad():
        ag.reset_mac_count()
        attention(params, x, x, residual=x)
        return ag.mac_count()


@dataclass
class ScalingPoint:
    n_clips: int
    bottleneck_macs: int
    full_macs: int


@dataclass
class ScalingReport:
    points: list[ScalingPoint]

    def growth(self, field: str) -> list[float]:
        """Cost ratios between consecutive sequence lengths."""
        vals = [getattr(p, field) for p in self.points]
        return [b / a for a, b in zip(vals, vals[1:])]

    def as_dict(self) -> dict:
        return {
            "lengths": [p.n_clips for p in self.points],
            "bottleneck_macs": [p.bottleneck_macs for p in self.points],
            "full_macs": [p.full_macs for p in self.points],
            "bottleneck_growth": self.growth("bottleneck_macs"),
            "full_growth": self.growth("full_macs"),
        }

    def format_table(self) -> str:
        lines = [f"{'clips':>8} {'bottleneck':>12} {'full':>12}"]
        for p in self.points:
            lines.append(f"{p.n_clips:>8} {p.bottleneck_macs:>12} {p.full_macs:>12}")
        bg = " ".join(f"{r:.3f}x" for r in self.growth("bottleneck_macs"))
        fg = " ".join(f"{r:.3f}x" for r in self.growth("full_macs"))
        lines.append(f"growth per doubling: bottleneck {bg} | full {fg}")
        return "\n".join(lines)


def scaling_report(lengths: tuple[int, ...] = (64, 128)) -> ScalingReport:
    points = [ScalingPoint(n, measure_bottleneck_macs(n), measure_full_attention_macs(n)) for n in lengths]
    return ScalingReport(points)
