"""Central finite-difference gradient verification.

Used by the op-level unit tests, the whole-model gradient test, and the
``gradcheck`` CLI subcommand. Analytic gradients are compared against
(f(x+h) - f(x-h)) / 2h one coordinate at a time, with a relative error that
uses an absolute floor so that near-zero gradient entries are compared
absolutely instead of amplifying float noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autograd import Tensor, backward, no_grad


def rel_err(analytic: float, numeric: float, floor: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


@dataclass
class FDReport:
    """Outcome of a finite-difference sweep over a set of parameters."""

    checked: int = 0
    max_rel_err: float = 0.0
    worst_param: str = ""
    worst_index: int = -1

    def ok(self, tolerance: float) -> bool:
        return self.checked > 0 and self.max_rel_err < tolerance


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    step: float = 1e-5,
    floor: float = 1e-4,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> FDReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must rebuild the graph (and re-seed any internal randomness)
    on every call so that repeated evaluations are deterministic functions of
    the parameter values. Only the first call is differentiated; the perturbed
    evaluations run under ``no_grad``, so they build no tape. When
    ``max_coords_per_param`` is given, that many coordinates are sampled per
    parameter instead of sweeping all of them.
    """
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params}

    report = FDReport()
    for name, p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        ga = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + step
                up = float(loss_fn().data.reshape(()))
                flat[i] = orig - step
                down = float(loss_fn().data.reshape(()))
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = rel_err(float(ga[i]), numeric, floor)
            report.checked += 1
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = name
                report.worst_index = int(i)
    return report
