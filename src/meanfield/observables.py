"""Catalog of bounded-Lipschitz test functions and their tensor products.

Each catalog entry records its sup norm and Lipschitz constant, rescaled
at construction so both are at most one.  Certified norms matter: the
fluctuation bounds under measurement are stated for unit-norm factors,
so curves built from the catalog are comparable across observables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Observable",
    "ObservableProduct",
    "observable_catalog",
    "marginal_observable",
]

_TANH_SQ_SLOPE = 0.7698997  # max |d/dx tanh^2(x)|


@dataclass(frozen=True)
class Observable:
    """One-particle test function with certified sup and Lipschitz norms."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]  # (..., N, m) atoms -> (..., N) values
    sup_norm: float
    lip_const: float

    def __call__(self, atoms: np.ndarray) -> np.ndarray:
        return self.fn(atoms)


# module-level factor functions, bound with functools.partial, so that
# observables pickle into worker tasks


def _gauss_bump(center, width, amp, atoms: np.ndarray) -> np.ndarray:
    d2 = ((atoms - center) ** 2).sum(axis=-1)
    return amp * np.exp(-d2 / (2.0 * width**2))


def _tanh_coord(axis, scale, amp, atoms: np.ndarray) -> np.ndarray:
    return amp * np.tanh(atoms[..., axis] / scale)


def _tanh_square(axis, scale, amp, atoms: np.ndarray) -> np.ndarray:
    return amp * np.tanh(atoms[..., axis] / scale) ** 2


def observable_catalog(name: str, **params) -> Observable:
    """Built-in factors: gauss_bump, tanh_coord, tanh_square.

    * gauss_bump(center, width): exp(-|z-c|^2 / (2 w^2)), raw Lipschitz
      constant e^{-1/2}/w;
    * tanh_coord(axis, scale): tanh(z_axis / s), raw Lipschitz 1/s;
    * tanh_square(axis, scale): tanh(z_axis / s)^2, a bounded polynomial
      composed with a compressor.

    Amplitudes are scaled down when needed so max(sup, lip) <= 1.
    """
    if name == "gauss_bump":
        center = np.atleast_1d(np.asarray(params.get("center", 0.0), dtype=np.float64))
        width = float(params.get("width", 1.0))
        raw_lip = math.exp(-0.5) / width
        amp = min(1.0, 1.0 / raw_lip)
        fn = functools.partial(_gauss_bump, center, width, amp)
        ctag = "|".join(f"{c:g}" for c in center)  # tags stay comma-free
        return Observable(f"gauss_bump(c={ctag} w={width:g})", fn,
                          sup_norm=amp, lip_const=amp * raw_lip)
    if name == "tanh_coord":
        axis = int(params.get("axis", 0))
        scale = float(params.get("scale", 1.0))
        raw_lip = 1.0 / scale
        amp = min(1.0, scale)
        fn = functools.partial(_tanh_coord, axis, scale, amp)
        return Observable(f"tanh_coord(axis={axis} s={scale:g})", fn,
                          sup_norm=amp, lip_const=amp * raw_lip)
    if name == "tanh_square":
        axis = int(params.get("axis", 0))
        scale = float(params.get("scale", 1.0))
        raw_lip = _TANH_SQ_SLOPE / scale
        amp = min(1.0, 1.0 / raw_lip)
        fn = functools.partial(_tanh_square, axis, scale, amp)
        return Observable(f"tanh_square(axis={axis} s={scale:g})", fn,
                          sup_norm=amp, lip_const=amp * raw_lip)
    raise ValueError(f"unknown observable '{name}'")


@dataclass(frozen=True)
class ObservableProduct:
    """Tensor product phi_1 ⊗ ... ⊗ phi_ell of catalog factors."""

    factors: tuple[Observable, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise ValueError("need at least one factor")

    @property
    def ell(self) -> int:
        return len(self.factors)

    @property
    def sup_norm(self) -> float:
        out = 1.0
        for f in self.factors:
            out *= f.sup_norm
        return out

    @property
    def tag(self) -> str:
        return " x ".join(f.name for f in self.factors)


def marginal_observable(atoms: np.ndarray, obs: ObservableProduct) -> float | np.ndarray:
    """Π_j phi_j(z_j) on the first ell atoms of an (N, m) configuration.

    A stack (..., N, m) gives one value per configuration.
    """
    if atoms.shape[-2] < obs.ell:
        raise ValueError("need at least ell particles")
    out = 1.0
    for j, f in enumerate(obs.factors):
        out = out * f(atoms[..., j : j + 1, :])[..., 0]
    return float(out) if np.ndim(out) == 0 else out
