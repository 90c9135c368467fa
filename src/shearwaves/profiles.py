"""Scalar profile functions with derivatives.

A ProfileFunction bundles a scalar callable with (optionally analytic)
first and second derivatives.  When an analytic derivative is missing it
falls back to central differences with step h = 1e-6 * max(1, |s|).  A shear
modulus Q(s) is one of these, with s the squared strain magnitude.

Builtin families: linear, sine, poly, const.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

FD_REL_STEP = 1e-6
# step of differences of a difference: larger, to keep the noise floor down
FD2_REL_STEP = 1e-4


def _fd_step(s, rel_step: float = FD_REL_STEP):
    return rel_step * np.maximum(1.0, np.abs(s))


def derivative(f: Callable, df: Optional[Callable], s, rel_step: float = FD_REL_STEP):
    """df(s), or else the central difference of f at s with step rel_step * max(1, |s|).

    A scalar s returns a float, an array s an array.
    """
    if df is not None:
        return df(np.asarray(s, dtype=float)) if np.ndim(s) else float(df(s))
    s = np.asarray(s, dtype=float)
    h = _fd_step(s, rel_step)
    out = (f(s + h) - f(s - h)) / (2.0 * h)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ProfileFunction:
    """A scalar function s -> f(s) with first/second derivatives.

    Parameters
    ----------
    f : callable
        Vectorized scalar function.
    df, d2f : callable, optional
        Analytic derivatives.  Central differences are used when absent.
    name : str
        Short label used in error messages and the names of derived fields.
    """

    f: Callable
    df: Optional[Callable] = None
    d2f: Optional[Callable] = None
    name: str = "custom"

    def __call__(self, s):
        return self.f(np.asarray(s, dtype=float)) if np.ndim(s) else float(self.f(s))

    def deriv(self, s):
        return derivative(self.f, self.df, s)

    def deriv2(self, s):
        # difference the (possibly analytic) first derivative
        return derivative(self.deriv, self.d2f, s, rel_step=FD2_REL_STEP)


def linear_profile(k: float) -> ProfileFunction:
    """f(s) = k*s."""
    k = float(k)
    return ProfileFunction(
        f=lambda s: k * s,
        df=lambda s: k * np.ones_like(np.asarray(s, dtype=float)),
        d2f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        name="linear",
    )


def sine_profile(amp: float, freq: float, offset: float = 0.0) -> ProfileFunction:
    """f(s) = amp*sin(freq*s) + offset."""
    amp, freq, offset = float(amp), float(freq), float(offset)
    return ProfileFunction(
        f=lambda s: amp * np.sin(freq * s) + offset,
        df=lambda s: amp * freq * np.cos(freq * s),
        d2f=lambda s: -amp * freq * freq * np.sin(freq * s),
        name="sine",
    )


def _horner(c):
    """s -> sum_k c[k] * s**k in polyval's own operation order, so bit for bit its value;
    a matrix c gives (u, v) -> sum_ij c[i, j] u**i v**j in polyval2d's: u, then v."""
    if c.ndim == 2:
        columns = [_horner(column) for column in c.T]
        return lambda u, v: _horner_sum([column(u) for column in columns[::-1]], v)
    top = c.tolist()[::-1]
    return lambda s: _horner_sum(top, s)


def _horner_sum(top, s):
    """The Horner sum at s of the coefficients top, listed from the highest power down."""
    out = top[0] + s * 0
    for ck in top[1:]:
        out = ck + out * s
    return out


def _polyder(c):
    """polyder's j * c[j] along axis 0, bit for bit, but +0 for a constant (not c[:1] * 0)."""
    return (c[1:].T * np.arange(1, len(c))).T if len(c) > 1 else np.zeros_like(c[:1])


@contextmanager
def _derivatives_of(coeffs):
    """Where the derivative coefficients of the poly ``coeffs`` are computed: a finite
    j * c[j] that overflows is an OverflowError naming ``coeffs``, not a warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise OverflowError(f"a derivative coefficient of coeffs = {coeffs!r} "
                            f"is not finite") from None


def poly_profile(coeffs) -> ProfileFunction:
    """f(s) = sum_k coeffs[k] * s**k."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"a poly profile needs a flat list of at least one coefficient, "
                         f"got coeffs = {coeffs!r}")
    with _derivatives_of(coeffs):
        dc = _polyder(c)
        d2c = _polyder(dc)
    return ProfileFunction(f=_horner(c), df=_horner(dc), d2f=_horner(d2c), name="poly")


def const_profile(c: float) -> ProfileFunction:
    """f(s) = c."""
    c = float(c)
    return ProfileFunction(
        f=lambda s: c * np.ones_like(np.asarray(s, dtype=float)),
        df=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        d2f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        name="const",
    )


PROFILE_BUILTINS = {
    "linear": lambda cfg: linear_profile(cfg["k"]),
    "sine": lambda cfg: sine_profile(cfg["amp"], cfg["freq"], cfg.get("offset", 0.0)),
    "poly": lambda cfg: poly_profile(cfg["coeffs"]),
    "const": lambda cfg: const_profile(cfg["c"]),
}


def profile_from_config(cfg: dict) -> ProfileFunction:
    kind = cfg.get("kind")
    if kind not in PROFILE_BUILTINS:
        raise KeyError(f"unknown profile kind: {kind!r}")
    return PROFILE_BUILTINS[kind](cfg)
