"""Scalar profile functions with derivatives.

A ProfileFunction bundles a scalar callable with its analytic first and
second derivatives.  Either may be left out; asking for a missing one is a
TypeError that names the profile and the derivative.  A shear modulus Q(s) is
one of these, with s the squared strain magnitude.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ProfileFunction:
    """A scalar function s -> f(s) with first/second derivatives.

    Parameters
    ----------
    f : callable
        Vectorized scalar function.
    df, d2f : callable, optional
        Analytic derivatives; ``deriv`` or ``deriv2`` raises a TypeError naming
        the profile when its own is missing.
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
        df = self.analytic("df")
        return df(np.asarray(s, dtype=float)) if np.ndim(s) else float(df(s))

    def deriv2(self, s):
        d2f = self.analytic("d2f")
        return d2f(np.asarray(s, dtype=float)) if np.ndim(s) else float(d2f(s))

    def analytic(self, name: str) -> Callable:
        """The analytic derivative ``name`` ("df" or "d2f"); a TypeError if it is missing."""
        fn = getattr(self, name)
        if fn is None:
            raise TypeError(f"profile {self.name!r} has no analytic derivative {name}")
        return fn


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


PROFILE_BUILTINS = {"linear": linear_profile, "sine": sine_profile, "poly": poly_profile,
                    "const": const_profile}


def _from_config(what: str, builtins: dict, cfg: dict):
    """Call the ``builtins`` builder of block ``cfg``'s kind with the block's other keys. An
    unknown kind is a KeyError; a missing or unknown key, a TypeError that names the key."""
    kind = cfg.get("kind")
    if kind not in builtins:
        raise KeyError(f"unknown {what} kind: {kind!r}")
    return builtins[kind](**{key: value for key, value in cfg.items() if key != "kind"})


def profile_from_config(cfg: dict) -> ProfileFunction:
    """A profile block's ProfileFunction; see `_from_config` for its errors."""
    return _from_config("profile", PROFILE_BUILTINS, cfg)
