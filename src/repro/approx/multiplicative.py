"""Multiplicative value compression (paper §4.3).

Encoding a raw 32-bit value (e.g. a latency in nanoseconds) can blow a
small bit budget.  PINT instead writes ``a = [log_{(1+eps)^2} v]`` and the
Inference Module recovers ``(1+eps)^(2a)``, a (1+eps)-approximation of
``v``.  With eps = 0.0025 a 32-bit value fits in 16 bits; with
eps = 0.025 it fits in 8 bits (the HPCC use case).

The randomized-rounding variant ``[.]_R`` floors or ceils with a
probability that makes the *expected* encoded exponent exact, removing
systematic bias when many packets average the same quantity (used by
PINT-HPCC, §4.3 "Example #3").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.hashing import GlobalHash

#: Default value ceiling: an unsigned 32-bit counter.
_MAX_U32 = float(2**32 - 1)


class MultiplicativeCompressor:
    """Compress positive values onto an integer exponent grid.

    Parameters
    ----------
    epsilon:
        Target multiplicative error; the decoded value is within a
        ``(1 + epsilon)`` factor of the original (up to rounding of the
        exponent).
    bits:
        Optional width check: raise if an encoded exponent cannot fit.
    max_value:
        Largest value that must be representable (defaults to 2**32 - 1,
        the INT value width).
    """

    def __init__(
        self,
        epsilon: float,
        bits: Optional[int] = None,
        max_value: float = _MAX_U32,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        #: log base: (1 + eps)^2, so decoded error is one eps-step.
        self.base = (1.0 + epsilon) ** 2
        self._log_base = math.log(self.base)
        self.bits = bits
        self.max_value = max_value
        #: Lazily grown decode lookup table; entries are built with the
        #: scalar ``base ** code`` so decode_array is bit-identical.
        self._decode_table = np.empty(0, dtype=np.float64)
        if bits is not None:
            needed = self.encode(max_value)
            if needed >= (1 << bits):
                raise ValueError(
                    f"{bits} bits cannot hold exponent {needed} for "
                    f"max_value={max_value} at epsilon={epsilon}"
                )

    def encode(self, value: float) -> int:
        """Deterministic encoding: round exponent to nearest integer."""
        if value < 0:
            raise ValueError("multiplicative compression needs value >= 0")
        if value < 1.0:
            return 0
        return int(round(math.log(value) / self._log_base))

    def encode_randomized(
        self, value: float, grid: GlobalHash, *key_parts
    ) -> int:
        """Randomized rounding ``[.]_R``: unbiased exponent in expectation.

        The floor/ceil coin is drawn from the global hash so that the
        encoding stays deterministic per packet (replayable by tests and
        by the Inference Module).
        """
        if value < 0:
            raise ValueError("multiplicative compression needs value >= 0")
        if value < 1.0:
            return 0
        exact = math.log(value) / self._log_base
        lo = math.floor(exact)
        frac = exact - lo
        return int(lo + (1 if grid.uniform(*key_parts) < frac else 0))

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode`, lane-for-lane identical.

        Relies on NumPy and ``math`` sharing libm for float64 ``log``
        and on both rounding half-even, so each lane reproduces the
        scalar exponent bit-for-bit (property-tested).
        """
        vals = np.asarray(values, dtype=np.float64)
        if np.any(vals < 0):
            raise ValueError("multiplicative compression needs value >= 0")
        small = vals < 1.0
        exact = np.log(np.where(small, 1.0, vals)) / self._log_base
        return np.where(small, 0, np.round(exact).astype(np.int64))

    def encode_randomized_array(
        self, values: np.ndarray, uniforms: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`encode_randomized` with caller-drawn coins.

        ``uniforms`` supplies one [0, 1) coin per lane -- typically
        ``grid.uniform_zip(pids, hops)``, the same keyed draw the
        scalar path makes -- so feeding the scalar method's coins
        reproduces its codes lane-for-lane.
        """
        vals = np.asarray(values, dtype=np.float64)
        if np.any(vals < 0):
            raise ValueError("multiplicative compression needs value >= 0")
        u = np.asarray(uniforms, dtype=np.float64)
        small = vals < 1.0
        exact = np.log(np.where(small, 1.0, vals)) / self._log_base
        lo = np.floor(exact)
        code = (lo + (u < exact - lo)).astype(np.int64)
        return np.where(small, 0, code)

    def decode(self, code: int) -> float:
        """Recover the (1+eps)-approximate value from its exponent."""
        if code < 0:
            raise ValueError("codes are non-negative")
        return self.base ** code

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode`, lane-for-lane bit-identical.

        Exponent grids are tiny (``2**bits`` codes), so decoding is a
        table gather; the table entries come from the scalar
        ``base ** code`` rather than ``np.power`` (whose SIMD path may
        round differently), which is what makes the lanes exact.
        """
        arr = np.asarray(codes, dtype=np.int64)
        if arr.size == 0:
            return np.empty(0, dtype=np.float64)
        if int(arr.min()) < 0:
            raise ValueError("codes are non-negative")
        hi = int(arr.max())
        if hi >= self._decode_table.size:
            self._decode_table = np.asarray(
                [self.base ** code for code in range(hi + 1)],
                dtype=np.float64,
            )
        return self._decode_table[arr]

    def relative_error(self, value: float) -> float:
        """Relative error |decode(encode(v)) - v| / v for ``v > 0``."""
        if value <= 0:
            raise ValueError("value must be positive")
        return abs(self.decode(self.encode(value)) - value) / value


def epsilon_for_bits(bits: int, max_value: float = _MAX_U32) -> float:
    """Smallest epsilon so that ``max_value`` encodes within ``bits`` bits.

    Inverts the ``(1+eps)^2`` grid accounting for nearest-integer
    rounding: we need ``round(log_{(1+eps)^2} max_value) <= 2**bits - 1``,
    i.e. ``log(max_value) / (2 ln(1+eps)) <= 2**bits - 1/2``.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    exponent_cap = 2.0 * (2 ** bits) - 1.0
    return float(math.exp(math.log(max_value) / exponent_cap) - 1.0)
