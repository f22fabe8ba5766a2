"""One JSON sanitiser for every wire and artifact writer.

Strict JSON has no ``NaN`` / ``Infinity`` tokens, yet the codebase
produces non-finite floats in entirely legitimate places: a median
over an empty congestion set, the mean coverage of an idle collector,
a zero-second timing division.  The query port
(:mod:`repro.service.query`) and the bench artifact writers
(``benchmarks/benchlib.write_bench_json``) both import this one
"non-finite -> null, NumPy -> native" walk, so the two surfaces can
never drift apart on what a degenerate value serialises as.

The contract: the returned structure round-trips through
``json.dumps(..., allow_nan=False)`` for any input built from JSON
scalars, containers, NumPy arrays/scalars and stringifiable leaves.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["jsonable"]


def jsonable(obj: Any) -> Any:
    """Coerce a value into plain JSON types, recursively.

    * non-finite floats become ``None`` (JSON ``null``);
    * dict keys are stringified (JSON object keys are strings -- this
      matches what ``json.dump`` would emit for int keys anyway);
    * lists/tuples become lists;
    * NumPy arrays and scalars are unwrapped via ``tolist()`` and then
      re-walked (a float64 NaN inside an array still becomes null);
    * anything else falls back to ``str(obj)`` rather than crashing a
      live query connection or an artifact write.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # NumPy array or scalar
        return jsonable(obj.tolist())
    return str(obj)
