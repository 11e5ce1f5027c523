import numpy as np
import pytest

from expsav import avf, fourier, kg


@pytest.fixture
def transforms(monkeypatch):
    """(kind, real) of every transform made through the fourier, kg and avf names.

    kind is "forward" or "inverse"; real says whether the forward input or
    the inverse output is a real array.
    """
    calls = []
    for module in (fourier, kg, avf):
        for kind in ("forward", "inverse"):
            name = f"{kind}_values"

            def counted(values, grid, fn=getattr(module, name), kind=kind):
                out = fn(values, grid)
                calls.append((kind, np.isrealobj(values if kind == "forward" else out)))
                return out

            monkeypatch.setattr(module, name, counted)
    return calls
