from functools import partial

import numpy as np
import pytest

from hgdet import exactla


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion verdicts in the final summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def route(monkeypatch):
    """``route(call)`` runs ``call`` and returns its value and, for each
    ``_det_coords`` entry during it, the first eliminator that entry ran:
    ``_eliminate``, ``_peel_det`` or ``_multimodular`` (None for n = 0).
    ``route.dtypes`` then holds, per entry, the dtypes of the arrays that
    eliminator was handed, whether as arguments or, to the wave peel, as
    one list.  Only ``exactla`` is patched, so elimination
    outside a determinant, as in a rank, is not recorded, nor is the
    ``_eliminate`` that ends a wave peel."""
    names, dtypes, inside = [], [], []
    det_coords = exactla._det_coords

    def entry(*args, **kwargs):
        inside.append(len(names))
        names.append(None)
        dtypes.append(None)
        try:
            return det_coords(*args, **kwargs)
        finally:
            inside.pop()

    def eliminator(*args, original, name, **kwargs):
        if inside and names[inside[-1]] is None:
            names[inside[-1]] = name
            arrays = args[0] if isinstance(args[0], list) else args
            dtypes[inside[-1]] = tuple(a.dtype for a in arrays if isinstance(a, np.ndarray))
        return original(*args, **kwargs)

    monkeypatch.setattr(exactla, "_det_coords", entry)
    for name in ("_eliminate", "_peel_det", "_multimodular"):
        monkeypatch.setattr(exactla, name,
                            partial(eliminator, original=getattr(exactla, name), name=name))

    def run(call):
        names.clear()
        dtypes.clear()
        value = call()
        run.dtypes = list(dtypes)
        return value, list(names)

    return run
