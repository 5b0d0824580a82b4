"""``env(**vars)``: set ``REPRO_*`` knobs for the duration of a block.

Hypothesis-driven tests cannot use pytest's function-scoped
``monkeypatch`` inside ``@given``, so they build their engines under
this context manager instead; every variable is restored on exit.
"""

import os
from contextlib import contextmanager


@contextmanager
def env(**vars):
    saved = {key: os.environ.get(key) for key in vars}
    os.environ.update({key: str(value) for key, value in vars.items()})
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
