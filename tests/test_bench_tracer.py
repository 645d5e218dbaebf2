"""The traced benchmark pass wraps package functions by module and name
(``bench/tracer.py``).  Entering its recorder looks every one of them up, so
removing or renaming a wrapped function fails here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_finds_every_function_it_wraps():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.SpanRecorder():
        pass
