"""Markers that a test module cannot carry itself."""

import pytest


def pytest_collection_modifyitems(items):
    # each test of test_bench_digests.py runs a full benchmark invocation
    for item in items:
        if item.path.name == "test_bench_digests.py":
            item.add_marker(pytest.mark.slow)
