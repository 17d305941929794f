import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPECS = ROOT / "specs"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def spec_path(name: str) -> str:
    return str(SPECS / name)


def spec_text(name: str) -> str:
    return (SPECS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def theorems():
    """Session cache of derived addition theorems, keyed by spec text."""
    from addtheo.funcspec import parse_spec
    from addtheo.laws import derive_addition_theorem

    cache = {}

    def get(text, **kwargs):
        key = (text, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = derive_addition_theorem(parse_spec(text), **kwargs)
        return cache[key]

    return get


def pytest_sessionstart(session):
    session.config._addtheo_started = time.monotonic()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    acceptance = sys.modules.get("test_acceptance")
    if acceptance is not None and getattr(acceptance, "RESULTS", None):
        terminalreporter.write_line("acceptance criteria:")
        for line in acceptance.RESULTS:
            terminalreporter.write_line("  " + line)
    elapsed = time.monotonic() - config._addtheo_started
    terminalreporter.write_line(f"suite wall-clock: {elapsed:.1f}s")
