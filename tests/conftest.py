"""Suite-wide hang guard.

``timeout`` in ``pyproject.toml`` caps each test's wall time.  The
pytest-timeout plugin enforces it where it is installed.  Without the
plugin pytest would only warn about an unknown key, so this file
registers the key and enforces it with the standard library instead:
``faulthandler`` dumps every thread's traceback to stderr and exits the
run once a test overruns.  With the plugin loaded this file does
nothing.
"""

import faulthandler
import os
import sys

import pytest

_PLUGIN = "timeout"
_GUARD = pytest.StashKey[tuple]()


def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.has_plugin(_PLUGIN):
        parser.addini(
            _PLUGIN, "Per-test wall-clock cap in seconds (0: none).",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.has_plugin(_PLUGIN):
        return
    seconds = float(config.getini(_PLUGIN) or 0)
    if seconds > 0:
        # Tests run with stderr captured; the dump must reach the
        # terminal, so keep a copy of the real stream.
        config.stash[_GUARD] = (seconds, os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    guard = config.stash.get(_GUARD, None)
    if guard is not None:
        os.close(guard[1])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    guard = item.config.stash.get(_GUARD, None)
    if guard is None:
        return (yield)
    seconds, stderr = guard
    faulthandler.dump_traceback_later(seconds, file=stderr, exit=True)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
