"""Fixtures shared by the test modules."""

import functools

import pytest

import pins


@pytest.fixture(scope="session")
def written(tmp_path_factory):
    """The file that `stab3 COMMAND --output FILE` writes, made once per
    command for the whole test run."""
    directory = tmp_path_factory.mktemp("pinned")

    @functools.cache
    def write(command):
        path = directory / command.replace(" ", "_")
        pins.run(command, path)
        return path

    return write
