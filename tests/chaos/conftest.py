"""Drills SIGKILL and time out forked children; none may outlive its test."""

from tests.service.conftest import no_orphan_children  # noqa: F401
