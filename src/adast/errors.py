"""Exception types shared across the package.

ConfigError and its subclasses map to CLI exit code 2; numeric failures
map to exit code 3.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration, parameter, or set; rejected before any compute."""


class GraphConnectivityError(ConfigError):
    """The communication graph is not connected."""


class InvalidGraphError(ConfigError):
    """The graph violates a structural precondition (e.g. unequal out-degrees)."""
