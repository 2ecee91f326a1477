"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
physics guards (truncation, grid coverage, overflow) exit 3, and a
failed oracle cross-check exits 4.
"""
from __future__ import annotations


class ClcoherenceError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ClcoherenceError):
    """Invalid or inconsistent scenario configuration."""


class PhysicsGuardError(ClcoherenceError):
    """A numerical-validity guard tripped (result would be untrustworthy)."""


class TruncationError(PhysicsGuardError):
    """A ladder's boundary sidebands hold non-negligible amplitude."""


class GridCoverageError(PhysicsGuardError):
    """A requested frequency does not lie on the available spectral lattice."""


class OracleMismatchError(ClcoherenceError):
    """Truncated-space oracle disagrees with an analytic prediction."""
