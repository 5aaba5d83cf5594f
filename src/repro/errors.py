"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class at an API
boundary without swallowing unrelated programming errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "CalibrationError",
    "TensorStoreError",
    "InfeasibleDesignError",
    "UnknownDeviceError",
    "UnknownWorkloadError",
    "UnknownExperimentError",
    "ServiceError",
    "BadRequestError",
    "NotFoundError",
    "MethodNotAllowedError",
    "UnprocessableRequestError",
    "TooManyRequestsError",
    "ServiceTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """An analytical-model function was called with invalid arguments.

    Examples: a parallel fraction outside ``[0, 1]``, a non-positive
    resource count, or ``r > n``.
    """


class CalibrationError(ReproError):
    """Measured data is inconsistent or insufficient to derive parameters."""


class InfeasibleDesignError(ReproError):
    """No design point satisfies the given area/power/bandwidth budgets."""


class UnknownDeviceError(ReproError, KeyError):
    """A device name was not found in the device catalogue."""


class UnknownWorkloadError(ReproError, KeyError):
    """A workload name was not found in the workload registry."""


class UnknownExperimentError(ReproError, KeyError):
    """An experiment id was not found in the experiment index."""


class TensorStoreError(ReproError):
    """A materialized tensor store is missing, corrupt, or mismatched.

    Raised when a manifest fails its self-checksum, a channel file's
    content hash does not match the manifest, or the store's grids do
    not cover a build request.  The serving layer treats a load-time
    failure as *quarantine*: the store is ignored and every request
    falls back to live compute -- corruption can cost speed, never
    correctness.
    """


class ServiceError(ReproError):
    """Base class for serving-layer failures (:mod:`repro.service`).

    Each subclass carries the HTTP status code the server responds
    with, so the transport layer maps exceptions to responses without
    a lookup table.
    """

    #: HTTP status the server answers with when this error escapes.
    http_status = 500


class BadRequestError(ServiceError):
    """The request body is not valid JSON or fails schema validation."""

    http_status = 400


class NotFoundError(ServiceError):
    """No route, job, or event stream by the requested name."""

    http_status = 404


class MethodNotAllowedError(ServiceError):
    """The route exists but does not accept this HTTP method."""

    http_status = 405


class UnprocessableRequestError(ServiceError):
    """The request parsed, but the model cannot satisfy it."""

    http_status = 422


class TooManyRequestsError(ServiceError):
    """The admission queue is full; the request was shed unprocessed."""

    http_status = 429


class ServiceTimeoutError(ServiceError):
    """A request exceeded a deadline (503).

    Kept in the public hierarchy; the service itself sets no deadline
    (evaluation runs on its event loop, bounded by the grid).
    """

    http_status = 503
