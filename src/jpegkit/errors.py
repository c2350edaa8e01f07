"""Exception types raised across the toolkit.

The CLI maps any :class:`JpegkitError` to exit code 1 and prints the class
name on stderr, so subclass names are part of the public surface.
"""


class JpegkitError(Exception):
    """Base class for all domain errors raised by this package."""


# --- raster I/O ---------------------------------------------------------

class UnsupportedMagic(JpegkitError):
    """PNM magic other than binary P5/P6."""


class MaxvalNot255(JpegkitError):
    """PNM maxval is not 255."""


class TruncatedPayload(JpegkitError):
    """PNM pixel payload shorter than the header promises."""


# --- colorspace / geometry ----------------------------------------------

class WrongChannelCount(JpegkitError):
    """Operation requires a 3-channel image."""


class NonMultipleOf8WithoutPadFlag(JpegkitError):
    """Plane dimensions not multiples of 8 and padding was not requested."""


class DimMismatch(JpegkitError):
    """Image/grid dimensions disagree."""


class OptionsMismatch(JpegkitError):
    """Codec options conflict with the options recorded on a grid."""


# --- quantization / codec -----------------------------------------------

class QfOutOfRange(JpegkitError):
    """Quality factor outside [1, 100]."""


# --- JFIF container ------------------------------------------------------

class NotBaseline(JpegkitError):
    """Stream uses a frame type other than baseline sequential."""


class UnsupportedSampling(JpegkitError):
    """Stream uses chroma subsampling (non-1x1 factors)."""


class BadMarker(JpegkitError):
    """Malformed or unexpected marker structure."""


class HuffmanDecodeError(JpegkitError):
    """Entropy-coded data does not decode under the declared tables."""


class TruncatedStream(JpegkitError):
    """Stream ends before the expected terminator."""


class PassthroughNotRepresentable(JpegkitError):
    """Grid cannot be written as a standard 3-component YCbCr stream."""


# --- metrics / losses ----------------------------------------------------

class EmptySet(JpegkitError):
    """A sample set that must be nonempty is empty."""


class TooFewSamples(JpegkitError):
    """Fewer samples than the statistic requires."""


class MissingGroundTruth(JpegkitError):
    """Batch lacks the reference image the loss needs."""


class MissingReference(JpegkitError):
    """Batch lacks the reference estimate the loss needs."""


class SingularCovariance(UserWarning):
    """Not emitted by anything in jpegkit: the Fréchet proxy is exact for
    singular covariances (see `metrics.frechet_distance`). Kept importable
    for code that filters or counts it."""


# --- finite-space oracle --------------------------------------------------

class UnreachableY(JpegkitError):
    """No signal in the model maps to the requested observation."""


class MalformedSampler(JpegkitError):
    """Sampler did not return a probability table."""


# --- restorer -------------------------------------------------------------

class NotACompressedInput(JpegkitError):
    """Input fails the decompressed-image precondition."""


class NonFiniteLoss(JpegkitError):
    """Objective became NaN or infinite during descent."""
