"""enqode: encoding-typed quantum state-vector toolkit.

Classical data enters quantum circuits in a handful of well-defined
encodings.  This package makes those encodings explicit objects: loaders
build circuits that realize them, converters move information between them,
extractors pull classical answers back out, and all of them run on the
built-in dense state-vector simulator.
"""

__version__ = "0.1.0"
