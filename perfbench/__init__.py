"""Time-to-verdict benchmark of the liftlap command line; see README.md."""
