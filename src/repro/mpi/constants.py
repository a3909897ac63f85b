"""MPI constants: wildcards and the internal tag space."""

# Matching wildcards (match MPI's negative sentinel convention).
ANY_SOURCE = -1
ANY_TAG = -1

# Highest tag available to applications; collectives use tags above it so
# internal traffic can never match user receives.
TAG_UB = 2 ** 20 - 1
INTERNAL_TAG_BASE = 2 ** 20
