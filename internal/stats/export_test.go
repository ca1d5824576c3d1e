package stats

// LognormalZ exposes the discrete-lognormal normalizer to the external
// oracle tests, which cannot import the package's internals.
var LognormalZ = lognormalZ
