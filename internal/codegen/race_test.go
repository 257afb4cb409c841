//go:build race

package codegen

// The race detector slows the work between two context polls several
// times over (the dependence graph of a 50,000-statement block takes
// seconds under it), so wall-clock deadline bounds stretch by this much.
func init() { raceSlowdown = 8 }
