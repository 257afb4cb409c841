package schedule

// RandomLoop lends randomLoop to the external tests, which also reduce
// the compile-exact pool's conditionals with internal/hier.
var RandomLoop = randomLoop
